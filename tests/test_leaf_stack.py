"""The stacked leaf stage against serial references.

The leaves of every unitary handed to one synthesis call are synthesized as
one stack.  These tests pin that to the serial, one-leaf-at-a-time forms it
replaces: the per-leaf chain over the public two-qubit functions, the
single-matrix Cartan decomposition, and one ``synth_kq_unitary`` call per
Schmidt basis.  Every comparison is exact: the same gates on the same qubits,
with the same matrix bytes.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla

from statesynth import (
    Circuit,
    Cnot,
    OneQubitGate,
    circuit_unitary,
    cnot_count,
    concat,
    haar_state,
    haar_unitary,
    phase_aligned_distance,
    schmidt_prepare,
    shift,
    synth_2q_unitary,
    synth_kq_unitary,
    two_qubit_up_to_diagonal,
)
from statesynth import synthesis, twoqubit
from statesynth.circuit import _from_arrays
from statesynth.twoqubit import MAGIC, MAGIC_DAG, _PATTERN


def _serial_qsd(u: np.ndarray, k: int) -> tuple[list, Circuit]:
    """The leaves of the cosine-sine tree synthesized one at a time.

    The tree's gates and leaves come from its level pass.  Every leaf after
    the first goes through ``two_qubit_up_to_diagonal``, its diagonal
    multiplying the previous leaf, and the first through
    ``synth_2q_unitary``.  Returns each leaf's circuit and diagonal (None
    for the first), in tree order, and the whole circuit, with each leaf
    circuit shifted onto qubits k-1, k.
    """
    (sink,) = synthesis._tree_sinks([(u, 1)])
    positions = [i for i, item in enumerate(sink) if isinstance(item, twoqubit._Leaf)]
    matrices = {pos: sink[pos].matrix for pos in positions}
    deltas = {positions[0]: None}
    for prev, pos in reversed(list(zip(positions, positions[1:]))):
        circ, deltas[pos] = two_qubit_up_to_diagonal(matrices[pos])
        matrices[prev] = np.diag(deltas[pos]) @ matrices[prev]
        sink[pos] = circ
    sink[positions[0]] = synth_2q_unitary(matrices[positions[0]])
    leaves = [(sink[pos], deltas[pos]) for pos in positions]
    pieces = [shift(item, k - 2, k) if isinstance(item, Circuit) else _from_arrays(k, *item)
              for item in sink]
    return leaves, concat(*pieces)


def _stacked_leaves(monkeypatch, u: np.ndarray) -> tuple[list, Circuit]:
    """The leaves of ``synth_kq_unitary(u)``'s one stack, in tree order, and its circuit."""
    stacks = []
    stack = synthesis._synth_leaves
    monkeypatch.setattr(synthesis, "_synth_leaves", lambda leaves: stacks.append(leaves) or stack(leaves))
    c = synth_kq_unitary(u)
    monkeypatch.setattr(synthesis, "_synth_leaves", stack)
    (leaves,) = stacks
    return leaves[::-1], c


def _leaf_circuit(leaf) -> Circuit:
    """A stacked leaf's gates on two qubits."""
    return _from_arrays(2, np.where(leaf.ops > 0, leaf.ops - leaf.offset, 0), leaf.mats)


def _assert_same_gates(ours, reference) -> None:
    assert len(ours) == len(reference)
    for g, h in zip(ours, reference):
        assert type(g) is type(h)
        if isinstance(g, Cnot):
            assert (g.control, g.target) == (h.control, h.target)
        else:
            assert g.target == h.target
            assert g.matrix.tobytes() == np.ascontiguousarray(h.matrix).tobytes()


def _near_tensor(rng, left_dim, right_dim, eps):
    product = np.kron(haar_unitary(left_dim, rng), haar_unitary(right_dim, rng))
    dim = left_dim * right_dim
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return product @ sla.expm(1j * eps * (g + g.conj().T))


def _haar_inputs():
    for k, count in ((3, 4), (4, 3), (5, 1)):
        rng = np.random.default_rng(60 + k)
        for _ in range(count):
            yield haar_unitary(1 << k, rng)


def _near_tensor_k3_inputs():
    """The near-tensor set of ``test_kq_near_tensor_k3``."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            yield _near_tensor(rng, 2, 4, 1e-8)


def _pinned_k4_inputs():
    """The inputs of ``test_kq_near_tensor_k4_pinned``, whose twists are refined."""
    rng = np.random.default_rng(2024)
    eps_values = [0.0, *(10.0 ** rng.uniform(-12, -5, 47))]
    inputs = [
        _near_tensor(rng, 1 << cut, 1 << (4 - cut), eps) for eps in eps_values for cut in (1, 2, 3)
    ]
    return [inputs[i] for i in (59, 94, 109, 133)]


def _near_special_inputs():
    """The multiplexed near-CZ blocks of ``test_kq_synthesis_with_near_special_blocks``."""
    rng = np.random.default_rng(8)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for eps in (1e-6, 1e-8):
        h1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.zeros((8, 8), dtype=complex)
        u[:4, :4] = cz @ sla.expm(1j * eps * (h1 + h1.conj().T) / 2)
        u[4:, 4:] = cz.conj().T @ sla.expm(1j * eps * (h2 + h2.conj().T) / 2)
        yield u


@pytest.mark.parametrize(
    "inputs", [_haar_inputs, _near_tensor_k3_inputs, _pinned_k4_inputs, _near_special_inputs]
)
def test_stacked_leaves_match_the_serial_chain(monkeypatch, inputs):
    """Leaf by leaf, the stack and the serial chain emit the same gate layout
    and CNOT class.  The stack's twists come from the Laurent form of each
    leaf's gamma traces in the pushed diagonal, the serial chain's from the
    traces of the pushed product, so they differ in the last bits: on the
    Haar and near-special sets each leaf's operator and diagonal agree within
    1e-12.  Near a tensor product the twist is ill-conditioned, and there the
    whole unitaries agree within 1e-9."""
    exact = inputs in (_haar_inputs, _near_special_inputs)
    for u in inputs():
        k = len(u).bit_length() - 1
        ours, circ = _stacked_leaves(monkeypatch, u)
        reference, serial = _serial_qsd(u, k)
        assert len(ours) == len(reference)
        for leaf, (ref, ref_delta) in zip(ours, reference):
            ref_ops, _ = ref._arrays
            assert np.array_equal(_leaf_circuit(leaf)._arrays[0], ref_ops)
            assert leaf.cnots == cnot_count(ref)
            if exact:
                assert np.max(np.abs(circuit_unitary(_leaf_circuit(leaf)) - circuit_unitary(ref))) <= 1e-12
                if ref_delta is not None:
                    assert np.max(np.abs(leaf.delta - ref_delta)) <= 1e-12
        assert phase_aligned_distance(circuit_unitary(circ), circuit_unitary(serial)) <= 1e-9


def test_pinned_inputs_refine_a_twist_inside_the_stack(monkeypatch):
    """The pinned near-tensor inputs take the refinement path, once each: the
    chain is restarted after the refined leaf, inside one stack."""
    refined = []
    exact = twoqubit._refined_twist
    monkeypatch.setattr(twoqubit, "_refined_twist", lambda *a: refined.append(1) or exact(*a))
    for u in _pinned_k4_inputs():
        synth_kq_unitary(u)
    assert len(refined) == 4


def test_twist_coefficients_match_the_gamma_traces():
    """The Laurent form of the gamma traces in the pushed diagonal, and the
    twist read off it, match the traces of the pushed product formed
    directly, on Haar leaves at random pushes."""
    rng = np.random.default_rng(73)
    ms = np.array([haar_unitary(4, rng) for _ in range(200)])
    zs = np.exp(1j * rng.uniform(-np.pi, np.pi, len(ms)))
    scale, coeffs = twoqubit._twist_coefficients(ms)
    for m, c, z, a in zip(ms, scale, zs.tolist(), coeffs):
        u = c * np.diag([1.0, 1.0, z, z.conjugate()]) @ m
        mm = MAGIC_DAG @ np.array([u, u @ twoqubit._QUARTER_TURN]) @ MAGIC
        g = np.trace(mm @ mm.transpose(0, 2, 1), axis1=1, axis2=2)
        laurent = np.array([sum(row[d] * z ** (d - 2) for d in range(5)) for row in a])
        assert np.max(np.abs(laurent - g)) <= 1e-12
        t = twoqubit._twist(a, z)
        assert abs(cmath.exp(1j * t) - cmath.exp(1j * math.atan2(-g[0].imag, g[1].imag))) <= 1e-12


@pytest.mark.parametrize("name", ["identity", "tensor"])
def test_a_leaf_with_vanishing_gamma_traces_takes_no_twist(name):
    """Where both gamma traces are real, every twist meets the class
    condition; a local leaf keeps t = 0, so its diagonal is the identity and
    it needs no CNOT."""
    rng = np.random.default_rng(74)
    u = np.eye(4, dtype=complex) if name == "identity" else np.kron(
        haar_unitary(2, rng), haar_unitary(2, rng)
    )
    circ, delta = two_qubit_up_to_diagonal(u)
    assert delta.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert cnot_count(circ) == 0
    assert phase_aligned_distance(circuit_unitary(circ), u) <= 1e-12


def test_a_free_twist_takes_the_fewest_cnots():
    """Every twist of CZ meets the class condition, and the quarter turn
    t = pi/2 leaves CZ Delta(t)^dag local: the leaf needs no CNOT, its
    diagonal (1, 1, i, -i) carrying the CZ.  In a chain, the free twist also
    counts the CNOTs of the leaf it pushes into."""
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    circ, delta = two_qubit_up_to_diagonal(cz)
    assert cnot_count(circ) == 0
    assert np.max(np.abs(delta - [1, 1, 1j, -1j])) <= 1e-15
    assert phase_aligned_distance(circuit_unitary(circ) @ np.diag(delta), cz) <= 1e-12


# -- the single-matrix Cartan decomposition, as it was before stacking -------


def _su4(u):
    return u * np.exp(-0.25j * np.angle(np.linalg.det(u)))


def _ref_centered(m):
    m = (m + m.T) / 2.0
    return m - (np.trace(m) / len(m)) * np.eye(len(m))


def _ref_joint_diagonalize(a, b, depth=0):
    n = a.shape[0]
    if n == 1:
        return np.eye(1)
    wa = np.linalg.eigvalsh(a)
    wb = np.linalg.eigvalsh(b)
    if wb[-1] - wb[0] > wa[-1] - wa[0]:
        a, b = b, a
        wa = wb
    spread = wa[-1] - wa[0]
    w, p = np.linalg.eigh(a)
    if spread < 1e-13 or depth > 12:
        return p
    tol = spread / (4.0 * n)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] < tol:
            j += 1
        if j - i > 1:
            cols = p[:, i:j]
            sub_a = _ref_centered(cols.T @ a @ cols)
            sub_b = _ref_centered(cols.T @ b @ cols)
            p[:, i:j] = cols @ _ref_joint_diagonalize(sub_a, sub_b, depth + 1)
        i = j
    return p


def _reference_kak(u):
    m = MAGIC_DAG @ _su4(np.asarray(u, dtype=complex)) @ MAGIC
    g = m @ m.T
    p = _ref_joint_diagonalize((g + g.T).real / 2.0, (g + g.T).imag / 2.0)
    eig = np.diag(p.T @ g @ p).copy()
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    d = np.exp(1j * np.angle(eig) / 2.0)
    r = (p.T @ m) / d[:, None]
    if np.linalg.det(r).real < 0:
        r[0, :] = -r[0, :]
        d[0] = -d[0]
    assert np.max(np.abs(r.imag)) <= 1e-6
    l1 = MAGIC @ p @ MAGIC_DAG
    l2 = MAGIC @ r.real @ MAGIC_DAG
    coeffs = np.linalg.solve(_PATTERN, np.angle(d))
    return l1, coeffs[1:], l2, cmath.exp(1j * coeffs[0])


def _twisted_leaves(rng, count):
    """KAK inputs u Delta(t)^dag of Haar leaves realized up to a diagonal:
    one coordinate vanishes, so their gamma spectra mostly cluster as (2, 2)."""
    ms = np.array([haar_unitary(4, rng) for _ in range(count)])
    scale, coeffs = twoqubit._twist_coefficients(ms)
    return [
        twoqubit._twisted(m * c, twoqubit._twist(a, 1.0 + 0.0j)) for m, c, a in zip(ms, scale, coeffs)
    ]


# Haar n = 4 states whose Schmidt bases cluster as (2, 1, 1) (seeds 13, 24)
# and as (1, 1, 2) (seeds 27, 32)
_N4_CLUSTER_SEEDS = (13, 24, 27, 32)


def _mixed_stack():
    """(stack, twisted): Haar leaves, twisted Haar leaves, Haar n = 4 Schmidt
    bases with single-pair clusters, tensor products, the CNOT, iSWAP, SWAP
    and sqrt(SWAP) classes bare and between random locals, and the identity;
    ``twisted`` flags the twisted leaves."""
    rng = np.random.default_rng(70)

    def local():
        return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))

    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    sqrt_swap = sla.sqrtm(swap)
    stack = [haar_unitary(4, rng) for _ in range(6)]
    twisted = _twisted_leaves(rng, 8)
    for seed in _N4_CLUSTER_SEEDS:
        sf = schmidt_prepare(haar_state(4, np.random.default_rng(seed))).schmidt
        stack += [sf.basis_left, sf.basis_right]
    stack += [local() for _ in range(3)]
    for special in (cnot, iswap, swap, sqrt_swap):
        stack += [special, local() @ special @ local()]
    stack.append(np.eye(4, dtype=complex))
    flags = np.zeros(len(stack) + len(twisted), dtype=bool)
    flags[len(stack) :] = True
    return np.array(stack + twisted), flags


def _near_special_leaves():
    """The CNOT, SWAP, sqrt(SWAP), CZ and identity classes between random
    locals, times expm(i eps H) for eps = 0 and 1e-14..1e-8, 6 per class and
    eps: 150 leaves a hair off a special stratum."""
    rng = np.random.default_rng(71)
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    leaves = []
    for special in (cnot, swap, sla.sqrtm(swap), cz, np.eye(4, dtype=complex)):
        for eps in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
            for _ in range(6):
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                a = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
                b = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
                leaves.append(a @ special @ b @ sla.expm(0.5j * eps * (g + g.conj().T)))
    return np.array(leaves)


def _clusters(x):
    """Cluster sizes of the wider part of the gamma spectrum of x, in
    ascending order, at the threshold of _joint_bases; "flat" below its
    spread floor."""
    m = MAGIC_DAG @ _su4(x) @ MAGIC
    g = m @ m.T
    spectra = [np.linalg.eigvalsh(part) for part in ((g + g.T).real / 2, (g + g.T).imag / 2)]
    w = max(spectra, key=lambda w: w[-1] - w[0])
    spread = w[-1] - w[0]
    if spread < 1e-13:
        return "flat"
    sizes = [1]
    for gap in np.diff(w):
        if gap < spread / 16:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def test_mixed_stack_covers_every_cluster_path():
    patterns = {_clusters(x) for x in _mixed_stack()[0]}
    assert {(1, 1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 2), "flat"} <= patterns
    assert patterns & {(3, 1), (1, 3), (4,)}


def _resolver_calls(monkeypatch) -> list:
    """Record the (2, N, d, d) stack of each call of twoqubit._joint_bases."""
    calls = []
    joint = twoqubit._joint_bases
    monkeypatch.setattr(twoqubit, "_joint_bases", lambda parts: calls.append(parts) or joint(parts))
    return calls


def _block_sizes(calls) -> list:
    return [parts.shape[-1] for parts in calls]


def test_stacked_kak_matches_the_single_matrix_kak(monkeypatch):
    """Byte for byte the single-matrix decomposition, with one resolver call
    per block size and depth, however many leaves cluster."""
    calls = _resolver_calls(monkeypatch)
    for stack in (_mixed_stack()[0], _near_special_leaves()):
        calls.clear()
        l1s, hs, l2s, phases, failed = twoqubit._kak_stack(stack)
        sizes = _block_sizes(calls)
        assert sizes[0] == 4 and 1 < len(sizes) <= 4
        assert not failed.any()
        for i, u in enumerate(stack):
            ref_l1, ref_h, ref_l2, ref_phase = _reference_kak(u)
            for ours, ref in ((l1s[i], ref_l1), (hs[i], ref_h), (l2s[i], ref_l2)):
                assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(ref).tobytes()
            assert phases[i] == ref_phase
            one = twoqubit.kak_decompose(u)
            assert one[1].tobytes() == ref_h.tobytes() and one[3] == ref_phase


# -- the per-leaf forms of the stacked steps, as they were before stacking ----


def _serial_reduce(l1, h):
    k = np.round(h / (np.pi / 2.0)).astype(int)
    l1 = l1 * 1j ** int(k.sum())
    for axis, turns in zip(twoqubit._AXES, k):
        if turns % 2:
            l1 = l1 @ axis
    return l1, h - k * (np.pi / 2.0)


def _serial_swap_axes(l1, r, l2, i, j):
    if i == j:
        return l1, r, l2
    cc = twoqubit._AXIS_SWAP[(min(i, j), max(i, j))]
    r = r.copy()
    r[[i, j]] = r[[j, i]]
    return l1 @ cc, r, cc.conj().T @ l2


_REF_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_REF_S = np.diag([1.0, 1j])
_REF_G_MERGE = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0)


def _ref_rx(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ref_rz(theta):
    return np.diag([cmath.exp(-1j * theta / 2.0), cmath.exp(1j * theta / 2.0)])


def _ref_interior(r, offset):
    """The interior gates of a leaf with coordinates r on qubits offset+1,
    offset+2: the CNOT(1,2) conjugation with its trailing CZ-CNOT pair merged
    into one CNOT, written out gate by gate apart from the layout table."""
    q1, q2 = offset + 1, offset + 2
    cx, h_2 = Cnot(q1, q2), OneQubitGate(q2, _REF_H)
    return [
        OneQubitGate(q2, _REF_G_MERGE.conj().T),
        h_2,
        cx,
        h_2,
        OneQubitGate(q1, _REF_S),
        OneQubitGate(q2, _ref_rz(-2.0 * r[2]) @ _REF_G_MERGE),
        OneQubitGate(q1, _ref_rx(2.0 * r[1])),
        h_2,
        cx,
        h_2,
        OneQubitGate(q1, _ref_rx(-2.0 * r[0])),
        cx,
    ]


def _serial_kak_frames(l1, r, l2, offset):
    """(frames, interior) of one leaf: its local tensor products, right frame
    first (L1 L2 alone when the interior is empty), and its interior gates."""
    tol = twoqubit._CLASS_TOL
    cx = Cnot(offset + 1, offset + 2)
    zero = np.abs(r) <= tol
    if zero.all():
        return [l1 @ l2], []
    if zero.sum() == 2 and abs(np.pi / 4.0 - np.max(np.abs(r))) <= tol:
        l1, r, l2 = _serial_swap_axes(l1, r, l2, int(np.argmin(zero)), 2)
        p = np.diag([1.0, -1j * np.sign(r[2])])
        l1 = l1 @ np.kron(p, p @ _REF_H)
        l2 = np.kron(np.eye(2), _REF_H) @ l2
        interior = [cx]
    elif zero.any():
        l1, r, l2 = _serial_swap_axes(l1, r, l2, 1 if zero[1] else int(np.argmax(zero)), 1)
        interior = [
            cx,
            OneQubitGate(offset + 1, _ref_rx(-2.0 * r[0])),
            OneQubitGate(offset + 2, _ref_rz(-2.0 * r[2])),
            cx,
        ]
    else:
        interior = _ref_interior(r, offset)
    return [l2, l1], interior


def _same_bytes(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_orth_bases_match_the_per_leaf_cluster_loop(monkeypatch):
    """The stacked resolver gives every leaf's basis byte for byte as the
    per-leaf recursion does."""
    stack = np.concatenate((_mixed_stack()[0], _near_special_leaves()))
    joint = twoqubit._joint_bases
    calls = _resolver_calls(monkeypatch)
    twoqubit._kak_stack(stack)
    parts = calls[0]
    ours = joint(parts.copy())
    for i in range(parts.shape[1]):
        assert _same_bytes(ours[i], _ref_joint_diagonalize(parts[0, i], parts[1, i]))


def test_stacked_reduce_and_layout_match_the_per_leaf_forms():
    stack, twisted = _mixed_stack()
    l1, h, l2, _, failed = twoqubit._kak_stack(stack)
    assert not failed.any()
    reduced = [_serial_reduce(l1[i], h[i]) for i in range(len(stack))]
    l1_r, r = twoqubit._reduce(l1, h)
    for i, (ref_l1, ref_r) in enumerate(reduced):
        assert _same_bytes(l1_r[i], ref_l1) and _same_bytes(r[i], ref_r)
    # the leaf stage zeroes the smallest coordinate of each twisted leaf
    rows = twisted.nonzero()[0]
    r[rows, np.argmin(np.abs(r[rows]), axis=1)] = 0.0
    offset = 3
    frames = [_serial_kak_frames(l1_r[i], r[i], l2[i], offset) for i in range(len(stack))]
    l1_f, r_f, l2_f = l1_r.copy(), r.copy(), l2.copy()
    cnots = twoqubit._kak_frames(l1_f, r_f, l2_f)
    assert set(cnots) == {0, 1, 2, 3}
    for i, (ref_frames, ref_interior) in enumerate(frames):
        ours = [l2_f[i], l1_f[i]] if cnots[i] else [l2_f[i]]
        assert len(ours) == len(ref_frames)
        assert all(_same_bytes(a, b) for a, b in zip(ours, ref_frames))
        # the emitted leaf: right frame, interior, left frame
        ones = [m for pair in zip(*twoqubit._tensor_split(np.array(ours))) for m in pair]
        frames = np.array(ones).reshape(-1, 1, 2, 2, 2)  # the right frame, then the left
        mats = twoqubit._class_mats(cnots[i], [r_f[i].tolist()], frames[0], frames[-1])
        gates = _from_arrays(offset + 2, twoqubit._leaf_ops(cnots[i], offset), mats[0]).gates
        frame_gates = [OneQubitGate(offset + 1 + j % 2, m) for j, m in enumerate(ones)]
        assert sum(isinstance(g, Cnot) for g in gates) == cnots[i]
        _assert_same_gates(gates, frame_gates[:2] + ref_interior + frame_gates[2:])


def test_pair_clusters_are_resolved_without_recursion(monkeypatch):
    """Every cluster of a Haar n = 8 prepare is a pair, a 2x2 block that ends
    at its eigenbasis; a cluster of three (the sqrt(SWAP) class) reaches a 3x3
    block."""
    stack = _mixed_stack()[0]
    calls = _resolver_calls(monkeypatch)
    schmidt_prepare(haar_state(8, np.random.default_rng(90)))
    assert set(_block_sizes(calls)) == {4, 2}
    calls.clear()
    twoqubit._kak_stack(stack)
    assert 3 in _block_sizes(calls)


@pytest.mark.parametrize("n", range(2, 11))
def test_phases_3_and_4_are_the_schmidt_bases_synthesized_in_place(n):
    """schmidt_prepare synthesizes both Schmidt bases in one stack, on their
    final qubits; that equals one synth_kq_unitary call per basis, shifted."""
    plan = schmidt_prepare(haar_state(n, np.random.default_rng(80 + n)))
    sf = plan.schmidt
    _assert_same_gates(plan.phase3.gates, shift(synth_kq_unitary(sf.basis_left), 0, n).gates)
    _assert_same_gates(plan.phase4.gates, shift(synth_kq_unitary(sf.basis_right), sf.k1, n).gates)


@pytest.mark.parametrize("n, leaves", [(8, 34), (12, 520), (16, 8226)])
def test_a_prepare_synthesizes_its_leaves_as_one_stack(monkeypatch, n, leaves):
    """At k1 = 4, 6 and 8, phase 1 loads the coefficients by the recursion
    (nested at k1 = 8).  Its blocks join the Schmidt bases in one
    ``_synth_blocks`` call, so the 4^(k-2) leaves of every k-qubit block of
    the plan form one stack: 16 + 16 + 2 at n = 8, 256 + 256 + 4 + 4 at
    n = 12 and 4096 + 4096 + 16 + 16 + 2 at n = 16."""
    stacks = []
    stack = synthesis._synth_leaves
    monkeypatch.setattr(synthesis, "_synth_leaves", lambda ls: stacks.append(len(ls)) or stack(ls))
    schmidt_prepare(haar_state(n, np.random.default_rng(95 + n)))
    assert stacks == [leaves]

