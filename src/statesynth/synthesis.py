"""Synthesis primitives: multiplexed rotations and uniformly controlled
gates, and the recursive decomposition of k-qubit unitaries into at most
23/48*4^k - 3/2*2^k + 4/3 CNOTs.

The cosine-sine recursion of a k-qubit unitary leaves 4^(k-2) two-qubit
leaves.  The leaves of every unitary handed to one call form one stack (see
``twoqubit``): the serial twist chain, then one stacked Cartan decomposition,
then stacked emission and checks.  Every gate is built on its final qubit.

Qubit blocks are indexed most-significant first, matching the basis-label
convention of the rest of the library.
"""

import cmath
import functools
import math

import numpy as np

from .bounds import unitary_upper_bound
from .circuit import (
    Circuit,
    Cnot,
    OneQubitGate,
    _rebuilt_1q,
    _require_unitary_stack,
    _rewrapped,
)
from .errors import BadDimensionError, BadLengthError, SynthesisError
from .linalg import cosine_sine, require_unitary, unitary_eig
from .twoqubit import _H, _Z, _Leaf, _rz, _synth_leaves


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_ROTATIONS = {"Y": _ry, "Z": _rz}


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@functools.cache
def _gray_signs(size: int) -> np.ndarray:
    """(-1)^popcount(gray(l) & i) at [i, l], read-only: it is shared."""
    signs = np.array(
        [[(-1) ** bin(_gray(l) & i).count("1") for l in range(size)] for i in range(size)]
    )
    signs.flags.writeable = False
    return signs


@functools.cache
def _h_gate(target: int) -> OneQubitGate:
    return OneQubitGate(target, _H)


def _ucr_gates(
    axis: str,
    angles: np.ndarray,
    controls: list[int],
    target: int,
    entangler: str = "cx",
    skip_last: bool = False,
) -> list:
    """Gray-code ladder for a rotation multiplexed over the control register.

    ``controls`` are ordered most-significant first; angle index j is the
    control-register basis value.  One CNOT per rotation, 2^c in total;
    ``skip_last`` drops the cycle-closing entangler (whose select line is the
    most significant control) for callers that absorb it elsewhere.
    """
    size = len(angles)
    c = len(controls)
    if size != 1 << c:
        raise BadLengthError(f"need {1 << c} angles for {c} controls, got {size}")
    rot = _ROTATIONS[axis]
    if c == 0:
        return [OneQubitGate(target, rot(float(angles[0])))]
    # invert angle_i = sum_l (-1)^popcount(gray(l) & i) phi_l
    phis = _gray_signs(size).T @ np.asarray(angles, dtype=float) / size
    mats = [rot(phi) for phi in phis.tolist()]
    _require_unitary_stack(np.array(mats))
    gates = []
    for l in range(size):
        gates.append(_rebuilt_1q(target, mats[l]))
        if skip_last and l == size - 1:
            break
        diff = _gray(l) ^ _gray((l + 1) % size)
        select = controls[c - diff.bit_length()]
        if entangler == "cx":
            gates.append(Cnot(select, target))
        else:  # cz, symmetric; one CNOT plus basis changes on the target
            gates.append(_h_gate(target))
            gates.append(Cnot(select, target))
            gates.append(_h_gate(target))
    return gates


def demultiplex(u0: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors (v, d, w) with u0 = V diag(d) W and u1 = V diag(d)^dag W.

    d is the principal square root of the eigenvalues of u0 u1^dag, so the
    output is deterministic.
    """
    u0 = require_unitary(np.asarray(u0, dtype=complex), what="demultiplex u0")
    u1 = require_unitary(np.asarray(u1, dtype=complex), what="demultiplex u1")
    if u0.shape != u1.shape:
        raise BadDimensionError(f"shape mismatch: {u0.shape} vs {u1.shape}")
    eig, v = unitary_eig(u0 @ u1.conj().T)
    d = np.exp(1j * np.angle(eig) / 2.0)
    w = d.conj()[:, None] * (v.conj().T @ u0)
    return v, d, w


# ---------------------------------------------------------------------------
# uniformly controlled SU(2) gates, implemented up to a diagonal


def _demux_standardized(a: np.ndarray, b: np.ndarray):
    """Split the pair (a, b) as a = vw, b = D1 v Z w with diagonal D1.

    The right twist D1 = diag(e^{i q1}, e^{i q2}) is chosen so that
    y = (a b^dag) D1 is Hermitian, unitary and traceless; its eigenbasis v
    then satisfies v Z v^dag = y, leaving exactly one CZ between v and w.
    """
    x = a @ b.conj().T
    q1 = -cmath.phase(x[0, 0])
    q2 = math.pi - cmath.phase(np.linalg.det(x)) + cmath.phase(x[0, 0])
    d1 = np.array([cmath.exp(1j * q1), cmath.exp(1j * q2)])
    y = x @ np.diag(d1)
    y = (y + y.conj().T) / 2.0
    _, vecs = np.linalg.eigh(y)  # eigenvalues ascend: (-1, +1)
    v = vecs[:, ::-1]
    w = _Z @ v.conj().T @ np.diag(d1.conj()) @ b
    return v, w, d1


def uc_su2_up_to_diagonal(
    mats: list[np.ndarray], controls: list[int], target: int
) -> tuple[list, np.ndarray]:
    """Uniformly controlled one-qubit gate, up to a diagonal, 2^c - 1 CNOTs.

    Applies mats[j] to the target when the control register (most significant
    control first) holds j.  Returns (gates, delta) where delta is a diagonal
    over (controls, target), indexed controls-major, such that

        multiplexor == diag(delta) @ circuit(gates).
    """
    if len(mats) != 1 << len(controls):
        raise BadLengthError(f"need {1 << len(controls)} gates, got {len(mats)}")
    if not controls:
        return [OneQubitGate(target, mats[0])], np.ones(2, dtype=complex)
    half = len(mats) // 2
    v_list, w_list, twists = [], [], []
    for j in range(half):
        v, w, d1 = _demux_standardized(mats[j], mats[j + half])
        v_list.append(v)
        w_list.append(w)
        twists.append(d1)
    rest = controls[1:]
    w_gates, w_delta = uc_su2_up_to_diagonal(w_list, rest, target)
    # fold the w-side diagonal into the v gates before recursing on them
    v_list = [v_list[j] @ np.diag(w_delta[2 * j : 2 * j + 2]) for j in range(half)]
    v_gates, v_delta = uc_su2_up_to_diagonal(v_list, rest, target)
    gates = list(w_gates)
    gates.append(_h_gate(target))
    gates.append(Cnot(controls[0], target))
    gates.append(_h_gate(target))
    gates.extend(v_gates)
    delta = np.empty(2 * len(mats), dtype=complex)
    delta[: 2 * half] = v_delta
    for j in range(half):
        delta[2 * (half + j) : 2 * (half + j) + 2] = twists[j] * v_delta[2 * j : 2 * j + 2]
    return gates, delta


# ---------------------------------------------------------------------------
# k-qubit unitaries: cosine-sine recursion with both CNOT-saving merges


def _qsd(u: np.ndarray, qubits: list[int], sink: list) -> None:
    if len(qubits) == 2:
        sink.append(_Leaf(u, qubits[0] - 1))
        return
    csd = cosine_sine(u)
    _qsd_demux(csd.r0, csd.r1, qubits, sink)
    # central multiplexed Ry; its closing CZ is absorbed into the left block
    sink.extend(
        _ucr_gates(
            "Y", 2.0 * csd.theta, qubits[1:], qubits[0], entangler="cz", skip_last=True
        )
    )
    half = len(csd.l1) // 2
    z_on_msb = np.concatenate([np.ones(half), -np.ones(half)])
    _qsd_demux(csd.l0, csd.l1 * z_on_msb[None, :], qubits, sink)


def _qsd_demux(u0: np.ndarray, u1: np.ndarray, qubits: list[int], sink: list) -> None:
    v, d, w = demultiplex(u0, u1)
    _qsd(w, qubits[1:], sink)
    sink.extend(_ucr_gates("Z", -2.0 * np.angle(d), qubits[1:], qubits[0]))
    _qsd(v, qubits[1:], sink)


def _synth_blocks(blocks: list[tuple[np.ndarray, int]], n: int) -> list[Circuit]:
    """Circuits on n qubits for unitaries given as (u, first qubit).

    Each k-qubit u acts on qubits first..first+k-1.  The cosine-sine recursion
    leaves every block's two-qubit leaves on its two least significant qubits;
    all but the first are rewritten as a two-CNOT circuit times a diagonal,
    and the diagonal is pushed back through the multiplexed-rotation CNOTs,
    whose controls sit on the leaf qubits, into the previous leaf.  The leaves
    of all blocks are synthesized as one stack.
    """
    sinks, leaves = [], []
    for u, first in blocks:
        k = len(u).bit_length() - 1
        require_unitary(u, what="k-qubit unitary")
        sink: list = []
        if k == 1:
            sink.append(OneQubitGate(first, u))
        else:
            _qsd(u, list(range(first, first + k)), sink)
        block_leaves = [item for item in sink if isinstance(item, _Leaf)]
        for prev, leaf in zip(block_leaves, block_leaves[1:]):
            leaf.twisted, leaf.prev = True, prev
        leaves.extend(reversed(block_leaves))
        sinks.append(sink)
    if leaves:
        _synth_leaves(leaves)
    circuits = []
    for (u, _), sink in zip(blocks, sinks):
        gates = []
        for item in sink:
            if isinstance(item, _Leaf):
                gates.extend(item.gates)
            else:
                gates.append(item)
        n_cnots = sum(1 for g in gates if isinstance(g, Cnot))
        ceiling = unitary_upper_bound(len(u).bit_length() - 1)
        if n_cnots > ceiling:
            raise SynthesisError(f"emitted {n_cnots} CNOTs, above the ceiling {ceiling}")
        circuits.append(_rewrapped(n, tuple(gates)))
    return circuits


def synth_kq_unitary(u: np.ndarray) -> Circuit:
    """Decompose a unitary on k >= 1 qubits into one-qubit gates and CNOTs.

    The cosine-sine recursion leaves generic two-qubit blocks on the two
    least significant qubits; all but the first are rewritten as a diagonal
    times a two-CNOT circuit, with the diagonal commuted into the previous
    block.  The emitted count never exceeds the closed-form ceiling and
    matches it exactly for generic inputs.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got {u.shape}")
    dim = u.shape[0]
    k = dim.bit_length() - 1
    if dim != 1 << k or k < 1:
        raise BadDimensionError(f"dimension {dim} is not a power of two >= 2")
    return _synth_blocks([(u, 1)], k)[0]
