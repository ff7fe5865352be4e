"""Synthesis primitives: multiplexed rotations and uniformly controlled
gates, and the decomposition of k-qubit unitaries into at most
23/48*4^k - 3/2*2^k + 4/3 CNOTs.

A k-qubit unitary is the root of a cosine-sine tree (the quantum Shannon
decomposition): each node of k >= 3 qubits is split into cosine-sine factors,
each pair of factors is demultiplexed into two (k-1)-qubit nodes around a
multiplexed Rz, and the two pairs sit around a multiplexed Ry.  The tree is
built one level at a time: every node of one size, across every unitary of
the call, is factored as one stack (a stacked SVD for the split, a stacked
eigensolver for the demultiplexing), checked as one stack, and its ladder
angles come from one product.  A split or a pair whose own numbers flag it
(stacked factors that miss their residual check, or clustered eigenphases)
goes through the single-matrix ``cosine_sine`` / ``demultiplex`` instead;
its children are judged again by theirs.  The 4^(k-2) two-qubit leaves of
every unitary of the call form one stack (see ``twoqubit``): the twist
chain as a scalar recurrence over coefficients computed as one stack, then
one stacked Cartan decomposition, then stacked emission and checks.  A
prepare makes one call for every unitary of its plan, phase 1's included.  The circuit is written in its array form (see ``circuit``),
with every row on its final qubit: each ladder is a cached ops template and
its rotation stack, each leaf a slice of its class's stack, concatenated in
depth-first order.  No gate object is made.

Qubit blocks are indexed most-significant first, matching the basis-label
convention of the rest of the library.
"""

import cmath
import functools
import itertools
import math

import numpy as np

from .bounds import unitary_upper_bound
from .circuit import Circuit, Cnot, OneQubitGate, _from_arrays, _require_unitary_stack
from .errors import BadDimensionError, BadLengthError, SynthesisError
from .linalg import CONSTRUCTION_TOL, cosine_sine, require_max_dim, require_unitary, unitary_eig
from .twoqubit import _H, _Z, _Leaf, _synth_leaves


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@functools.cache
def _gray_signs(size: int) -> np.ndarray:
    """(-1)^popcount(gray(l) & i) at [i, l], read-only: it is shared."""
    signs = np.array(
        [[(-1) ** bin(_gray(l) & i).count("1") for l in range(size)] for i in range(size)],
        dtype=float,
    )
    signs.flags.writeable = False
    return signs


@functools.cache
def _h_gate(target: int) -> OneQubitGate:
    return OneQubitGate(target, _H)


def _ladder_rotations(n_z: int, angles: np.ndarray) -> np.ndarray:
    """Checked (L, size, 2, 2) rotations of L Gray-code ladders.

    Row j of ``angles`` holds the multiplexed angles of one ladder, indexed by
    the control-register basis value: an Rz ladder for j < ``n_z``, an Ry
    ladder after.  All rows come from one product with the Gray-code signs.
    """
    size = angles.shape[1]
    # invert angle_i = sum_l (-1)^popcount(gray(l) & i) phi_l, and halve
    half = angles @ _gray_signs(size) / (2 * size)
    c, s = np.cos(half), np.sin(half)
    mats = np.zeros(angles.shape + (2, 2), dtype=complex)
    mats[:n_z, :, 0, 0] = c[:n_z] - 1j * s[:n_z]
    mats[:n_z, :, 1, 1] = c[:n_z] + 1j * s[:n_z]
    mats[n_z:, :, 0, 0] = mats[n_z:, :, 1, 1] = c[n_z:]
    mats[n_z:, :, 0, 1] = -s[n_z:]
    mats[n_z:, :, 1, 0] = s[n_z:]
    _require_unitary_stack(mats.reshape(-1, 2, 2))
    return mats


@functools.cache
def _ladder_ops(controls: tuple[int, ...], target: int, cz: bool, skip_last: bool) -> np.ndarray:
    """The ops of a Gray-code ladder: each rotation, then its entangler.

    ``controls`` are ordered most-significant first.  The select line after
    rotation l is the control of the bit in which gray(l) and gray(l+1)
    differ; a CZ entangler is a CNOT between Hadamards on the target.
    ``skip_last`` drops the cycle-closing entangler (whose select line is the
    most significant control) for callers that absorb it elsewhere.  The
    array is read-only, as it is shared.
    """
    size = 1 << len(controls)
    rows = []
    for l in range(size):
        rows.append((target, 0))
        if skip_last and l == size - 1:
            break
        diff = _gray(l) ^ _gray((l + 1) % size)
        cnot = (controls[len(controls) - diff.bit_length()], target)
        rows += ((target, 0), cnot, (target, 0)) if cz else (cnot,)
    ops = np.array(rows, dtype=np.intp)
    ops.flags.writeable = False
    return ops


def _ladder_gates(
    mats: np.ndarray,
    controls: tuple[int, ...],
    target: int,
    cz: bool = False,
    skip_last: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The array form (ops, mats) of one Gray-code ladder of rotations ``mats``.

    One CNOT per rotation, 2^c in total (see :func:`_ladder_ops`); with
    ``cz``, each rotation is followed by the two Hadamards of its entangler.
    """
    if cz:
        steps = np.empty((len(mats), 3, 2, 2), dtype=complex)
        steps[:, 0] = mats
        steps[:, 1:] = _H
        mats = steps.reshape(-1, 2, 2)[: -2 if skip_last else None]
    return _ladder_ops(controls, target, cz, skip_last), mats


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
# k-qubit unitaries: the cosine-sine tree, one stacked pass per level

# Flag rule of the level pass: stacked factors that miss reconstruction or
# unitarity at CONSTRUCTION_TOL, and a demultiplexing with two eigenphases
# within _MIN_GAP (where the stacked eigenbasis is ill-conditioned), go
# through the single-matrix functions.  Each node is judged by its own
# numbers; its children are judged again by theirs.  Those functions fix the
# phases and order of their factors by other conventions, and the CNOT class
# of a structured leaf (a permutation's, a Dicke state's) depends on them.
_MIN_GAP = 1e-3


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(1, 2)


def _defect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-norm of a - b for each matrix of two stacks."""
    return np.abs(a - b).max(axis=(1, 2))


def _unitarity_defect(a: np.ndarray) -> np.ndarray:
    return _defect(_dag(a) @ a, np.eye(a.shape[1]))


def _split_level(us: np.ndarray) -> tuple:
    """:func:`cosine_sine` factors (l0, l1, theta, r0, r1) of a (N, 2m, 2m) stack.

    L0, C = cos(theta) and R0 come from one stacked SVD of the top-left
    quadrants.  L1 is U10 R0^dag with its columns normalized, S = sin(theta)
    their norms, and R1 = -S L0^dag U01 + C L1^dag U11.  A matrix whose
    factors miss their residual check is split by ``cosine_sine`` instead.
    """
    m = us.shape[1] // 2
    u00, u01, u10, u11 = us[:, :m, :m], us[:, :m, m:], us[:, m:, :m], us[:, m:, m:]
    l0, c, r0 = np.linalg.svd(u00)
    l1 = u10 @ _dag(r0)
    s = np.linalg.norm(l1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero sine gives a NaN residual
        l1 = l1 / s[:, None, :]
        r1 = c[:, :, None] * (_dag(l1) @ u11) - s[:, :, None] * (_dag(l0) @ u01)
        # the residuals of the factors as emitted, theta included
        theta = np.arctan2(s, c)
        cos, sin = np.cos(theta)[:, None, :], np.sin(theta)[:, None, :]
        residual = np.maximum.reduce(
            [
                _defect((l0 * cos) @ r0, u00),
                _defect((l1 * sin) @ r0, u10),
                _defect(-(l0 * sin) @ r1, u01),
                _defect((l1 * cos) @ r1, u11),
                _unitarity_defect(l1),
                _unitarity_defect(r1),
            ]
        )
    # "not <=": a NaN residual is flagged
    for i in (~(residual <= CONSTRUCTION_TOL)).nonzero()[0]:
        csd = cosine_sine(us[i])
        l0[i], l1[i], theta[i], r0[i], r1[i] = csd.l0, csd.l1, csd.theta, csd.r0, csd.r1
    return l0, l1, theta, r0, r1


def _demux_level(u0: np.ndarray, u1: np.ndarray) -> tuple:
    """:func:`demultiplex` factors (v, d, w) of every pair of two (N, m, m) stacks.

    The eigenbasis of u0 u1^dag comes from one stacked ``eig``, made
    orthonormal by one stacked QR.  A pair whose factors miss their residual
    check, or whose eigenphases cluster, is demultiplexed by ``demultiplex``
    instead.
    """
    eig, vecs = np.linalg.eig(u0 @ _dag(u1))
    v = np.linalg.qr(vecs).Q
    phases = np.angle(eig)
    d = np.exp(0.5j * phases)
    w = d.conj()[:, :, None] * (_dag(v) @ u0)
    # the residuals of the factors as emitted
    residual = np.maximum.reduce(
        [
            _unitarity_defect(v),
            _defect((v * d[:, None, :]) @ w, u0),
            _defect((v * d.conj()[:, None, :]) @ w, u1),
        ]
    )
    ordered = np.sort(phases, axis=1)
    gaps = np.diff(ordered, axis=1, append=ordered[:, :1] + 2.0 * math.pi)
    for i in (~(residual <= CONSTRUCTION_TOL) | (gaps.min(axis=1) < _MIN_GAP)).nonzero()[0]:
        v[i], d[i], w[i] = demultiplex(u0[i], u1[i])
    return v, d, w


def _tree_level(nodes: list, k: int, below: list) -> None:
    """Factor every k-qubit node of the tree as one stack and fill its parts.

    A node is (u, first, parts) with u on qubits first..first+k-1.
    Its parts become seven lists, in emission order: the two halves of the
    demultiplexed right factor around the ladder of their multiplexed Rz,
    the ladder of the central multiplexed Ry (its closing CZ absorbed into
    the left factor as a Z on the block's most significant qubit), and the
    same for the left factor.  A ladder is one (ops, mats) piece.  A half is
    one leaf when k = 3, and otherwise a node of ``below``, whose parts list
    it is.
    """
    us = np.array([node[0] for node in nodes], dtype=complex)
    _require_unitary_stack(us, what="k-qubit unitary")
    l0, l1, theta, r0, r1 = _split_level(us)
    l1[:, :, len(l1[0]) // 2 :] *= -1.0  # the Ry ladder's closing CZ: l1 (Z x I)
    v, d, w = _demux_level(np.concatenate((r0, l0)), np.concatenate((r1, l1)))
    count = len(nodes)
    # rows: the right Rz ladders, the left Rz ladders, then the Ry ladders
    mats = _ladder_rotations(count * 2, np.concatenate((-2.0 * np.angle(d), 2.0 * theta)))
    for i, (_, first, parts) in enumerate(nodes):
        controls = tuple(range(first + 1, first + k))
        halves = []
        for j in (i, count + i):
            for half in (w[j], v[j]):
                if k == 3:
                    halves.append([_Leaf(half, first)])
                else:
                    halves.append([])
                    below.append((half, first + 1, halves[-1]))
        parts += (
            halves[0],
            [_ladder_gates(mats[i], controls, first)],
            halves[1],
            [_ladder_gates(mats[2 * count + i], controls, first, cz=True, skip_last=True)],
            halves[2],
            [_ladder_gates(mats[count + i], controls, first)],
            halves[3],
        )


def _tree_sinks(blocks: list[tuple[np.ndarray, int]]) -> list[list]:
    """The (ops, mats) pieces and two-qubit leaves of each block, in depth-first order.

    Blocks of three or more qubits enter the cosine-sine tree, which is
    factored one level at a time: every node of one size, across all blocks,
    is one stack.  A block of one qubit is one piece of one gate and a block
    of two one leaf, with no level pass.
    """
    sinks = []
    levels: dict[int, list] = {}
    pairs = []  # the two-qubit blocks, checked as one stack
    for u, first in blocks:
        require_max_dim(len(u), what="k-qubit unitary")
        k = len(u).bit_length() - 1
        if k >= 3:
            sinks.append([])
            levels.setdefault(k, []).append((u, first, sinks[-1]))
        elif k == 2:
            pairs.append(u)
            sinks.append([_Leaf(u, first - 1)])
        else:
            require_unitary(u, what="k-qubit unitary")
            sinks.append([(np.array([[first, 0]], dtype=np.intp), u[None])])
    if pairs:
        _require_unitary_stack(np.array(pairs, dtype=complex), what="k-qubit unitary")
    top = max(levels, default=2)
    for k in range(top, 2, -1):
        _tree_level(levels[k], k, levels.setdefault(k - 1, []))
    # each node's parts are lists of items, its children's already flat
    for k in range(3, top + 1):
        for _, _, parts in levels[k]:
            parts[:] = itertools.chain.from_iterable(parts)
    return sinks


def _synth_blocks(blocks: list[tuple[np.ndarray, int]], n: int) -> list[Circuit]:
    """Circuits on n qubits for unitaries given as (u, first qubit).

    Each k-qubit u acts on qubits first..first+k-1.  The cosine-sine tree
    leaves every block's two-qubit leaves on its two least significant
    qubits; all but the first are rewritten as a two-CNOT circuit times a
    diagonal, and the diagonal is pushed back through the multiplexed-rotation
    CNOTs, whose controls sit on the leaf qubits, into the previous leaf.  The
    leaves of all blocks are synthesized as one stack.
    """
    sinks = _tree_sinks(blocks)
    leaves = []
    for sink in sinks:
        block_leaves = [item for item in sink if isinstance(item, _Leaf)]
        for prev, leaf in zip(block_leaves, block_leaves[1:]):
            leaf.twisted, leaf.prev = True, prev
        leaves.extend(reversed(block_leaves))
    if leaves:
        _synth_leaves(leaves)
    circuits = []
    for (u, _), sink in zip(blocks, sinks):
        pieces = [(item.ops, item.mats) if isinstance(item, _Leaf) else item for item in sink]
        ops, mats = (np.concatenate(arrays) for arrays in zip(*pieces))
        n_cnots = np.count_nonzero(ops[:, 1])
        ceiling = unitary_upper_bound(len(u).bit_length() - 1)
        if n_cnots > ceiling:
            raise SynthesisError(f"emitted {n_cnots} CNOTs, above the ceiling {ceiling}")
        circuits.append(_from_arrays(n, ops, mats))
    return circuits


def synth_kq_unitary(u: np.ndarray) -> Circuit:
    """Decompose a unitary on k >= 1 qubits into one-qubit gates and CNOTs.

    The cosine-sine tree leaves generic two-qubit blocks on the two least
    significant qubits; all but the first are rewritten as a diagonal times
    a two-CNOT circuit, with the diagonal commuted into the previous block.
    The emitted count never exceeds the closed-form ceiling and matches it
    exactly for generic inputs.  A unitary above ``MAX_DIM`` (k > 8) raises
    ``BadDimensionError`` before any factorization.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got {u.shape}")
    dim = u.shape[0]
    k = dim.bit_length() - 1
    if dim != 1 << k or k < 1:
        raise BadDimensionError(f"dimension {dim} is not a power of two >= 2")
    return _synth_blocks([(u, 1)], k)[0]
