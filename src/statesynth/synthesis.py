"""Synthesis primitives: multiplexed rotations and uniformly controlled
gates, and the recursive decomposition of k-qubit unitaries into at most
23/48*4^k - 3/2*2^k + 4/3 CNOTs.

Qubit blocks are indexed most-significant first, matching the basis-label
convention of the rest of the library.
"""

import cmath
import functools
import math

import numpy as np

from .bounds import unitary_upper_bound
from .circuit import Circuit, Cnot, OneQubitGate, _shifted_gates
from .errors import BadDimensionError, BadLengthError, SynthesisError
from .linalg import cosine_sine, require_unitary, unitary_eig
from .twoqubit import (
    _H,
    _Z,
    _rz,
    synth_2q_unitary,
    two_qubit_up_to_diagonal,
)


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
    gates = []
    for l in range(size):
        gates.append(OneQubitGate(target, rot(float(phis[l]))))
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


class _Leaf:
    """Pending two-qubit block on the two least significant qubits."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def _qsd(u: np.ndarray, qubits: list[int], sink: list) -> None:
    if len(qubits) == 2:
        sink.append(_Leaf(u))
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


def _qsd_gates(u: np.ndarray, k: int) -> list:
    sink: list = []
    _qsd(u, list(range(1, k + 1)), sink)
    leaf_positions = [i for i, item in enumerate(sink) if isinstance(item, _Leaf)]
    # rewrite every block after the first as (<=2-CNOT circuit) * diagonal and
    # push the diagonal back through the multiplexed-rotation CNOTs, whose
    # controls sit on the block qubits, into the previous block
    for pos in reversed(leaf_positions[1:]):
        circ, delta = two_qubit_up_to_diagonal(sink[pos].matrix)
        prev = max(p for p in leaf_positions if p < pos)
        sink[prev].matrix = np.diag(delta) @ sink[prev].matrix
        sink[pos] = circ
    sink[leaf_positions[0]] = synth_2q_unitary(sink[leaf_positions[0]].matrix)
    # one pass re-embeds every leaf on qubits k-1, k
    gates = []
    for item in sink:
        if isinstance(item, Circuit):
            gates.extend(_shifted_gates(item.gates, k - 2))
        else:
            gates.append(item)
    return gates


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
    require_unitary(u, what="k-qubit unitary")
    if k == 1:
        return Circuit(1, (OneQubitGate(1, u),))
    if k == 2:
        return synth_2q_unitary(u)
    gates = _qsd_gates(u, k)
    n_cnots = sum(1 for g in gates if isinstance(g, Cnot))
    if n_cnots > unitary_upper_bound(k):
        raise SynthesisError(
            f"emitted {n_cnots} CNOTs, above the ceiling {unitary_upper_bound(k)}"
        )
    return Circuit(k, tuple(gates))
