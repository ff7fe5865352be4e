"""Statevector simulation for circuit verification.

Amplitude index i labels the basis state whose binary expansion, most
significant bit first, gives the values of qubits 1..n.  Gates act in place
on one state or on a stack of states held as columns, through contiguous
reshaped views that put the gate's qubits on axes of length 2.  No
2^n x 2^n gate matrices are formed.  Back-to-back one-qubit gates on a qubit
are multiplied into one pending 2x2 matrix; one-qubit gates on different
qubits commute, so only the CNOTs order the kernels.  A CNOT takes in the
pending matrices of its two qubits (identity where none) and is applied as
one 4x4 matrix product over the pair: in place for adjacent qubits, through
a transposed copy otherwise.  What is still pending when the circuit ends is
applied as stacked 2x2 products.
"""

import json

import numpy as np

from .circuit import Circuit, Cnot
from .errors import BadDimensionError, DimensionMismatchError, NotNormalizedError

NORM_TOL = 1e-8


def num_qubits(state: np.ndarray) -> int:
    dim = len(state)
    n = dim.bit_length() - 1
    if dim != 1 << n or dim < 2:
        raise BadDimensionError(f"state length {dim} is not a power of two >= 2")
    return n


def require_normalized(state: np.ndarray, tol: float = NORM_TOL) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= tol:  # also rejects a NaN norm
        raise NotNormalizedError(f"state norm {norm!r} deviates from 1 by more than {tol:.1e}")
    return state


def zero_state(n: int) -> np.ndarray:
    """|0...0> on n qubits."""
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _apply_local(state: np.ndarray, matrix: np.ndarray, first: int) -> None:
    # matrix on the qubits first, first + 1, ... (2x2 for one, 4x4 for two)
    # through an (above, local, below) view; below also holds the batch axis
    above = 1 << (first - 1)
    view = state.reshape(above, len(matrix), -1)
    # matmul loops over the stack axis, so stack along the shorter of the
    # two: the rows of a matrix @ (local, below) product, or the columns of
    # (above, local) @ matrix^T
    if view.shape[2] >= above:
        np.matmul(matrix, view, out=view)
    else:
        cols = view.transpose(2, 0, 1)
        np.matmul(cols, matrix.T, out=cols)


_I2 = np.eye(2, dtype=complex)
# CNOT as a row permutation of a 4x4 matrix on a qubit pair lo < hi, indexed
# 2 * bit(lo) + bit(hi); keyed by whether the control is lo
_CNOT_ROWS = {True: np.array([0, 1, 3, 2]), False: np.array([0, 3, 2, 1])}


def _apply_fused_cnot(state: np.ndarray, g: Cnot, m_control, m_target) -> None:
    """The CNOT after the pending products on its qubits (None: none), as one 4x4 kernel."""
    control_lo = g.control < g.target
    lo, hi = sorted((g.control, g.target))
    a, b = (m_control, m_target) if control_lo else (m_target, m_control)
    a = _I2 if a is None else a
    b = _I2 if b is None else b
    pair = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)[_CNOT_ROWS[control_lo]]
    if hi == lo + 1:  # one contiguous axis of length 4: in place, no copy
        _apply_local(state, pair, lo)
        return
    # the pair axes go first in one copy, one matrix product, and the result
    # is copied back through the same transposed view
    view = state.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1).transpose(1, 3, 0, 2, 4)
    view[...] = (pair @ view.reshape(4, -1)).reshape(view.shape)


def run(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in order to the input state.

    ``state`` is one state of shape (2^n,) or a stack of states as the
    columns of a (2^n, batch) array; every column is evolved independently.
    """
    state = np.array(state, dtype=complex, order="C")  # the kernels reshape it in place
    n = num_qubits(state)
    if n != c.n_qubits:
        raise DimensionMismatchError(
            f"circuit acts on {c.n_qubits} qubits but the state has {n}"
        )
    pending = {}  # qubit -> product of its one-qubit gates not yet applied
    for g in c.gates:
        if isinstance(g, Cnot):
            _apply_fused_cnot(state, g, pending.pop(g.control, None), pending.pop(g.target, None))
        else:
            m = pending.get(g.target)
            pending[g.target] = g.matrix if m is None else g.matrix @ m
    for q, m in pending.items():
        _apply_local(state, m, q)
    return state


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2; insensitive to the global phase of either argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) != len(b):
        raise DimensionMismatchError(f"state lengths differ: {len(a)} vs {len(b)}")
    return float(np.abs(np.vdot(a, b)) ** 2)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full matrix of the circuit, column j = action on basis state j."""
    return run(c, np.eye(1 << c.n_qubits, dtype=complex))


def state_to_json(state: np.ndarray) -> str:
    """Serialize to {"n": ..., "amplitudes": [[re, im], ...]}."""
    n = num_qubits(np.asarray(state))
    amps = [[float(a.real), float(a.imag)] for a in np.asarray(state, dtype=complex)]
    return json.dumps({"n": n, "amplitudes": amps})


def state_from_json(text: str, normalize: bool = False) -> np.ndarray:
    """Parse the StateVector JSON format; see :func:`state_to_json`.

    Rejects states whose norm deviates from 1 by more than 1e-8 unless
    ``normalize`` is set.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
        raise BadDimensionError('state JSON must be {"n": ..., "amplitudes": [...]}')
    n = data["n"]
    amps = data["amplitudes"]
    if not isinstance(n, int) or n < 1:
        raise BadDimensionError(f"bad qubit count {n!r}")
    if len(amps) != 1 << n:
        raise BadDimensionError(f"expected {1 << n} amplitudes for n={n}, got {len(amps)}")
    state = np.array([complex(re, im) for re, im in amps])
    norm = np.linalg.norm(state)
    if normalize:
        if norm == 0 or not np.isfinite(norm):
            raise NotNormalizedError(f"cannot normalize a state of norm {norm!r}")
        return state / norm
    return require_normalized(state)
