"""Statevector simulation for circuit verification.

Amplitude index i labels the basis state whose binary expansion, most
significant bit first, gives the values of qubits 1..n.  Gates act in place
on one state or on a stack of states held as columns, through contiguous
reshaped views that put the gate's qubits on axes of length 2: a one-qubit
gate is one stacked 2x2 matrix product, a CNOT swaps two slices.  No
2^n x 2^n gate matrices are formed.  Back-to-back one-qubit gates on a qubit
are multiplied into one 2x2 matrix first, which is applied when a CNOT
touches that qubit or the circuit ends; one-qubit gates on different qubits
commute, so only the CNOTs order the kernels.
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


def _apply_1q(state: np.ndarray, matrix: np.ndarray, target: int) -> None:
    # (above, target, below) view; below also holds the batch axis
    above = 1 << (target - 1)
    view = state.reshape(above, 2, -1)
    # matmul loops over the stack axis, so stack along the shorter of the
    # two: the rows of a 2x2 @ (2, below) product, or the columns of
    # (above, 2) @ 2x2^T
    if view.shape[2] >= above:
        np.matmul(matrix, view, out=view)
    else:
        cols = view.transpose(2, 0, 1)
        np.matmul(cols, matrix.T, out=cols)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> None:
    lo, hi = sorted((control, target))
    view = state.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1)
    # swap the target-0 and target-1 halves of the control-1 slab
    if control < target:
        slab = view[:, 1]
        slab[...] = slab[:, :, ::-1]
    else:
        slab = view[:, :, :, 1]
        slab[...] = slab[:, ::-1]


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
            for q in (g.control, g.target):
                m = pending.pop(q, None)
                if m is not None:
                    _apply_1q(state, m, q)
            _apply_cnot(state, g.control, g.target)
        else:
            m = pending.get(g.target)
            pending[g.target] = g.matrix if m is None else g.matrix @ m
    for q, m in pending.items():
        _apply_1q(state, m, q)
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
