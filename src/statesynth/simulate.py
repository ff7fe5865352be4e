"""Statevector simulation for circuit verification.

Amplitude index i labels the basis state whose binary expansion, most
significant bit first, gives the values of qubits 1..n.  Gates act on one
state or on a stack of states held as columns, through reshaped views that
put the gate's qubits on axes of length 2.  No 2^n x 2^n gate matrices are
formed.

``run`` works in two passes.  The first, in Python, walks the gates and
multiplies back-to-back one-qubit gates on a qubit into one pending 2x2
matrix; one-qubit gates on different qubits commute, so only the CNOTs order
the kernels.  Each CNOT takes in the pending matrices of its two qubits
(identity where none) and is recorded with them.  The second pass builds
every CNOT's 4x4 kernel at once, as one stacked Kronecker product with the
CNOT's row permutation, and applies them in circuit order, each as one
matrix product over its pair: in place for adjacent qubits, through a
transposed copy otherwise.  What is still pending when the circuit ends is
applied as 2x2 products.
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


_I2 = np.eye(2, dtype=complex)
# CNOT as a row permutation of a 4x4 matrix on a qubit pair lo < hi, indexed
# 2 * bit(lo) + bit(hi); row 0 for a control on lo, row 1 for a control on hi
_CNOT_ROWS = np.array([[0, 1, 3, 2], [0, 3, 2, 1]])
# how a kernel acts on its pair view: kernel @ view, view @ kernel^T, or
# through a copy with the pair axes first
_LEFT, _RIGHT, _COPY = range(3)


def _cnot_kernels(cnots: list, factors: list) -> np.ndarray:
    """The (K, 4, 4) kernels of K CNOTs, each after the pending products on its qubits.

    ``cnots`` holds the (control, target) pairs; ``factors`` holds, flat,
    the products pending on the control and on the target of each.
    """
    f = np.array(factors).reshape(-1, 2, 2, 2)
    flip = np.array([c > t for c, t in cnots], dtype=bool)  # the control is the higher qubit
    f[flip] = f[flip, ::-1]  # now the products on lo, hi
    kron = (f[:, 0, :, None, :, None] * f[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    return kron[np.arange(len(kron))[:, None], _CNOT_ROWS[flip.astype(int)]]


def _local_view(state: np.ndarray, first: int, size: int) -> tuple:
    """The in-place view for a size x size matrix on qubits first, first + 1, ..., and its side."""
    # an (above, size, below) view, below also holding the batch axis;
    # matmul loops over the stack axis, so stack along the shorter of the
    # two: the rows of a matrix @ (size, below) product, or the columns of
    # (above, size) @ matrix^T; a stack axis of length 1 is dropped
    above = 1 << (first - 1)
    view = state.reshape(above, size, -1)
    if view.shape[2] >= above:
        return (view[0] if above == 1 else view), _LEFT
    cols = view.transpose(2, 0, 1)
    return (cols[0] if len(cols) == 1 else cols), _RIGHT


def _pair_view(state: np.ndarray, a: int, b: int) -> tuple:
    """The view of the state a 4x4 kernel on qubits a, b acts on, and its side."""
    lo, hi = sorted((a, b))
    if hi == lo + 1:  # one contiguous axis of length 4: in place
        return _local_view(state, lo, 4)
    # not adjacent: the pair axes go first in a copy
    view = state.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1).transpose(1, 3, 0, 2, 4)
    return view, _COPY


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
    # pass 1: fold the one-qubit gates into pending products, which each CNOT
    # takes in from its two qubits
    pending = {}  # qubit -> product of its one-qubit gates not yet applied
    cnots = []  # (control, target) of each CNOT
    factors = []  # the products pending on its control and target, flat
    for g in c.gates:
        if isinstance(g, Cnot):
            cnots.append((g.control, g.target))
            factors += (pending.pop(g.control, _I2), pending.pop(g.target, _I2))
        else:
            m = pending.get(g.target)
            pending[g.target] = g.matrix if m is None else g.matrix @ m
    # pass 2: every kernel at once, then applied in circuit order
    views = {pair: _pair_view(state, *pair) for pair in set(cnots)}
    for kernel, pair in zip(_cnot_kernels(cnots, factors), cnots):
        view, side = views[pair]
        if side == _LEFT:
            np.matmul(kernel, view, out=view)
        elif side == _RIGHT:
            np.matmul(view, kernel.T, out=view)
        else:
            view[...] = (kernel @ view.reshape(4, -1)).reshape(view.shape)
    for q, m in pending.items():
        view, side = _local_view(state, q, 2)
        if side == _LEFT:
            np.matmul(m, view, out=view)
        else:
            np.matmul(view, m.T, out=view)
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
