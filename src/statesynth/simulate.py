"""Statevector simulation for circuit verification.

Amplitude index i labels the basis state whose binary expansion, most
significant bit first, gives the values of qubits 1..n.  Gates act on one
state or on a stack of states held as columns, through reshaped views that
put the gate's qubits on axes of length 2.  No 2^n x 2^n gate matrices are
formed.

``run`` works in two passes.  The first is the fold that lives in
``circuit`` (``_fold``): it multiplies back-to-back one-qubit gates on a
qubit into one pending 2x2 matrix; one-qubit gates on different qubits
commute, so only the CNOTs order the kernels.  Each CNOT takes in the
pending matrices of its two qubits (identity where none).  A circuit that
was folded when it was made (``circuit._folded``, as the preparation
pipeline's ``total`` is) carries this pass's result, and ``run`` takes it
as is.  The second pass builds every CNOT's 4x4 kernel at once, as one
stacked Kronecker product with the CNOT's row permutation.  It then groups
the kernels into windows: maximal runs of consecutive kernels that together
touch at most three qubits (a window on two qubits is widened by a
neighbouring third).  Each kernel is gathered into its window's 8x8 through
fixed index tables, and the windows are multiplied out in lockstep, longest
first: round r multiplies every window's r-th kernel into its product, one
stacked product per round, with no padding.  Each window's product is
applied once, in circuit order: in place when its three qubits are
adjacent, through a transposed copy otherwise.  What is still pending when
the circuit ends is applied as 2x2 products.

The window build has a fixed cost that a short circuit or a small state
does not repay.  When the amplitude count (2^n times the columns) times the
CNOT count is below ``_WINDOW_MIN_WORK``, or n < 3, the kernels are applied
one per CNOT instead, over their pairs, in the same way.  The same rule
(``_windowed``) picks the pass of the fold: its stacked pass on the window
path, its row walk below the bound.  Both read the circuit's array form
(see ``circuit``) and no gate object, and give the same products, bit for
bit.
"""

import json

import numpy as np

from .circuit import Circuit, _fold
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


# how a matrix acts on its view: matrix @ view, view @ matrix^T, or through
# a copy with the matrix's qubit axes first
_LEFT, _RIGHT, _COPY = range(3)
# the axes of a copy view on k qubits, (rest, 2, rest, 2, ..., rest), with the 2s first
_QUBIT_AXES_FIRST = {k: (*range(1, 2 * k, 2), *range(0, 2 * k + 1, 2)) for k in (2, 3)}
# a window holds consecutive kernels that together touch at most this many qubits
_WINDOW_QUBITS = 3
# the per-kernel loop's work grows with the amplitudes (2^n x columns) times
# the CNOTs; below this product, building the windows costs more than the
# matrix products they save (measured: a prepared 7-qubit circuit, 127 CNOTs
# on one state, is near the crossover; short circuits on wide states and
# small stacks are below it)
_WINDOW_MIN_WORK = 1 << 15


def _windowed(n: int, amplitudes: int, cnots: int) -> bool:
    """Whether ``run`` on ``amplitudes`` (2^n times the columns) takes the window path.

    The same rule picks the stacked pass of the fold (see ``circuit._fold``),
    whose fixed cost pays where the window build's does.
    """
    return n >= _WINDOW_QUBITS and amplitudes * cnots >= _WINDOW_MIN_WORK


def _kernel_index() -> np.ndarray:
    """Where each entry of a CNOT's 4x4 kernel comes from in its Kronecker product.

    A kernel acts on its qubit pair lo < hi, indexed 2 * bit(lo) + bit(hi):
    the CNOT's row permutation of the products pending on lo and hi.  Row
    ``flip`` (0 for a control on lo, 1 on hi) holds, for each of its 16
    entries, the flat index of the entry it takes in the Kronecker product
    of the products pending on the control and the target, control first.
    """
    kron = np.arange(16).reshape(4, 4)
    swap = [0, 2, 1, 3]  # 2 * bit(lo) + bit(hi) <-> 2 * bit(hi) + bit(lo)
    return np.stack([kron[[0, 1, 3, 2]], kron[swap][:, swap][[0, 3, 2, 1]]]).reshape(2, 16)


def _embed_tables() -> np.ndarray:
    """Where each entry of a window's 8x8 comes from, for each kernel placement.

    A window on qubits a < b < c indexes its 8x8 as 4 * bit(a) + 2 * bit(b) +
    bit(c).  Table 3 * flip + p, for a kernel on window positions (0, 1),
    (0, 2) or (1, 2) whose control is the lower (flip 0) or the higher
    (flip 1) of its qubits, holds for each entry the flat index (0..15) of
    the entry it takes in the kernel's Kronecker product (see
    :func:`_kernel_index`), or 16 (a zero) where the third qubit's bit
    changes.
    """
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # bit of each position
    tables = np.empty((2, 3, 8, 8), dtype=np.intp)
    for p, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        pair = 2 * bits[:, i] + bits[:, j]
        other = bits[:, 3 - i - j]
        entry = 4 * pair[:, None] + pair
        for flip in (0, 1):
            tables[flip, p] = np.where(other[:, None] == other, _KERNEL_INDEX[flip][entry], 16)
    return tables.reshape(6, 8, 8)


_KERNEL_INDEX = _kernel_index()
_EMBED = _embed_tables()


def _krons(factors: np.ndarray) -> np.ndarray:
    """The (K, 16) Kronecker products, control first, of the (2K, 2, 2)
    products pending on the control and the target of each of K CNOTs.

    ``factors`` is not written to: it may be the fold a folded circuit
    carries, which every run of that circuit reads.
    """
    f = factors.reshape(-1, 2, 2, 2)
    return (f[:, 0, :, None, :, None] * f[:, 1, None, :, None, :]).reshape(-1, 16)


def _cnot_kernels(flip: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The (K, 4, 4) kernels of K CNOTs, each after the pending products on its qubits.

    ``flip`` marks each CNOT whose control is the higher qubit; ``factors``
    is as :func:`_krons` takes it.
    """
    kron = _krons(factors)
    return kron[np.arange(len(kron))[:, None], _KERNEL_INDEX[flip.astype(int)]].reshape(-1, 4, 4)


def _windows(pairs: np.ndarray, n: int) -> tuple:
    """Split the CNOTs into windows, maximal runs on at most three qubits.

    ``pairs`` holds the (control, target) of each CNOT, as a (K, 2) array or
    a list of pairs.  Returns the index of each window's first CNOT and the
    three qubits, in ascending order, each window's product acts on.  A
    window on two qubits is widened by a third, one that makes the three
    adjacent where possible.
    """
    starts, masks, mask = [0], [], 0
    for i, bits in enumerate(np.left_shift(1, np.asarray(pairs)).sum(axis=1).tolist()):
        grown = mask | bits
        if grown.bit_count() > _WINDOW_QUBITS:
            starts.append(i)
            masks.append(mask)
            grown = bits
        mask = grown
    masks.append(mask)
    triples = {}
    for mask in set(masks):
        qubits = [q for q in range(1, n + 1) if mask >> q & 1]
        if len(qubits) == 2:
            a, b = qubits
            qubits.append(a + 1 if b > a + 1 else a - 1 if a > 1 else b + 1)
        triples[mask] = tuple(sorted(qubits))
    return starts, [triples[mask] for mask in masks]


def _window_products(pairs: np.ndarray, factors: np.ndarray, n: int) -> tuple:
    """The (W, 8, 8) products of the W windows of the CNOTs, and their qubits.

    ``pairs`` holds the (control, target) of each CNOT, as a (K, 2) array,
    and ``factors`` the products pending on them, as :func:`_cnot_kernels`
    takes them.

    Every kernel is placed in its window's 8x8 by a gather through the
    ``_EMBED`` tables, which also apply the CNOT.  The windows are
    multiplied out in lockstep, longest first: round r multiplies the r-th
    kernel of every window longer than r into that window's product, so the
    windows still open are a prefix and each round is one gather and one
    stacked product.  No factor is padded.  Beyond the products, a round
    holds its gathered kernels and their product with the prefix, each at
    most the size of the products.
    """
    starts, triples = _windows(pairs, n)
    k = len(pairs)
    kernels = np.zeros((k, 17), dtype=complex)  # 16 entries, then a zero
    kernels[:, :16] = _krons(factors)
    # each kernel's table: its qubits' positions in its window's triple, and
    # whether its control is the higher qubit
    lengths = np.diff([*starts, k])
    window = np.array(triples)[np.repeat(np.arange(len(starts)), lengths)]
    place = (pairs.min(1) > window[:, 0]).astype(np.intp) + (pairs.max(1) > window[:, 1])
    table = place + 3 * (pairs[:, 0] > pairs[:, 1])
    order = np.argsort(lengths, kind="stable")[::-1]  # longest first
    first = np.array(starts)[order]
    # the number of windows longer than r, for each round r
    opened = len(order) - np.searchsorted(lengths[order[::-1]], np.arange(lengths.max()), "right")
    flat = kernels.reshape(-1)
    for r, count in enumerate(opened.tolist()):
        kernel = first[:count] + r
        stack = flat[_EMBED[table[kernel]] + 17 * kernel[:, None, None]]
        if r == 0:
            products = stack
        else:
            products[:count] = stack @ products[:count]
    return products[np.argsort(order)], triples


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


def _view(state: np.ndarray, qubits: list) -> tuple:
    """The view of the state a matrix on the ascending qubits acts on, and its side."""
    k = len(qubits)
    if qubits[-1] - qubits[0] == k - 1:  # one contiguous axis: in place
        return _local_view(state, qubits[0], 1 << k)
    # not adjacent: the matrix's qubit axes go first in a copy
    shape = [1 << (qubits[0] - 1)]
    for prev, q in zip(qubits, qubits[1:]):
        shape += (2, 1 << (q - prev - 1))
    return state.reshape(*shape, 2, -1).transpose(_QUBIT_AXES_FIRST[k]), _COPY


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
    ops, mats = c._arrays
    windowed = _windowed(n, state.size, np.count_nonzero(ops[:, 1]))
    # pass 1: fold the one-qubit gates into the products pending on each
    # CNOT's two qubits, and the trailing ones, unless a folded circuit
    # carries them; pass 2: one product per window of CNOTs or, below the
    # work bound, one kernel per CNOT, all built at once
    pairs, factors, _, pending = c.__dict__.get("_pass1") or _fold(ops, mats, n, windowed)
    if windowed:
        matrices, qubits = _window_products(pairs, factors, n)
    else:
        matrices = _cnot_kernels(pairs[:, 0] > pairs[:, 1], factors)
        qubits = list(map(tuple, pairs.tolist()))
    # applied in circuit order, then what is still pending, as 2x2 products
    # on one qubit each
    steps = [*zip(matrices, qubits), *((m, (q,)) for q, m in pending)]
    views = {q: _view(state, sorted(q)) for q in {q for _, q in steps}}
    for m, q in steps:
        view, side = views[q]
        if side == _LEFT:
            np.matmul(m, view, out=view)
        elif side == _RIGHT:
            np.matmul(view, m.T, out=view)
        else:
            view[...] = (m @ view.reshape(len(m), -1)).reshape(view.shape)
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
    # checked before 1 << n is formed, which a huge n could not allocate
    if type(n) is not int or not 1 <= n <= len(amps).bit_length():
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
