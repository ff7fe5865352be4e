"""Statevector simulation for circuit verification.

Amplitude index i labels the basis state whose binary expansion, most
significant bit first, gives the values of qubits 1..n.  Gates act on one
state or on a stack of states held as columns, through reshaped views that
put the gate's qubits on axes of length 2.  No 2^n x 2^n gate matrices are
formed.

``run`` works in two passes.  The first multiplies back-to-back one-qubit
gates on a qubit into one pending 2x2 matrix; one-qubit gates on different
qubits commute, so only the CNOTs order the kernels.  Each CNOT takes in the
pending matrices of its two qubits (identity where none).  The second pass
builds every CNOT's 4x4 kernel at once, as one stacked Kronecker product with
the CNOT's row permutation.  It then groups the kernels into windows: maximal
runs of consecutive kernels that together touch at most three qubits (a
window on two qubits is widened by a neighbouring third).  Each kernel is
gathered into its window's 8x8 through fixed index tables, the windows are
multiplied out as stacks, grouped by length rounded up to a power of two,
padded with identities and reduced pairwise, and each window's product is
applied once, in circuit order: in place when its three qubits are adjacent,
through a transposed copy otherwise.  What is still pending when the circuit
ends is applied as 2x2 products.

The window build has a fixed cost that a short circuit or a small state
does not repay.  When the amplitude count (2^n times the columns) times the
CNOT count is below ``_WINDOW_MIN_WORK``, or n < 3, the kernels are applied
one per CNOT instead, over their pairs, in the same way.  The same test
picks the first pass; both read the circuit's array form (see ``circuit``)
and no gate object.  On the window path one sort assigns every one-qubit
gate to the CNOT side or trailing slot it feeds, and the runs are multiplied
out by rank as stacked 2x2 products; below the bound, where that fixed cost
would not be repaid either, the rows are walked in order.  Both give the
same products, bit for bit.
"""

import json

import numpy as np

from .circuit import Circuit
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


def _embed_tables() -> np.ndarray:
    """Where each entry of a window's 8x8 comes from, for each kernel placement.

    A window on qubits a < b < c indexes its 8x8 as 4 * bit(a) + 2 * bit(b) +
    bit(c).  Table p, for the kernel on window positions (0, 1), (0, 2) or
    (1, 2), holds for each entry the flat index (0..15) of the 4x4 kernel
    entry it takes, or 16 (a zero) where the third qubit's bit changes; table
    3 is the identity, 17 (a one) on the diagonal.
    """
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # bit of each position
    tables = np.full((4, 8, 8), 16, dtype=np.int8)
    for p, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        pair = 2 * bits[:, i] + bits[:, j]
        other = bits[:, 3 - i - j]
        tables[p] = np.where(other[:, None] == other, 4 * pair[:, None] + pair, 16)
    tables[3] = np.where(np.eye(8, dtype=bool), 17, 16)
    return tables


_EMBED = _embed_tables()
# the most 8x8 factors one stack of the window build holds, 256 KB, which
# bounds the memory the build takes beyond the kernels themselves
_STACK_SLOTS = 256


def _cnot_kernels(flip: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The (K, 4, 4) kernels of K CNOTs, each after the pending products on its qubits.

    ``flip`` marks each CNOT whose control is the higher qubit; ``factors``,
    a (2K, 2, 2) array, holds the products pending on the control and on the
    target of each, and is reordered in place.
    """
    f = factors.reshape(-1, 2, 2, 2)
    f[flip] = f[flip, ::-1]  # now the products on lo, hi
    kron = (f[:, 0, :, None, :, None] * f[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    return kron[np.arange(len(kron))[:, None], _CNOT_ROWS[flip.astype(int)]]


def _windows(cnots: list, n: int) -> tuple:
    """Split the CNOTs into windows, maximal runs on at most three qubits.

    Returns the index of each window's first CNOT and the three qubits, in
    ascending order, each window's product acts on.  A window on two qubits
    is widened by a third, one that makes the three adjacent where possible.
    """
    starts, masks, mask = [0], [], 0
    for i, (c, t) in enumerate(cnots):
        grown = mask | (1 << c) | (1 << t)
        if grown.bit_count() > _WINDOW_QUBITS:
            starts.append(i)
            masks.append(mask)
            grown = (1 << c) | (1 << t)
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

    Every kernel is placed in its window's 8x8 by one gather through the
    ``_EMBED`` tables.  Windows of up to 2^r kernels are multiplied as
    stacks of at most ``_STACK_SLOTS`` factors, padded at the front with
    identities to 2^r factors each and reduced pairwise in r rounds.
    """
    starts, triples = _windows(pairs.tolist(), n)
    k = len(pairs)  # kernel k, the last, is the identity that pads the stacks
    kernels = np.zeros((k + 1, 18), dtype=complex)  # 16 entries, then a zero and a one
    kernels[:k, :16] = _cnot_kernels(pairs[:, 0] > pairs[:, 1], factors).reshape(-1, 16)
    kernels[:, 17] = 1.0
    # each kernel's placement: its qubits' positions in its window's triple
    lengths = np.diff([*starts, k])
    window = np.array(triples)[np.repeat(np.arange(len(starts)), lengths)]
    place = np.full(k + 1, 3)
    place[:k] = (pairs.min(1) > window[:, 0]).astype(np.intp) + (pairs.max(1) > window[:, 1])
    products = np.empty((len(starts), 8, 8), dtype=complex)
    rounds = np.frexp(lengths - 1)[1]  # ceil(log2(length))
    starts = np.array(starts)
    for r in set(rounds.tolist()):
        ids = np.flatnonzero(rounds == r)
        slot = np.arange(1 << r) - ((1 << r) - lengths[ids, None])  # < 0: padding
        kernel = np.where(slot < 0, k, starts[ids, None] + slot)
        tables = _EMBED[place[kernel]]
        step = max(1, _STACK_SLOTS >> r)
        for i in range(0, len(ids), step):
            stack = kernels[kernel[i : i + step, :, None, None], tables[i : i + step]]
            while stack.shape[1] > 1:
                stack = stack[:, 1::2] @ stack[:, ::2]
            products[ids[i : i + step]] = stack[:, 0]
    return products, triples


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


def _fold_gates(ops: np.ndarray, mats: np.ndarray) -> tuple:
    """Pass 1 as a walk over the rows of the circuit's array form.

    Returns the (control, target) of each CNOT, the products pending on its
    control and target, flat, and the (qubit, product) still pending at the
    end, in the order their first gates come.
    """
    pending = {}  # qubit -> product of its one-qubit gates not yet applied
    cnots = []
    factors = []
    matrices = iter(mats)
    for a, b in ops.tolist():
        if b:
            cnots.append((a, b))
            factors += (pending.pop(a, _I2), pending.pop(b, _I2))
        else:
            m = next(matrices)
            p = pending.get(a)
            pending[a] = m if p is None else m @ p
    return cnots, factors, list(pending.items())


def _fold_stack(ops: np.ndarray, mats: np.ndarray, n: int) -> tuple:
    """Pass 1 on the circuit's array form, with the products of the walk.

    Every one-qubit gate feeds a slot: the control or target side of the
    next CNOT on its qubit, or, after the last, its qubit's trailing slot.
    One sort of the gates and CNOT sides on (qubit, position), with an end
    marker per qubit, puts each gate just before the slot it feeds, with
    the gates of one slot in circuit order.  The runs are then multiplied
    out by rank, the r-th gate of every run at once, left-multiplying as
    the walk does; the gates are sorted by rank once, so that each round
    reads one slice.  Returns the (K, 2) CNOT pairs, a (2K + n, 2, 2) factor
    array (control and target side of each CNOT, then one slot per qubit)
    and the (qubit, product) of the trailing slots that hold a gate, in the
    order their first gates come.
    """
    g = len(ops)
    cx = ops[:, 1] > 0
    pairs = ops[cx]
    k = len(pairs)
    one = np.flatnonzero(~cx)  # the position of each one-qubit gate
    # the events: each one-qubit gate, then each slot (both sides of each
    # CNOT, then each qubit's end marker), so that event len(one) + s is slot s
    qubit = np.concatenate([ops[one, 0], pairs.ravel(), np.arange(1, n + 1)])
    position = np.concatenate([one, np.repeat(np.flatnonzero(cx), 2), np.full(n, g)])
    order = np.argsort(qubit * (g + 1) + position)
    ends = np.flatnonzero(order >= len(one))  # the slots, in sorted order
    gate_at = np.flatnonzero(order < len(one))
    nxt = np.searchsorted(ends, gate_at)
    gate_slot = order[ends[nxt]] - len(one)
    rank = gate_at - np.concatenate([[-1], ends])[nxt] - 1
    gate = order[gate_at]  # index into mats
    factors = np.empty((2 * k + n, 2, 2), dtype=complex)
    factors[:] = _I2
    by_rank = np.argsort(rank, kind="stable")
    slots, ranked = gate_slot[by_rank], mats[gate[by_rank]]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        s = slots[start:stop]
        factors[s] = ranked[start:stop] if start == 0 else ranked[start:stop] @ factors[s]
        start = stop
    first = (rank == 0) & (gate_slot >= 2 * k)
    trailing = gate_slot[first][np.argsort(one[gate[first]])]
    return pairs, factors, [(s - 2 * k + 1, factors[s]) for s in trailing.tolist()]


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
    windowed = n >= _WINDOW_QUBITS and state.size * np.count_nonzero(ops[:, 1]) >= _WINDOW_MIN_WORK
    # pass 1: fold the one-qubit gates into the products pending on each
    # CNOT's two qubits, and the trailing ones; pass 2: one product per window
    # of CNOTs or, below the work bound, one kernel per CNOT, all built at once
    if windowed:
        pairs, factors, pending = _fold_stack(ops, mats, n)
        matrices, qubits = _window_products(pairs, factors[: 2 * len(pairs)], n)
    else:
        qubits, factors, pending = _fold_gates(ops, mats)
        flip = np.array([a > b for a, b in qubits], dtype=bool)  # control above target
        matrices = _cnot_kernels(flip, np.array(factors).reshape(-1, 2, 2))
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
