"""Circuit IR over named qubit lines, with CNOT-count and CNOT-layer depth.

Qubit indices are 1-based; qubit 1 is the most significant bit of basis-state
labels.  Circuits are immutable after construction.

A circuit stores one form, the private ``_arrays``, in gate order: an (G, 2)
integer array ``ops`` holding (control, target) for a CNOT and (target, 0)
for a one-qubit gate, and the (G1, 2, 2) stack ``mats`` of the one-qubit
matrices.  Synthesis, parsing and the IR helpers write it directly, and
counting, simulation and emission read it.  The tuple of gate objects,
``gates``, is derived from it on first read and cached; a circuit built from
gates keeps the given tuple as that cache.

One fold, ``_fold``, multiplies each run of one-qubit gates on a qubit into
one product: the product fed into the control or target side of the next
CNOT on the qubit or, after its last CNOT, into its trailing slot.  The
simulator's first pass is this fold, and ``_folded`` writes its result back
as a circuit in folded form: each CNOT comes after at most one one-qubit
gate on its control and one on its target, and each qubit ends with at most
one trailing gate.  The preparation pipeline returns its ``total`` in this
form, so that fewer gates are simulated, emitted and parsed back.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, DimensionMismatchError, NonFiniteError, NotUnitaryError
from .linalg import INPUT_TOL, require_unitary


def _require_unitary_2x2(m: np.ndarray) -> None:
    """``linalg.require_unitary`` for a complex 2x2 array, in closed form.

    Checks the max-norm of U^dag U - I entry by entry: the two column norms
    and the column overlap (the other off-diagonal entry is its conjugate).
    """
    a, b, c, d = m.ravel().tolist()
    col0 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0
    col1 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0
    overlap = abs(a.conjugate() * b + c.conjugate() * d)
    # written as "not <=" so that a NaN residual is rejected
    if not (abs(col0) <= INPUT_TOL and abs(col1) <= INPUT_TOL and overlap <= INPUT_TOL):
        if not np.all(np.isfinite(m)):
            raise NonFiniteError("one-qubit gate matrix contains NaN or Inf entries")
        defect = max(abs(col0), abs(col1), overlap)
        raise NotUnitaryError(
            f"one-qubit gate matrix is not unitary: residual {defect:.3e} > {INPUT_TOL:.1e}"
        )


def _require_unitary_stack(ms: np.ndarray, what: str = "matrix") -> None:
    """Unitarity check of every matrix of a complex (G, d, d) stack.

    2x2 matrices get the closed-form residuals of :func:`_require_unitary_2x2`,
    larger ones the max-norm of U^dag U - I, each for the whole stack at once.
    If any residual is above the tolerance, the matrices go through the
    one-matrix check (``require_unitary`` with ``what`` for d > 2) in order,
    and the first it rejects raises its error.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/Inf entries fail below
        if ms.shape[-1] == 2:
            flat = ms.reshape(-1, 4)  # entries a, b, c, d of each matrix
            squares = flat.real * flat.real + flat.imag * flat.imag
            cols = squares[:, :2] + squares[:, 2:] - 1.0
            overlap = flat[:, 0].conj() * flat[:, 1] + flat[:, 2].conj() * flat[:, 3]
            # written as "not <=" so that a NaN residual is rejected
            ok = np.abs(cols).max(initial=0.0) <= INPUT_TOL
            ok = ok and np.abs(overlap).max(initial=0.0) <= INPUT_TOL
        else:
            gram = ms.conj().swapaxes(1, 2) @ ms
            diag = np.arange(ms.shape[-1])
            gram[:, diag, diag] -= 1.0
            ok = np.abs(gram).max(initial=0.0) <= INPUT_TOL
    if not ok:
        for m in ms:
            if len(m) == 2:
                _require_unitary_2x2(m)
            else:
                require_unitary(m, what=what)


def _index(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral value raises BadDimensionError.

    NumPy integers are accepted and come back as int.
    """
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadDimensionError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", _index(self.target, "gate qubit"))
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise BadDimensionError(f"one-qubit gate matrix must be 2x2, got {m.shape}")
        _require_unitary_2x2(m)
        object.__setattr__(self, "matrix", m)


def _rebuilt_1q(target: int, matrix: np.ndarray) -> OneQubitGate:
    """A one-qubit gate from parts that already passed the gate checks.

    For the gates derived from a circuit's array form, which would otherwise
    re-run the unitarity check on every gate.
    """
    g = object.__new__(OneQubitGate)
    fields = g.__dict__
    fields["target"] = target
    fields["matrix"] = matrix
    return g


@dataclass(frozen=True, eq=False)
class Cnot:
    control: int
    target: int

    def __post_init__(self):
        object.__setattr__(self, "control", _index(self.control, "CNOT control"))
        object.__setattr__(self, "target", _index(self.target, "CNOT target"))
        if self.control == self.target:
            raise BadDimensionError("CNOT control and target must differ")


Gate = OneQubitGate | Cnot


def _width(n_qubits) -> int:
    """``n_qubits`` as a register width: an int of at least one."""
    n_qubits = _index(n_qubits, "qubit count")
    if n_qubits < 1:
        raise BadDimensionError("circuit needs at least one qubit")
    return n_qubits


def _require_in_register(ops: np.ndarray, cx: np.ndarray, n_qubits: int) -> None:
    """Raise BadDimensionError for the first qubit of ``ops`` outside 1..n_qubits.

    ``cx`` marks the CNOT rows; the second column of any other row holds no qubit.
    """
    bad = (ops < 1) | (ops > n_qubits)
    bad[:, 1] &= cx
    if bad.any():
        raise BadDimensionError(f"gate qubit {ops[bad][0]} outside register 1..{n_qubits}")


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _width(self.n_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        self.__dict__["_arrays"] = _arrays_from_gates(self.gates, self.n_qubits)

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __getattr__(self, name: str):
        # called only for a missing attribute: the gate tuple of a circuit
        # written as arrays, derived on first read and cached
        if name != "gates":
            raise AttributeError(f"'Circuit' object has no attribute {name!r}")
        gates = self.__dict__["gates"] = _gates_from_arrays(*self._arrays)
        return gates


def _gates_from_arrays(ops: np.ndarray, mats: np.ndarray) -> tuple[Gate, ...]:
    """The gate tuple of an array form: one CNOT object per qubit pair, and
    each one-qubit gate holding a view of its row of the matrix stack."""
    cnots = {pair: Cnot(*pair) for pair in set(map(tuple, ops[ops[:, 1] > 0].tolist()))}
    it = iter(mats)
    return tuple(cnots[a, b] if b else _rebuilt_1q(a, next(it)) for a, b in ops.tolist())


def _arrays_from_gates(gates: tuple[Gate, ...], n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The array form (ops, mats) of a gate tuple, every qubit checked
    against 1..n_qubits; see the module docstring."""
    flat, cx, mats = [], [], []
    for g in gates:
        if isinstance(g, Cnot):
            flat += (g.control, g.target)
            cx.append(True)
        else:
            flat += (g.target, 0)
            cx.append(False)
            mats.append(g.matrix)
    ops = np.array(flat, dtype=np.intp).reshape(-1, 2)
    _require_in_register(ops, np.array(cx, dtype=bool), n_qubits)
    return ops, np.array(mats, dtype=complex).reshape(-1, 2, 2)


def _from_arrays(n_qubits: int, ops: np.ndarray, mats: np.ndarray) -> Circuit:
    """A circuit from its array form, whose qubits are known to lie in
    1..n_qubits and whose matrices already passed the gate checks."""
    c = object.__new__(Circuit)
    c.__dict__.update(n_qubits=n_qubits, _arrays=(ops, mats))
    return c


_I2 = np.eye(2, dtype=complex)


def _fold(ops: np.ndarray, mats: np.ndarray, n: int, stacked: bool) -> tuple:
    """Fold every run of one-qubit gates on a qubit into one product.

    Every one-qubit gate feeds a slot: the control or target side of the
    next CNOT on its qubit or, after the last, its qubit's trailing slot.
    Each slot's product multiplies its gates in circuit order, each later
    gate on the left.  Returns the (K, 2) CNOT pairs, the (2K, 2, 2)
    products on the control and the target side of each CNOT (identity
    where no gate fed a side), a (2K,) mask of the sides a gate fed, and the
    (qubit, product) of each trailing slot that holds a gate, in the order
    their first gates come.

    ``stacked`` picks the pass; both give the same products, bit for bit.
    The walk goes over the rows in order.  The stacked pass sorts the gates
    once to find the slot each feeds and multiplies the runs out by rank,
    the r-th gate of every run at once; its fixed cost pays only on long
    circuits, and ``simulate._windowed`` says where.
    """
    if not stacked:
        return _fold_rows(ops, mats)
    g = len(ops)
    cx = ops[:, 1] > 0
    pairs = ops[cx]
    k = len(pairs)
    one = np.flatnonzero(~cx)  # the position of each one-qubit gate
    # one sort of the gates and slots on (qubit, position), with an end
    # marker per qubit, puts each gate just before the slot it feeds; the
    # events are each one-qubit gate, then each slot (both sides of each
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
    fed = np.zeros(2 * k + n, dtype=bool)
    fed[gate_slot] = True
    # the r-th gate of every run at once, each round reading one slice of
    # the gates sorted by rank
    by_rank = np.argsort(rank, kind="stable")
    slots, ranked = gate_slot[by_rank], mats[gate[by_rank]]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        s = slots[start:stop]
        factors[s] = ranked[start:stop] if start == 0 else ranked[start:stop] @ factors[s]
        start = stop
    first = (rank == 0) & (gate_slot >= 2 * k)
    trailing = gate_slot[first][np.argsort(one[gate[first]])]
    tail = [(s - 2 * k + 1, factors[s]) for s in trailing.tolist()]
    return pairs, factors[: 2 * k], fed[: 2 * k], tail


def _fold_rows(ops: np.ndarray, mats: np.ndarray) -> tuple:
    """:func:`_fold` as a walk over the rows of the array form."""
    pending = {}  # qubit -> product of its one-qubit gates not yet taken in
    pairs, sides = [], []
    matrices = iter(mats)
    for a, b in ops.tolist():
        if b:
            pairs += (a, b)
            sides += (pending.pop(a, None), pending.pop(b, None))
        else:
            m = next(matrices)
            p = pending.get(a)
            pending[a] = m if p is None else m @ p
    fed = np.array([s is not None for s in sides], dtype=bool)
    factors = np.array([_I2 if s is None else s for s in sides], dtype=complex)
    return (
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
        factors.reshape(-1, 2, 2),
        fed,
        list(pending.items()),
    )


def _folded(c: Circuit, stacked: bool) -> Circuit:
    """The circuit with each run of one-qubit gates on a qubit folded into one gate.

    Each CNOT comes after at most one gate on its control and then one on
    its target, the products its sides were fed; the trailing products
    follow the last CNOT, in the order their first gates came.  A side that
    no gate fed gets no gate.  The circuit acts the same, CNOT for CNOT, and
    ``run`` takes the same products from it, so its output is bit-identical.
    The folded circuit keeps the fold as ``_pass1``, which is also the fold
    of its own gates, and ``run`` takes it instead of folding again.
    ``stacked`` picks the pass of :func:`_fold`.
    """
    fold = pairs, factors, fed, tail = _fold(*c._arrays, c.n_qubits, stacked)
    flat = []
    sides = iter(fed.tolist())
    for a, b in pairs.tolist():
        if next(sides):
            flat += (a, 0)
        if next(sides):
            flat += (b, 0)
        flat += (a, b)
    for q, _ in tail:
        flat += (q, 0)
    mats = np.concatenate([factors[fed], *(m[None] for _, m in tail)])
    out = _from_arrays(c.n_qubits, np.array(flat, dtype=np.intp).reshape(-1, 2), mats)
    out.__dict__["_pass1"] = fold
    return out


def cnot_count(c: Circuit) -> int:
    """Number of CNOT gates in the circuit."""
    return int(np.count_nonzero(c._arrays[0][:, 1]))


def depth(c: Circuit) -> int:
    """CNOT-layer depth under greedy as-soon-as-possible scheduling.

    Gates on disjoint qubit sets share a layer; one-qubit gates cost nothing
    and are absorbed into adjacent layers, so only layers holding at least one
    CNOT are counted.
    """
    ops = c._arrays[0]
    level = [0] * (c.n_qubits + 1)
    d = 0
    for control, target in ops[ops[:, 1] > 0].tolist():
        layer = max(level[control], level[target]) + 1
        level[control] = level[target] = layer
        d = max(d, layer)
    return d


def concat(*circuits: Circuit) -> Circuit:
    """Gate-order-preserving concatenation of circuits on the same register."""
    if not circuits:
        raise BadDimensionError("need at least one circuit")
    n = circuits[0].n_qubits
    for c in circuits[1:]:
        if c.n_qubits != n:
            raise DimensionMismatchError("cannot concatenate circuits of different widths")
    ops, mats = zip(*(c._arrays for c in circuits))
    return _from_arrays(n, np.concatenate(ops), np.concatenate(mats))


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order and invert every gate (CNOT is self-inverse)."""
    ops, mats = c._arrays
    return _from_arrays(c.n_qubits, ops[::-1], mats[::-1].conj().swapaxes(1, 2))


def shift(c: Circuit, offset: int, n_qubits: int) -> Circuit:
    """Re-embed a circuit with all qubit indices moved up by ``offset``.

    A width-only shift shares the circuit's arrays and, if derived, its gates.
    """
    n_qubits = _width(n_qubits)
    ops, mats = c._arrays
    cx = ops[:, 1] > 0
    if offset:
        ops = ops + offset
        ops[~cx, 1] = 0
    _require_in_register(ops, cx, n_qubits)
    out = _from_arrays(n_qubits, ops, mats)
    if not offset and "gates" in c.__dict__:
        out.__dict__["gates"] = c.gates
    return out


@dataclass(frozen=True)
class CostReport:
    cnot_count: int
    depth: int
    per_phase: dict[str, int]
    cnot_lower: int | None = None
    cnot_upper_scheme: int | None = None

    def to_dict(self) -> dict:
        out = {
            "cnot_count": self.cnot_count,
            "depth": self.depth,
            "per_phase": dict(self.per_phase),
        }
        if self.cnot_lower is not None:
            out["cnot_lower"] = self.cnot_lower
        if self.cnot_upper_scheme is not None:
            out["cnot_upper_scheme"] = self.cnot_upper_scheme
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def cost_report(
    c: Circuit,
    cnot_lower: int | None = None,
    cnot_upper_scheme: int | None = None,
    per_phase: dict[str, int] | None = None,
) -> CostReport:
    """CNOT count and CNOT-layer depth of the circuit, with the given bounds.

    ``per_phase`` maps phase names to CNOT counts; the circuit does not know
    its phases, so a caller that built it from phase circuits passes them.
    """
    return CostReport(
        cnot_count=cnot_count(c),
        depth=depth(c),
        per_phase=dict(per_phase or {}),
        cnot_lower=cnot_lower,
        cnot_upper_scheme=cnot_upper_scheme,
    )
