"""Circuit IR over named qubit lines, with CNOT-count and CNOT-layer depth.

Qubit indices are 1-based; qubit 1 is the most significant bit of basis-state
labels.  Circuits are immutable after construction.
"""

import json
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


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise BadDimensionError(f"one-qubit gate matrix must be 2x2, got {m.shape}")
        _require_unitary_2x2(m)
        object.__setattr__(self, "matrix", m)


def _rebuilt_1q(target: int, matrix: np.ndarray) -> OneQubitGate:
    """A one-qubit gate from parts that already passed the gate checks.

    For IR rebuilds (relabelled qubits, the adjoint of a checked unitary),
    which would otherwise re-run the unitarity check on every gate.
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
        if self.control == self.target:
            raise BadDimensionError("CNOT control and target must differ")


Gate = OneQubitGate | Cnot


def _gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, Cnot):
        return (gate.control, gate.target)
    return (gate.target,)


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise BadDimensionError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in _gate_qubits(g):
                if not 1 <= q <= self.n_qubits:
                    raise BadDimensionError(
                        f"gate qubit {q} outside register 1..{self.n_qubits}"
                    )

    def __len__(self) -> int:
        return len(self.gates)


def _rewrapped(n_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A circuit from a gate tuple whose qubits are known to lie in 1..n_qubits.

    For IR rebuilds whose width check already covers every gate, which would
    otherwise re-check each gate's qubits.
    """
    c = object.__new__(Circuit)
    c.__dict__.update(n_qubits=n_qubits, gates=gates)
    return c


def cnot_count(c: Circuit) -> int:
    """Number of CNOT gates in the circuit."""
    return sum(1 for g in c.gates if isinstance(g, Cnot))


def depth(c: Circuit) -> int:
    """CNOT-layer depth under greedy as-soon-as-possible scheduling.

    Gates on disjoint qubit sets share a layer; one-qubit gates cost nothing
    and are absorbed into adjacent layers, so only layers holding at least one
    CNOT are counted.
    """
    level = [0] * (c.n_qubits + 1)
    d = 0
    for g in c.gates:
        if isinstance(g, Cnot):
            layer = max(level[g.control], level[g.target]) + 1
            level[g.control] = layer
            level[g.target] = layer
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
    gates: list[Gate] = []
    for c in circuits:
        gates.extend(c.gates)
    return _rewrapped(n, tuple(gates))


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order and invert every gate (CNOT is self-inverse)."""
    gates: list[Gate] = []
    for g in reversed(c.gates):
        if isinstance(g, Cnot):
            gates.append(g)
        else:
            gates.append(_rebuilt_1q(g.target, g.matrix.conj().T))
    return Circuit(n_qubits=c.n_qubits, gates=tuple(gates))


def _shifted_gates(gates, offset: int) -> list[Gate]:
    """The gates with every qubit index moved up by ``offset``."""
    out: list[Gate] = []
    for g in gates:
        if isinstance(g, Cnot):
            out.append(Cnot(g.control + offset, g.target + offset))
        else:
            out.append(_rebuilt_1q(g.target + offset, g.matrix))
    return out


def shift(c: Circuit, offset: int, n_qubits: int) -> Circuit:
    """Re-embed a circuit with all qubit indices moved up by ``offset``."""
    if offset == 0 and c.n_qubits <= n_qubits:
        return _rewrapped(n_qubits, c.gates)  # the same gates on a wider register
    gates = tuple(_shifted_gates(c.gates, offset))
    if offset >= 0 and c.n_qubits + offset <= n_qubits:
        return _rewrapped(n_qubits, gates)
    return Circuit(n_qubits=n_qubits, gates=gates)


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
