"""Four-phase Schmidt-decomposition state preparation.

Pipeline: load the Schmidt coefficients on the first half of the register,
copy the basis with a CNOT fan, then rotate each half into its Schmidt basis
with one k-qubit unitary per half.  The fan uses control j -> target j+k2, so
it writes the low k1 qubits of the right half; for odd n the right half's
first qubit stays |0>, and the right basis change is the right Schmidt basis
itself, pinned on its first 2^k1 columns.  A state of Schmidt rank one skips
the fan: its two halves are prepared independently.

Phases 3 and 4 are synthesized by one call, each on its final qubits, so the
two-qubit leaves of both bases form one stack: the serial twist chain of each
basis, then one stacked Cartan decomposition, then stacked emission and
checks (see ``twoqubit``).
"""

from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .circuit import (
    Circuit,
    OneQubitGate,
    _from_arrays,
    _require_unitary_stack,
    cnot_count,
    concat,
    cost_report,
    CostReport,
    inverse,
    shift,
)
from .errors import BadDimensionError, DimensionMismatchError, TooFewQubitsError
from .linalg import require_max_dim, svd
from .simulate import num_qubits, require_normalized
from .synthesis import _synth_blocks, uc_su2_up_to_diagonal


@dataclass(frozen=True)
class SchmidtForm:
    """Generalized Schmidt data across the k1 | k2 cut (k1 <= k2).

    ``alphas`` are the complex coefficients with alphas[0] real non-negative;
    columns i < 2^k1 of ``basis_left``/``basis_right`` hold the paired
    Schmidt vectors, the remaining right columns an orthonormal completion.
    """

    k1: int
    k2: int
    alphas: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray

    def reassemble(self) -> np.ndarray:
        r = 1 << self.k1
        left = self.basis_left[:, :r]
        right = self.basis_right[:, :r]
        return (left @ np.diag(self.alphas) @ right.T).reshape(-1)


def schmidt_decompose(s: np.ndarray) -> SchmidtForm:
    """Schmidt decomposition across the floor(n/2) | ceil(n/2) cut."""
    s = require_normalized(np.asarray(s, dtype=complex))
    n = num_qubits(s)
    if n < 2:
        raise TooFewQubitsError("schmidt decomposition needs at least 2 qubits")
    k1 = n // 2
    k2 = n - k1
    res = svd(s.reshape(1 << k1, 1 << k2))
    return SchmidtForm(
        k1=k1,
        k2=k2,
        alphas=res.singular_values.astype(complex),
        basis_left=res.u,
        basis_right=res.v_dagger.T,
    )


def _map_zero_to(a: complex, b: complex) -> np.ndarray:
    """Unitary sending |0> to (a, b); the pair must have norm one."""
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _load_1q(amps: np.ndarray) -> Circuit:
    """One-gate circuit preparing a one-qubit state.

    The pair is divided by its norm, which the accepted input may carry off
    by up to 1e-8: the gate is built from the unit vector.
    """
    a, b = amps / np.linalg.norm(amps)
    mats = np.asarray(_map_zero_to(a, b), dtype=complex)[None]
    _require_unitary_stack(mats)
    return _from_arrays(1, np.array([[1, 0]], dtype=np.intp), mats)


def baseline_prepare(s: np.ndarray) -> Circuit:
    """Prepare a state by inverting a multiplexed-gate disentangling cascade.

    Working from the last qubit up, each step maps the target qubit to |0>
    with one uniformly controlled gate implemented up to a diagonal; the
    diagonal phases migrate into the amplitudes handled by the next step.
    Costs at most 2^n - n - 1 CNOTs.
    """
    s = require_normalized(np.asarray(s, dtype=complex))
    n = num_qubits(s)
    state = s.copy()
    gates: list = []
    for m in range(n, 1, -1):
        pairs = state.reshape(-1, 2)
        mats = []
        for a0, a1 in pairs:
            r = np.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
            if r < 1e-15:
                mats.append(np.eye(2, dtype=complex))
            else:
                mats.append(np.array([[np.conj(a0), np.conj(a1)], [-a1, a0]]) / r)
        uc_gates, delta = uc_su2_up_to_diagonal(mats, list(range(1, m)), m)
        gates.extend(uc_gates)
        state = np.array(
            [
                np.conj(delta[2 * j]) * (mats[j][0, 0] * p[0] + mats[j][0, 1] * p[1])
                for j, p in enumerate(pairs)
            ]
        )
    a, b = state / np.linalg.norm(state)  # the input's norm, off by up to 1e-8
    gates.append(OneQubitGate(1, np.array([[np.conj(a), np.conj(b)], [-b, a]])))
    return inverse(Circuit(n, tuple(gates)))


def _phase1_circuit(alphas: np.ndarray, k1: int) -> Circuit:
    """Coefficient loader on the left half: the one with the lower ceiling.

    Ties go to the baseline cascade.
    """
    if k1 == 1:
        return _load_1q(alphas)
    if bounds_mod.scheme_upper_bound(k1) < bounds_mod.baseline_upper_bound(k1):
        return schmidt_prepare(alphas).total
    return baseline_prepare(alphas)


@dataclass(frozen=True)
class PrepPlan:
    """Phase circuits (all n qubits wide), their concatenation, and metrics."""

    phase1: Circuit
    phase2: Circuit
    phase3: Circuit
    phase4: Circuit
    total: Circuit
    report: CostReport
    schmidt: SchmidtForm


def schmidt_prepare(s: np.ndarray) -> PrepPlan:
    """Synthesize a circuit preparing the given state from |0...0>.

    The input alone picks the path: a one-qubit state is one gate, in phase
    1; a state of Schmidt rank one across the cut has its halves prepared
    independently; any other state runs the four phases.  A state of more
    than 16 qubits, whose right Schmidt basis would exceed ``MAX_DIM``,
    raises ``BadDimensionError`` before any factorization.
    """
    s = require_normalized(np.asarray(s, dtype=complex))
    n = num_qubits(s)
    require_max_dim(1 << (n - n // 2), what="Schmidt basis")
    if n == 1:
        p1 = _load_1q(s)
        sf = SchmidtForm(
            k1=0,
            k2=1,
            alphas=np.ones(1, dtype=complex),
            basis_left=np.eye(1, dtype=complex),
            basis_right=p1._arrays[1][0],
        )
        empty = Circuit(1, ())
        return _plan(sf, p1, empty, empty, empty)
    sf = schmidt_decompose(s)
    k1, k2 = sf.k1, sf.k2
    if abs(sf.alphas[1]) < 1e-12:
        return _prepare_product(sf, n)

    p1 = shift(_phase1_circuit(sf.alphas, k1), 0, n)
    fan = np.arange(1, k1 + 1, dtype=np.intp)
    p2 = _from_arrays(n, np.stack((fan, fan + k2), axis=1), np.empty((0, 2, 2), dtype=complex))
    p3, p4 = _synth_blocks([(sf.basis_left, 1), (sf.basis_right, k1 + 1)], n)
    return _plan(sf, p1, p2, p3, p4)


def _plan(sf: SchmidtForm, p1: Circuit, p2: Circuit, p3: Circuit, p4: Circuit) -> PrepPlan:
    """The plan for four phase circuits on one register, with its cost report."""
    n = p1.n_qubits
    total = concat(p1, p2, p3, p4)
    report = cost_report(
        total,
        cnot_lower=bounds_mod.cnot_lower_bound(n),
        # the scheme's ceiling is defined from two qubits on
        cnot_upper_scheme=bounds_mod.scheme_upper_bound(n) if n > 1 else None,
        per_phase={f"P{i}": cnot_count(p) for i, p in enumerate((p1, p2, p3, p4), 1)},
    )
    return PrepPlan(
        phase1=p1, phase2=p2, phase3=p3, phase4=p4, total=total, report=report, schmidt=sf
    )


def _prepare_product(sf: SchmidtForm, n: int) -> PrepPlan:
    """Rank-1 shortcut: prepare the two halves independently, no CNOT fan."""
    left = sf.basis_left[:, 0] * sf.alphas[0]
    right = sf.basis_right[:, 0]
    p3 = shift(schmidt_prepare(left).total, 0, n)
    p4 = shift(schmidt_prepare(right).total, sf.k1, n)
    return _plan(sf, Circuit(n, ()), Circuit(n, ()), p3, p4)


def transform(psi: np.ndarray, phi: np.ndarray) -> Circuit:
    """Circuit mapping psi to phi: un-prepare psi, then prepare phi.

    Costs at most twice the preparation ceiling for the register size.
    """
    psi = require_normalized(np.asarray(psi, dtype=complex))
    phi = require_normalized(np.asarray(phi, dtype=complex))
    if len(psi) != len(phi):
        raise DimensionMismatchError(
            f"states act on different registers: {len(psi)} vs {len(phi)}"
        )
    unprepare = inverse(schmidt_prepare(psi).total)
    prepare = schmidt_prepare(phi).total
    return concat(unprepare, prepare)


def synth_2q_state(amps: np.ndarray) -> Circuit:
    """Prepare a two-qubit state from |00> with at most one CNOT.

    This is ``schmidt_prepare`` on four amplitudes: a product state needs no
    CNOT.
    """
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (4,):
        raise BadDimensionError(f"expected 4 amplitudes, got shape {amps.shape}")
    return schmidt_prepare(amps).total
