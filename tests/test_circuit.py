"""Circuit IR: metrics, concatenation, inversion, validation."""

import json

import numpy as np
import pytest

import statesynth.circuit
from statesynth import (
    BadDimensionError,
    Circuit,
    Cnot,
    DimensionMismatchError,
    NonFiniteError,
    NotUnitaryError,
    OneQubitGate,
    cnot_count,
    concat,
    depth,
    haar_state,
    haar_unitary,
    inverse,
    run,
    schmidt_prepare,
    shift,
    zero_state,
)
from statesynth.circuit import _require_unitary_stack
from statesynth.linalg import require_unitary, unitarity_defect

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_empty_circuit_metrics():
    c = Circuit(3, ())
    assert cnot_count(c) == 0
    assert depth(c) == 0


def test_cnot_count_counts_only_cnots():
    c = Circuit(2, (OneQubitGate(1, H), Cnot(1, 2), OneQubitGate(2, H), Cnot(2, 1)))
    assert cnot_count(c) == 2


def test_depth_parallel_fan():
    # two CNOTs on disjoint qubits share one layer
    c = Circuit(4, (Cnot(1, 3), Cnot(2, 4)))
    assert depth(c) == 1


def test_depth_chain():
    c = Circuit(4, (Cnot(1, 2), Cnot(2, 3), Cnot(3, 4)))
    assert depth(c) == 3


def test_depth_one_qubit_gates_are_free():
    c = Circuit(4, (OneQubitGate(1, H), Cnot(1, 3), OneQubitGate(3, H), Cnot(2, 4)))
    assert depth(c) == 1


def test_four_qubit_prep_counts():
    """The flagship four-qubit pipeline: 9 CNOTs in layers of depth 5."""
    rng = np.random.default_rng(0)
    plan = schmidt_prepare(haar_state(4, rng))
    assert cnot_count(plan.total) == 9
    assert depth(plan.total) == 5


def test_five_qubit_prep_counts():
    rng = np.random.default_rng(1)
    plan = schmidt_prepare(haar_state(5, rng))
    assert cnot_count(plan.total) == 26
    assert depth(plan.total) <= 22


def test_depth_bounds_vs_count():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        plan = schmidt_prepare(haar_state(n, rng))
        c = plan.total
        assert depth(c) <= cnot_count(c)
        assert depth(c) >= int(np.ceil(cnot_count(c) / (n // 2)))


def test_concat_additive():
    rng = np.random.default_rng(3)
    a = schmidt_prepare(haar_state(3, rng)).total
    b = schmidt_prepare(haar_state(3, rng)).total
    assert cnot_count(concat(a, b)) == cnot_count(a) + cnot_count(b)


def test_inverse_undoes_circuit():
    rng = np.random.default_rng(4)
    s = haar_state(3, rng)
    c = schmidt_prepare(s).total
    roundtrip = run(concat(c, inverse(c)), zero_state(3))
    assert abs(abs(roundtrip[0]) - 1.0) < 1e-10


def test_shift_relabels_qubits():
    c = Circuit(2, (Cnot(1, 2),))
    s = shift(c, 2, 4)
    assert s.gates[0].control == 3 and s.gates[0].target == 4


def test_ir_rebuilds_keep_the_width_check():
    """shift and concat skip the per-gate qubit check only where the register
    widths already guarantee it; every other case is still checked."""
    wide = Circuit(4, (Cnot(1, 2),))
    assert shift(wide, 2, 4).gates[0].target == 4  # the gates fit, the width does not
    assert shift(Circuit(3, (Cnot(2, 3),)), -1, 2).gates[0].control == 1
    with pytest.raises(BadDimensionError):
        shift(Circuit(2, (Cnot(1, 2),)), 2, 3)
    with pytest.raises(BadDimensionError):
        shift(Circuit(2, (Cnot(1, 2),)), -1, 2)
    with pytest.raises(DimensionMismatchError):
        concat(Circuit(2, ()), wide)
    widened = shift(wide, 0, 6)  # width only: the gate tuple is shared
    assert widened.n_qubits == 6 and widened.gates is wide.gates
    assert shift(wide, 0, 3).gates[0].target == 2  # narrower, but the gates fit
    with pytest.raises(BadDimensionError):
        shift(Circuit(4, (Cnot(1, 4),)), 0, 3)


def test_gate_validation():
    with pytest.raises(BadDimensionError):
        Cnot(1, 1)
    with pytest.raises(BadDimensionError):
        Circuit(2, (Cnot(1, 3),))
    with pytest.raises(NotUnitaryError):
        OneQubitGate(1, np.ones((2, 2)))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        for entry in range(4):
            m = np.eye(2, dtype=complex)
            m.flat[entry] = bad
            with pytest.raises(NonFiniteError):
                OneQubitGate(1, m)
            stack = np.array([np.eye(2), m, np.ones((2, 2))], dtype=complex)
            with pytest.raises(NonFiniteError):
                _require_unitary_stack(stack)
    with pytest.raises(BadDimensionError):
        OneQubitGate(1, np.zeros((2, 3)))


def _gate_check_verdict(make) -> str:
    try:
        make()
    except (NonFiniteError, NotUnitaryError) as exc:
        return type(exc).__name__
    return "ok"


def test_gate_check_matches_require_unitary():
    """The closed-form 2x2 check makes the generic check's decision, and the
    stacked check makes the 2x2 check's decision.

    Haar unitaries are pushed off the unitary group along a random direction
    until the max-norm of U^dag U - I reaches each target residual; 1e-10 and
    5e-9 sit below the 1e-8 input tolerance, 2e-8 and 1e-6 above it.
    """
    rng = np.random.default_rng(7)
    verdicts = {}
    matrices = []
    for residual in (1e-10, 5e-9, 2e-8, 1e-6):
        for _ in range(250):
            u = haar_unitary(2, rng)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            step = 1e-6 * g
            m = u + step * residual / unitarity_defect(u + step)
            assert unitarity_defect(m) == pytest.approx(residual, rel=0.01)
            ours = _gate_check_verdict(lambda: OneQubitGate(1, m))
            generic = _gate_check_verdict(lambda: require_unitary(m))
            stacked = _gate_check_verdict(lambda: _require_unitary_stack(m[None]))
            assert ours == generic == stacked
            verdicts.setdefault(residual, set()).add(ours)
            matrices.append((m, ours))
    stack = np.array([m for m, _ in matrices])
    passing = np.array([v == "ok" for _, v in matrices])
    _require_unitary_stack(stack[passing])
    rng.shuffle(stack)
    first_bad = next(m for m in stack if _gate_check_verdict(lambda: OneQubitGate(1, m)) != "ok")
    with pytest.raises(NotUnitaryError) as stacked_exc:
        _require_unitary_stack(stack)
    with pytest.raises(NotUnitaryError) as single_exc:
        OneQubitGate(1, first_bad)
    assert str(stacked_exc.value) == str(single_exc.value)
    assert verdicts == {
        1e-10: {"ok"},
        5e-9: {"ok"},
        2e-8: {"NotUnitaryError"},
        1e-6: {"NotUnitaryError"},
    }


def test_ir_rebuilds_skip_the_gate_check(monkeypatch):
    """shift and inverse copy checked gates without re-checking."""
    rng = np.random.default_rng(8)
    c = schmidt_prepare(haar_state(4, rng)).total
    ones = [g for g in c.gates if isinstance(g, OneQubitGate)]
    calls = []
    check = statesynth.circuit._require_unitary_2x2

    def counting_check(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(statesynth.circuit, "_require_unitary_2x2", counting_check)
    OneQubitGate(1, ones[0].matrix)
    assert len(calls) == 1  # the counter sees direct constructions
    calls.clear()
    rebuilt = {
        "shift": shift(c, 2, 6),
        "inverse": inverse(inverse(c)),
    }
    assert calls == []
    for name, r in rebuilt.items():
        assert [type(g) for g in r.gates] == [type(g) for g in c.gates], name
        r_ones = [g for g in r.gates if isinstance(g, OneQubitGate)]
        for g, orig in zip(r_ones, ones):
            assert g.matrix.dtype == orig.matrix.dtype
            assert g.matrix.tobytes() == orig.matrix.tobytes(), name
    assert [g.target for g in rebuilt["shift"].gates if isinstance(g, OneQubitGate)] == [
        g.target + 2 for g in ones
    ]
    adjoint = [g for g in inverse(c).gates if isinstance(g, OneQubitGate)]
    for g, orig in zip(adjoint, reversed(ones)):
        assert np.array_equal(g.matrix, orig.matrix.conj().T)
    assert calls == []


def test_cost_report_per_phase():
    rng = np.random.default_rng(5)
    plan = schmidt_prepare(haar_state(4, rng))
    rep = plan.report
    assert rep.cnot_count == 9
    assert rep.depth == 5
    assert sum(rep.per_phase.values()) == rep.cnot_count
    assert rep.per_phase == {"P1": 1, "P2": 2, "P3": 3, "P4": 3}
    payload = json.loads(rep.to_json())
    assert payload["cnot_count"] == 9
    assert payload["per_phase"]["P2"] == 2
    # n = 8 loads phase 1 with the recursive pipeline; the product state
    # prepares its halves independently, leaving phases 1 and 2 empty
    plans = [schmidt_prepare(haar_state(n, rng)) for n in (2, 3, 4, 5, 6, 8)]
    product = np.kron(haar_state(3, rng), haar_state(3, rng))
    plans.append(schmidt_prepare(product))
    for plan in plans:
        phases = (plan.phase1, plan.phase2, plan.phase3, plan.phase4)
        counts = {f"P{i}": cnot_count(p) for i, p in enumerate(phases, 1)}
        assert plan.report.per_phase == counts
        assert sum(counts.values()) == cnot_count(plan.total) == plan.report.cnot_count
    assert plans[-1].report.per_phase["P1"] == plans[-1].report.per_phase["P2"] == 0
    assert cnot_count(plans[-1].total) > 0


def test_depth_ceiling_respects_half_register():
    # no layer can hold more than floor(n/2) CNOTs
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = 4
        gates = []
        for _ in range(12):
            q = rng.permutation(np.arange(1, n + 1))[:2]
            gates.append(Cnot(int(q[0]), int(q[1])))
        c = Circuit(n, tuple(gates))
        assert depth(c) >= cnot_count(c) / (n // 2) - 1e-9
