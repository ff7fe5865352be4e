"""Simulator semantics: gate action, composition, norm, fidelity, file format."""

import json
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from statesynth import (
    BadDimensionError,
    Circuit,
    Cnot,
    DimensionMismatchError,
    NotNormalizedError,
    OneQubitGate,
    circuit,
    circuit_unitary,
    concat,
    emit_qasm,
    fidelity,
    haar_state,
    haar_unitary,
    parse_qasm,
    run,
    schmidt_prepare,
    simulate,
    state_from_json,
    state_to_json,
    zero_state,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT_MAT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def test_empty_circuit_is_identity():
    s = zero_state(4)
    assert np.allclose(run(Circuit(4, ()), s), s)


def test_bell_construction():
    c = Circuit(2, (OneQubitGate(1, H), Cnot(1, 2)))
    out = run(c, zero_state(2))
    assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_phase2_fan_copies_basis():
    """CNOT fan applied to (sum_i a_i |i>)|00> yields sum_i a_i |i>|i>."""
    rng = np.random.default_rng(0)
    alphas = rng.normal(size=4) + 1j * rng.normal(size=4)
    alphas /= np.linalg.norm(alphas)
    state = np.zeros(16, dtype=complex)
    for i in range(4):
        state[i << 2] = alphas[i]  # qubits 1,2 hold i; qubits 3,4 hold 0
    fan = Circuit(4, (Cnot(1, 3), Cnot(2, 4)))
    out = run(fan, state)
    expected = np.zeros(16, dtype=complex)
    for i in range(4):
        expected[(i << 2) | i] = alphas[i]
    assert np.max(np.abs(out - expected)) < 1e-12


def test_gate_action_matches_dense_matrices():
    """Strided updates agree with explicit kron matrices on all basis states."""
    rng = np.random.default_rng(1)
    u = haar_unitary(2, rng)
    for target, left, right in ((1, 1, 4), (2, 2, 2), (3, 4, 1)):
        c = Circuit(3, (OneQubitGate(target, u),))
        dense = np.kron(np.kron(np.eye(left), u), np.eye(right))
        assert np.max(np.abs(circuit_unitary(c) - dense)) < 1e-12
    c = Circuit(2, (Cnot(1, 2),))
    assert np.max(np.abs(circuit_unitary(c) - CNOT_MAT)) < 1e-12
    c21 = Circuit(2, (Cnot(2, 1),))
    swapped = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert np.max(np.abs(circuit_unitary(c21) - swapped)) < 1e-12


def _random_circuit(n, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.5:
            gates.append(OneQubitGate(int(rng.integers(1, n + 1)), haar_unitary(2, rng)))
        else:
            a, b = rng.permutation(np.arange(1, n + 1))[:2]
            gates.append(Cnot(int(a), int(b)))
    return Circuit(n, tuple(gates))


def test_run_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = _random_circuit(n, 10, rng)
        out = run(c, haar_state(n, rng))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_run_composes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 4
        c1 = _random_circuit(n, 6, rng)
        c2 = _random_circuit(n, 6, rng)
        s = haar_state(n, rng)
        a = run(concat(c1, c2), s)
        b = run(c2, run(c1, s))
        assert np.max(np.abs(a - b)) < 1e-10


def test_batched_run_matches_per_state_runs():
    """A (2^n, batch) stack evolves column by column; circuit_unitary is run(c, I)."""
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        c = _random_circuit(n, 12 * n, rng)
        stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
        batched = run(c, stack)
        for j in range(3):
            assert np.max(np.abs(batched[:, j] - run(c, stack[:, j]))) <= 1e-15
        dim = 1 << n
        columns = np.empty((dim, dim), dtype=complex)
        for j in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[j] = 1.0
            columns[:, j] = run(c, basis)
        assert np.max(np.abs(circuit_unitary(c) - columns)) <= 1e-15


def _dense(n, factors):
    """Kronecker product over qubits 1..n of {qubit: 2x2 matrix}, identity elsewhere."""
    return reduce(np.kron, [factors.get(q, np.eye(2)) for q in range(1, n + 1)])


def test_gate_kernels_match_dense_reference():
    """Every one-qubit target and every ordered CNOT pair against dense kron matrices.

    Each gate runs on one state, on a (2^n, 3) stack, and on the same stack
    in Fortran order.
    """
    rng = np.random.default_rng(9)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(1, 8):
        cases = []
        for t in range(1, n + 1):
            u = haar_unitary(2, rng)
            cases.append((OneQubitGate(t, u), _dense(n, {t: u})))
        for c in range(1, n + 1):
            for t in range(1, n + 1):
                if c != t:
                    dense = _dense(n, {c: p0}) + _dense(n, {c: p1, t: x})
                    cases.append((Cnot(c, t), dense))
        psi = haar_state(n, rng)
        stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
        for gate, dense in cases:
            c = Circuit(n, (gate,))
            assert np.max(np.abs(run(c, psi) - dense @ psi)) <= 1e-13
            assert np.max(np.abs(run(c, stack) - dense @ stack)) <= 1e-13
            fortran = np.asfortranarray(stack)
            assert np.max(np.abs(run(c, fortran) - dense @ stack)) <= 1e-13
            assert np.array_equal(fortran, stack)  # the input is not modified


def test_fused_one_qubit_runs_match_dense_reference():
    """Runs of one-qubit gates on a qubit are applied as one product; the result
    must match the gate-by-gate dense product, including runs still pending at
    the end of the circuit, on one state, a (2^n, 3) stack and a Fortran stack."""
    rng = np.random.default_rng(10)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(1, 6):
        for _ in range(4):
            gates = []
            for _ in range(6):
                # a long run on one qubit, a few scattered gates, then a CNOT
                t = int(rng.integers(1, n + 1))
                gates += [OneQubitGate(t, haar_unitary(2, rng)) for _ in range(rng.integers(1, 8))]
                for q in rng.integers(1, n + 1, size=3):
                    gates.append(OneQubitGate(int(q), haar_unitary(2, rng)))
                if n > 1:
                    ctrl, tgt = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                    gates.append(Cnot(int(ctrl), int(tgt)))
            for q in range(1, n + 1):  # trailing runs on every qubit
                gates += [OneQubitGate(q, haar_unitary(2, rng)) for _ in range(3)]
            dense = np.eye(1 << n, dtype=complex)
            for g in gates:
                if isinstance(g, Cnot):
                    step = _dense(n, {g.control: p0}) + _dense(n, {g.control: p1, g.target: x})
                else:
                    step = _dense(n, {g.target: g.matrix})
                dense = step @ dense
            c = Circuit(n, tuple(gates))
            psi = haar_state(n, rng)
            stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
            assert np.max(np.abs(run(c, psi) - dense @ psi)) <= 1e-13
            assert np.max(np.abs(run(c, stack) - dense @ stack)) <= 1e-13
            fortran = np.asfortranarray(stack)
            assert np.max(np.abs(run(c, fortran) - dense @ stack)) <= 1e-13
            assert np.array_equal(fortran, stack)


def test_fused_cnot_kernel_matches_dense_reference():
    """A CNOT takes in the pending one-qubit products on its qubits and runs as
    one 4x4 kernel.  Every ordered pair, with pending gates on neither qubit,
    the control, the target or both, followed by back-to-back CNOTs on the
    same pair (the second with nothing pending) and a pending gate on a third
    qubit, must match the gate-by-gate dense product on one state, a (2^n, 3)
    stack and a Fortran-ordered stack."""
    rng = np.random.default_rng(11)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(2, 7):
        psi = haar_state(n, rng)
        stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
        fortran = np.asfortranarray(stack)
        for ctrl in range(1, n + 1):
            for tgt in range(1, n + 1):
                if ctrl == tgt:
                    continue
                cnot = _dense(n, {ctrl: p0}) + _dense(n, {ctrl: p1, tgt: x})
                for pending in ((), (ctrl,), (tgt,), (ctrl, tgt)):
                    gates, dense = [], np.eye(1 << n, dtype=complex)
                    for q in pending:
                        u = haar_unitary(2, rng)
                        gates.append(OneQubitGate(q, u))
                        dense = _dense(n, {q: u}) @ dense
                    gates += [Cnot(ctrl, tgt), Cnot(ctrl, tgt)]
                    dense = cnot @ cnot @ dense
                    others = [q for q in range(1, n + 1) if q not in (ctrl, tgt)]
                    if others:
                        u = haar_unitary(2, rng)
                        gates.append(OneQubitGate(others[0], u))
                        dense = _dense(n, {others[0]: u}) @ dense
                    u = haar_unitary(2, rng)
                    gates += [OneQubitGate(tgt, u), Cnot(ctrl, tgt)]
                    dense = cnot @ _dense(n, {tgt: u}) @ dense
                    c = Circuit(n, tuple(gates))
                    assert np.max(np.abs(run(c, psi) - dense @ psi)) <= 1e-13
                    assert np.max(np.abs(run(c, stack) - dense @ stack)) <= 1e-13
                    assert np.max(np.abs(run(c, fortran) - dense @ stack)) <= 1e-13
                    assert np.array_equal(fortran, stack)  # the input is not modified


def test_run_rejects_wrong_width():
    with pytest.raises(DimensionMismatchError):
        run(Circuit(2, ()), zero_state(3))


def test_fidelity_basics():
    rng = np.random.default_rng(4)
    psi = haar_state(3, rng)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    assert abs(fidelity(psi, np.exp(1.23j) * psi) - 1.0) < 1e-12
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    assert fidelity(zero, one) == 0.0
    with pytest.raises(DimensionMismatchError):
        fidelity(zero, zero_state(2))


def test_state_json_roundtrip():
    rng = np.random.default_rng(5)
    s = haar_state(3, rng)
    back = state_from_json(state_to_json(s))
    assert np.max(np.abs(back - s)) < 1e-12


def test_state_json_rejects_unnormalized():
    payload = {"n": 1, "amplitudes": [[2.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(NotNormalizedError):
        state_from_json(json.dumps(payload))
    fixed = state_from_json(json.dumps(payload), normalize=True)
    assert np.allclose(fixed, [1.0, 0.0])


@pytest.mark.parametrize("n", [2**64, True])
def test_state_json_rejects_a_bad_qubit_count(n):
    """A count far above what the amplitudes hold, or a boolean, is
    rejected before any 2^n is formed."""
    payload = {"n": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(BadDimensionError):
        state_from_json(json.dumps(payload))


def test_two_pass_run_matches_dense_reference_on_long_circuits():
    """Long random circuits, in which every ordered qubit pair carries CNOTs
    (adjacent and not, control above and below) with and without one-qubit
    gates pending on either qubit, against the gate-by-gate dense product, on
    one state, a (2^n, 3) stack and a Fortran-ordered stack."""
    rng = np.random.default_rng(14)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(7, 10):
        pairs = [(c, t) for c in range(1, n + 1) for t in range(1, n + 1) if c != t]
        gates = []
        for c, t in [pairs[i] for i in rng.permutation(len(pairs))] * 3:
            for q in rng.choice([c, t, int(rng.integers(1, n + 1))], size=rng.integers(0, 5)):
                gates.append(OneQubitGate(int(q), haar_unitary(2, rng)))
            gates.append(Cnot(c, t))
        gates += [OneQubitGate(q, haar_unitary(2, rng)) for q in range(1, n + 1)]
        assert len(gates) >= 300
        psi = haar_state(n, rng)
        stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
        expected = np.column_stack([psi, stack])
        cnot = {(c, t): _dense(n, {c: p0}) + _dense(n, {c: p1, t: x}) for c, t in pairs}
        for g in gates:
            if isinstance(g, Cnot):
                expected = cnot[g.control, g.target] @ expected
            else:
                above, below = np.eye(1 << (g.target - 1)), np.eye(1 << (n - g.target))
                expected = np.kron(np.kron(above, g.matrix), below) @ expected
        c = Circuit(n, tuple(gates))
        fortran = np.asfortranarray(stack)
        assert np.max(np.abs(run(c, psi) - expected[:, 0])) <= 1e-12
        assert np.max(np.abs(run(c, stack) - expected[:, 1:])) <= 1e-12
        assert np.max(np.abs(run(c, fortran) - expected[:, 1:])) <= 1e-12
        assert np.array_equal(fortran, stack)  # the input is not modified


# -- three-qubit windows -------------------------------------------------------

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _dense_product(n, gates):
    """The gate-by-gate dense product of the gates on n qubits."""
    total = np.eye(1 << n, dtype=complex)
    for g in gates:
        if isinstance(g, Cnot):
            total = (_dense(n, {g.control: P0}) + _dense(n, {g.control: P1, g.target: X})) @ total
        else:
            total = _dense(n, {g.target: g.matrix}) @ total
    return total


def _window_circuit(n, blocks, rng):
    """CNOTs on random ordered pairs of each block's qubits, block after block,
    with one-qubit gates pending on either qubit or elsewhere."""
    gates = []
    for qubits, count in blocks:
        for _ in range(count):
            c, t = (int(q) for q in rng.choice(qubits, size=2, replace=False))
            for q in rng.choice([c, t, int(rng.integers(1, n + 1))], size=rng.integers(0, 3)):
                gates.append(OneQubitGate(int(q), haar_unitary(2, rng)))
            gates.append(Cnot(c, t))
    gates += [OneQubitGate(q, haar_unitary(2, rng)) for q in range(1, n + 1)]
    return Circuit(n, tuple(gates))


def _cnot_pairs(c):
    return [(g.control, g.target) for g in c.gates if isinstance(g, Cnot)]


# (n, blocks): consecutive blocks together touch more than three qubits, so
# each block is one window
WINDOW_CASES = [
    (2, [([1, 2], 5)]),
    (3, [([1, 2, 3], 40)]),
    (3, [([2, 3], 3)]),
    # adjacent triples at the top and the bottom, one kernel each side of
    # every power-of-two boundary up to 33
    (6, [([1, 2, 3], 15), ([4, 5, 6], 16), ([1, 2, 3], 17), ([4, 5, 6], 31),
         ([1, 2, 3], 32), ([4, 5, 6], 33), ([1, 2, 3], 1)]),
    # triples that are not adjacent, and windows of one kernel
    (7, [([1, 3, 5], 9), ([2, 4, 7], 1), ([1, 6], 1), ([3, 5], 1), ([1, 2, 7], 20),
         ([3, 4, 6], 2), ([1, 7], 1), ([2, 5], 1)]),
    # two-qubit windows widened at the top, at the bottom, into a gap of one
    # and across a wider gap
    (5, [([1, 2], 6), ([4, 5], 6), ([1, 3], 4), ([2, 5], 4), ([3, 4], 1), ([1, 5], 1)]),
    # windows of 17-20 kernels, each length twice and in mixed order, with
    # shorter ones between: the lengths a Haar n = 10 circuit gives
    (6, [([1, 2, 3], 19), ([4, 5, 6], 17), ([1, 2, 3], 20), ([4, 5, 6], 2), ([1, 2, 3], 18),
         ([4, 5, 6], 19), ([1, 2, 3], 1), ([4, 5, 6], 20), ([1, 2, 3], 17), ([4, 5, 6], 18)]),
    (7, [([1, 3, 5], 18), ([2, 4, 7], 20), ([1, 6], 17), ([3, 4, 5], 19), ([2, 7], 3)]),
]


@pytest.mark.parametrize("n, blocks", WINDOW_CASES)
def test_window_path_matches_dense_reference(n, blocks, monkeypatch):
    """With every state on the window path, circuits built to give windows of
    each layout and length match the gate-by-gate dense product on one state,
    a (2^n, 3) stack and a Fortran-ordered stack, whose input is left
    unmodified."""
    monkeypatch.setattr(simulate, "_WINDOW_MIN_WORK", 1)
    rng = np.random.default_rng(15 + n)
    c = _window_circuit(n, blocks, rng)
    if n >= 3:
        pairs = _cnot_pairs(c)
        starts, triples = simulate._windows(pairs, n)
        bounds = [*starts, len(pairs)]
        assert np.diff(bounds).tolist() == [count for _, count in blocks]
        for w, ((qubits, _), triple) in enumerate(zip(blocks, triples)):
            touched = {q for pair in pairs[bounds[w] : bounds[w + 1]] for q in pair}
            assert touched <= set(qubits) and touched <= set(triple)
            assert len(triple) == 3 and list(triple) == sorted(triple)
    dense = _dense_product(n, c.gates)
    psi = haar_state(n, rng)
    stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
    fortran = np.asfortranarray(stack)
    assert np.max(np.abs(run(c, psi) - dense @ psi)) <= 1e-12
    assert np.max(np.abs(run(c, stack) - dense @ stack)) <= 1e-12
    assert np.max(np.abs(run(c, fortran) - dense @ stack)) <= 1e-12
    assert np.array_equal(fortran, stack)  # the input is not modified
    assert np.max(np.abs(circuit_unitary(c) - dense)) <= 1e-12


def test_widened_windows_prefer_adjacent_qubits():
    """A window on two qubits takes a third that makes the three adjacent
    where one exists: below the pair, or above it at the top of the register,
    or between the two; across a wider gap, the one above the lower qubit."""
    pairs = [(1, 2), (4, 5), (3, 2), (5, 6), (1, 3), (4, 6), (5, 2)]
    # each pair is its own window: consecutive pairs share no qubit
    starts, triples = simulate._windows(pairs, 6)
    assert starts == list(range(len(pairs)))
    assert triples == [(1, 2, 3), (3, 4, 5), (1, 2, 3), (4, 5, 6), (1, 2, 3), (4, 5, 6), (2, 3, 5)]


@pytest.mark.parametrize("n", range(3, 7))
def test_circuit_unitary_on_the_window_path(n):
    """circuit_unitary runs 2^n columns; a long circuit puts them past the
    work bound, and the windows reproduce the dense product."""
    rng = np.random.default_rng(20 + n)
    c = _random_circuit(n, 4 * (simulate._WINDOW_MIN_WORK >> 2 * n) + 40, rng)
    assert (1 << n) * (1 << n) * len(_cnot_pairs(c)) >= simulate._WINDOW_MIN_WORK
    assert np.max(np.abs(circuit_unitary(c) - _dense_product(n, c.gates))) <= 1e-12


def test_size_rule_picks_the_path_and_both_agree(monkeypatch):
    """Below the work bound (amplitudes x CNOTs) the kernels run one per CNOT,
    above it in windows; both match the dense product."""
    calls = []
    build = simulate._window_products
    monkeypatch.setattr(simulate, "_window_products", lambda *a: calls.append(a) or build(*a))
    rng = np.random.default_rng(21)
    n = 6
    c = _random_circuit(n, 200, rng)
    k = len(_cnot_pairs(c))
    dense = _dense_product(n, c.gates)
    for cols in (1, 2, 4, 8, 16, 32, 64):
        states = np.stack([haar_state(n, rng) for _ in range(cols)], axis=1)
        calls.clear()
        assert np.max(np.abs(run(c, states) - dense @ states)) <= 1e-12
        assert len(calls) == ((1 << n) * cols * k >= simulate._WINDOW_MIN_WORK)
    assert (1 << n) * k < simulate._WINDOW_MIN_WORK <= (1 << n) * 64 * k


@pytest.fixture(scope="module")
def haar_n10_circuit():
    return schmidt_prepare(haar_state(10, 1)).total


def test_haar_n10_windows(haar_n10_circuit):
    """The seed-1 Haar n = 10 circuit's 919 CNOTs fall into at most 200
    windows; each is a maximal run on at most three qubits, which hold its
    CNOTs."""
    pairs = _cnot_pairs(haar_n10_circuit)
    starts, triples = simulate._windows(pairs, 10)
    assert len(pairs) == 919
    assert len(starts) <= 200
    bounds = [*starts, len(pairs)]
    for w, triple in enumerate(triples):
        touched = {q for pair in pairs[bounds[w] : bounds[w + 1]] for q in pair}
        assert touched <= set(triple) and len(triple) == 3
        if w + 1 < len(triples):
            assert len(touched | set(pairs[bounds[w + 1]])) > 3  # maximal


def test_haar_n10_run_memory(haar_n10_circuit):
    """One run of a Haar n = 10 circuit allocates at most 1.5 MB at its peak."""
    state = zero_state(10)
    run(haar_n10_circuit, state)  # warm up lazy set-up outside the measurement
    tracemalloc.start()
    try:
        run(haar_n10_circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


# -- pass 1 on the array form ---------------------------------------------------


def _walk_fold(gates):
    """Pass 1 as a walk over the gate objects: the products pending on each
    CNOT's control and target, flat, and on each qubit at the end, with the
    left-to-right products of the walk, and whether a gate fed each side
    (test-local reference)."""
    pending, cnots, factors, fed = {}, [], [], []
    eye = np.eye(2, dtype=complex)
    for g in gates:
        if isinstance(g, Cnot):
            cnots.append((g.control, g.target))
            fed += (g.control in pending, g.target in pending)
            factors += (pending.pop(g.control, eye), pending.pop(g.target, eye))
        else:
            m = pending.get(g.target)
            pending[g.target] = g.matrix if m is None else g.matrix @ m
    return cnots, factors, pending, fed


def _fold_cases():
    """(name, circuit): long runs on one qubit, no CNOT, no one-qubit gate,
    random mixes and a parsed circuit."""
    rng = np.random.default_rng(23)

    def ones(q, count):
        return [OneQubitGate(q, haar_unitary(2, rng)) for _ in range(count)]

    long_runs = [
        *ones(2, 40), Cnot(2, 4), *ones(4, 30), *ones(2, 25), Cnot(4, 2), *ones(3, 1),
        Cnot(1, 5), *ones(3, 20), *ones(1, 1), *ones(5, 33), Cnot(3, 1),
    ]
    yield "long_runs", Circuit(5, tuple(long_runs))
    yield "no_cnot", Circuit(4, tuple(g for q in (3, 1, 4, 3) for g in ones(q, 3)))
    yield "no_one_qubit_gate", Circuit(5, tuple(g for g in _random_circuit(5, 80, rng).gates
                                                if isinstance(g, Cnot)))
    for n in (3, 6, 8):
        yield f"random_{n}", _random_circuit(n, 300, rng)
    yield "parsed", parse_qasm(emit_qasm(schmidt_prepare(haar_state(7, 3)).total))


@pytest.mark.parametrize("name, c", list(_fold_cases()))
def test_stacked_fold_matches_the_gate_walk(name, c):
    """Both passes of the shared fold give the walk's CNOT pairs, each
    CNOT's factors, the sides a gate fed and the trailing products, in the
    walk's order, bit for bit."""
    cnots, factors, pending, fed = _walk_fold(c.gates)
    ops, mats = c._arrays
    for stacked in (True, False):
        pairs, folded, sides, trailing = circuit._fold(ops, mats, c.n_qubits, stacked)
        assert pairs.tolist() == [list(p) for p in cnots]
        assert folded.shape == (2 * len(cnots), 2, 2)
        if cnots:
            assert folded.tobytes() == np.array(factors).tobytes()
        assert sides.tolist() == fed
        assert [q for q, _ in trailing] == list(pending)
        for (_, m), expected in zip(trailing, pending.values()):
            assert m.tobytes() == expected.tobytes()


@pytest.mark.parametrize("path", ["window", "kernel"])
@pytest.mark.parametrize("name, c", list(_fold_cases()))
def test_run_matches_the_gate_walk_bit_for_bit(name, c, path, monkeypatch):
    """On either path, run's output on one state and on a (2^n, 3) stack is
    bit-identical to a run whose pass 1 is the gate walk, and run folds
    with the stacked pass exactly on the window path."""
    limit = 1 if path == "window" else 1 << 62
    monkeypatch.setattr(simulate, "_WINDOW_MIN_WORK", limit)
    rng = np.random.default_rng(24)
    n = c.n_qubits
    states = [haar_state(n, rng), np.stack([haar_state(n, rng) for _ in range(3)], axis=1)]
    outputs = [run(c, s) for s in states]
    calls = []

    def walk(ops, mats, n, stacked):
        calls.append("stack" if stacked else "gates")
        cnots, factors, pending, fed = _walk_fold(c.gates)
        pairs = np.array(cnots, dtype=np.intp).reshape(-1, 2)
        factors = np.array(factors, dtype=complex).reshape(-1, 2, 2)
        return pairs, factors, np.array(fed, dtype=bool), list(pending.items())

    monkeypatch.setattr(simulate, "_fold", walk)
    for s, out in zip(states, outputs):
        assert np.array_equal(run(c, s), out)
    windowed = path == "window" and any(isinstance(g, Cnot) for g in c.gates)
    assert calls == ["stack" if windowed else "gates"] * len(states)


def test_stacked_fold_time_is_linear_in_long_runs():
    """Each rank round of the stacked fold reads only its own gates: a run
    of 10000 gates on one qubit after 300000 others folds in well under a
    second, where rounds that each scanned every gate would take seconds."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    block = [[1, 0], [2, 0], [1, 2], [3, 0], [4, 0], [3, 4]]
    ops = np.array(block * 50_000 + [[5, 0]] * 10_000 + [[5, 1]], dtype=np.intp)
    mats = np.broadcast_to(h, (np.count_nonzero(ops[:, 1] == 0), 2, 2)).copy()
    start = time.perf_counter()
    pairs, factors, fed, trailing = circuit._fold(ops, mats, 5, True)
    assert time.perf_counter() - start < 0.5
    assert len(pairs) == 100_001 and trailing == []
    assert np.allclose(factors[-2], np.eye(2))  # H^10000 on the last CNOT's control
