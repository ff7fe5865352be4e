"""Schmidt pipeline: decomposition, baseline cascade, four phases, transform."""

import numpy as np
import pytest

from statesynth import (
    NotNormalizedError,
    TooFewQubitsError,
    baseline_prepare,
    circuit_unitary,
    cnot_count,
    depth,
    fidelity,
    haar_state,
    phase_aligned_distance,
    run,
    scheme_depth_upper_bound,
    scheme_upper_bound,
    schmidt_decompose,
    schmidt_prepare,
    transform,
    unitarity_defect,
    zero_state,
)


# -- schmidt_decompose ---------------------------------------------------------


def test_schmidt_zero_state():
    s = zero_state(4)
    sf = schmidt_decompose(s)
    assert sf.k1 == 2 and sf.k2 == 2
    assert np.allclose(sorted(np.abs(sf.alphas), reverse=True), [1, 0, 0, 0], atol=1e-12)
    assert fidelity(sf.reassemble(), s) > 1 - 1e-10


def test_schmidt_ghz():
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    sf = schmidt_decompose(ghz)
    assert np.allclose(sorted(np.abs(sf.alphas), reverse=True), [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
    assert fidelity(sf.reassemble(), ghz) > 1 - 1e-10


def test_schmidt_random_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        s = haar_state(n, rng)
        sf = schmidt_decompose(s)
        assert sf.k1 == n // 2 and sf.k2 == n - n // 2
        assert abs(np.sum(np.abs(sf.alphas) ** 2) - 1.0) < 1e-10
        assert sf.alphas[0].real >= 0 and abs(sf.alphas[0].imag) < 1e-12
        assert unitarity_defect(sf.basis_left) < 1e-9
        assert unitarity_defect(sf.basis_right) < 1e-9
        assert fidelity(sf.reassemble(), s) > 1 - 1e-10


def test_schmidt_rejects_bad_input():
    with pytest.raises(NotNormalizedError):
        schmidt_decompose(np.ones(4, dtype=complex))
    with pytest.raises(TooFewQubitsError):
        schmidt_decompose(np.array([1.0, 0.0], dtype=complex))


# -- baseline_prepare ----------------------------------------------------------


@pytest.mark.parametrize("n,ceiling", [(1, 0), (2, 1), (3, 4), (4, 11), (5, 26)])
def test_baseline_counts_and_fidelity(n, ceiling):
    rng = np.random.default_rng(20 + n)
    for _ in range(10):
        s = haar_state(n, rng)
        c = baseline_prepare(s)
        assert cnot_count(c) <= ceiling
        assert fidelity(run(c, zero_state(n)), s) > 1 - 1e-9


def test_baseline_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        baseline_prepare(np.ones(8, dtype=complex))


# -- schmidt_prepare -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,cnot_max,depth_max", [(2, 1, 1), (3, 4, 4), (4, 9, 5), (5, 26, 22), (6, 47, 25)]
)
def test_prepare_counts_and_fidelity(n, cnot_max, depth_max):
    rng = np.random.default_rng(30 + n)
    for _ in range(10):
        s = haar_state(n, rng)
        plan = schmidt_prepare(s)
        assert cnot_count(plan.total) <= cnot_max
        assert depth(plan.total) <= depth_max
        assert fidelity(run(plan.total, zero_state(n)), s) > 1 - 1e-9


def test_prepare_zero_state_input():
    plan = schmidt_prepare(zero_state(4))
    out = run(plan.total, zero_state(4))
    assert fidelity(out, zero_state(4)) > 1 - 1e-12


def test_prepare_phase_structure():
    rng = np.random.default_rng(40)
    for n in (3, 5, 7):
        plan = schmidt_prepare(haar_state(n, rng))
        sf = plan.schmidt
        k1, k2 = sf.k1, sf.k2
        # phase 2 is the CNOT fan, control j -> target j+k2: it writes the
        # low k1 qubits of the right half, whose first qubit stays |0>
        fan = [(g.control, g.target) for g in plan.phase2.gates]
        assert fan == [(j, j + k2) for j in range(1, k1 + 1)]
        # phases 3 and 4 act on disjoint halves
        p3_qubits = {q for g in plan.phase3.gates for q in ((g.target,) if not hasattr(g, "control") else (g.control, g.target))}
        p4_qubits = {q for g in plan.phase4.gates for q in ((g.target,) if not hasattr(g, "control") else (g.control, g.target))}
        assert p3_qubits <= set(range(1, k1 + 1)) and p4_qubits <= set(range(k1 + 1, n + 1))
        # phase 4 is the right Schmidt basis itself, with no column reordering
        expected = np.kron(np.eye(1 << k1), sf.basis_right)
        assert phase_aligned_distance(circuit_unitary(plan.phase4), expected) < 1e-9


def test_phases_3_and_4_commute():
    rng = np.random.default_rng(41)
    for n in (4, 5):
        s = haar_state(n, rng)
        plan = schmidt_prepare(s)
        mid = run(plan.phase2, run(plan.phase1, zero_state(n)))
        a = run(plan.phase4, run(plan.phase3, mid))
        b = run(plan.phase3, run(plan.phase4, mid))
        assert np.max(np.abs(a - b)) < 1e-12


def test_depth_decomposes_over_phases():
    rng = np.random.default_rng(42)
    for n in (4, 5, 6):
        plan = schmidt_prepare(haar_state(n, rng))
        bound = depth(plan.phase1) + 1 + max(depth(plan.phase3), depth(plan.phase4))
        assert depth(plan.total) <= bound


def test_product_states_prepare_each_half():
    # Schmidt rank one across the cut: no coefficient load and no fan
    rng = np.random.default_rng(44)
    s = np.kron(haar_state(2, rng), haar_state(2, rng))
    plan = schmidt_prepare(s)
    assert fidelity(run(plan.total, zero_state(4)), s) > 1 - 1e-9
    assert plan.report.per_phase == {"P1": 0, "P2": 0, "P3": 1, "P4": 1}


def _structured_states(n, rng):
    dim = 1 << n
    basis = np.zeros(dim, dtype=complex)
    basis[5 % dim] = 1.0
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    w = np.zeros(dim, dtype=complex)
    w[[1 << j for j in range(n)]] = 1 / np.sqrt(n)
    product = np.kron(haar_state(n // 2, rng), haar_state(n - n // 2, rng))
    return {"basis": basis, "ghz": ghz, "w": w, "product": product}


@pytest.mark.parametrize("n", range(2, 11))
def test_basis_states_cost_no_cnot(n):
    dim = 1 << n
    for index in sorted({0, 5 % dim, dim - 1}):
        s = np.zeros(dim, dtype=complex)
        s[index] = 1.0
        plan = schmidt_prepare(s)
        assert cnot_count(plan.total) == 0
        assert fidelity(run(plan.total, zero_state(n)), s) >= 1 - 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_structured_states_within_ceilings(n):
    rng = np.random.default_rng(45 + n)
    for name, s in _structured_states(n, rng).items():
        plan = schmidt_prepare(s)
        assert cnot_count(plan.total) <= scheme_upper_bound(n), name
        assert depth(plan.total) <= scheme_depth_upper_bound(n), name
        assert fidelity(run(plan.total, zero_state(n)), s) >= 1 - 1e-9, name


@pytest.mark.parametrize("eps", [-0.9e-8, 0.6e-8, 0.9e-8])
@pytest.mark.parametrize("n", range(1, 9))
def test_states_off_norm_within_tolerance(n, eps):
    # require_normalized accepts |norm - 1| <= 1e-8; every accepted state
    # must compile, with the loaders fed its unit vector
    basis = np.zeros(1 << n, dtype=complex)
    basis[5 % (1 << n)] = 1.0
    for s in (haar_state(n, 1), basis):
        s = s * (1 + eps)
        unit = s / np.linalg.norm(s)
        for c in (schmidt_prepare(s).total, baseline_prepare(s)):
            assert fidelity(run(c, zero_state(n)), unit) >= 1 - 1e-9


def test_prepare_rejects_bad_inputs():
    with pytest.raises(NotNormalizedError):
        schmidt_prepare(np.ones(16, dtype=complex))
    with pytest.raises(NotNormalizedError):
        transform(haar_state(3, 1), np.ones(8, dtype=complex))


def test_prepare_one_qubit_state():
    for s in (np.array([0.6, 0.8]), np.array([0.6, 0.8j]), np.array([0, 1]), haar_state(1, 3)):
        plan = schmidt_prepare(s)
        assert len(plan.total) == len(plan.phase1) == 1
        assert cnot_count(plan.total) == 0 and plan.report.depth == 0
        assert plan.report.per_phase == {"P1": 0, "P2": 0, "P3": 0, "P4": 0}
        assert fidelity(run(plan.total, zero_state(1)), s) >= 1 - 1e-9
        assert fidelity(plan.schmidt.reassemble(), s) >= 1 - 1e-9


# -- transform -----------------------------------------------------------------


def test_transform_identity_pair():
    rng = np.random.default_rng(50)
    psi = haar_state(4, rng)
    c = transform(psi, psi)
    assert fidelity(run(c, psi), psi) > 1 - 1e-9
    assert cnot_count(c) <= 18


def test_transform_from_zero_matches_prepare():
    rng = np.random.default_rng(51)
    phi = haar_state(4, rng)
    c = transform(zero_state(4), phi)
    assert fidelity(run(c, zero_state(4)), phi) > 1 - 1e-9


def test_transform_random_pairs():
    rng = np.random.default_rng(52)
    for _ in range(10):
        psi, phi = haar_state(4, rng), haar_state(4, rng)
        c = transform(psi, phi)
        assert cnot_count(c) <= 18
        assert fidelity(run(c, psi), phi) > 1 - 1e-9


def test_transform_rejects_mismatched_sizes():
    from statesynth import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        transform(zero_state(2), zero_state(3))
