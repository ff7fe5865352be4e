"""Synthesis primitives: 1q, 2q state prep, multiplexors, k-qubit recursion."""

import numpy as np
import pytest
import scipy.linalg as sla

from statesynth import simulate, synthesis, twoqubit
from statesynth import (
    BadLengthError,
    Circuit,
    NonFiniteError,
    NotNormalizedError,
    NotUnitaryError,
    OneQubitGate,
    SynthesisError,
    circuit_unitary,
    cnot_count,
    demultiplex,
    fidelity,
    haar_state,
    haar_unitary,
    phase_aligned_distance,
    run,
    schmidt_prepare,
    synth_2q_state,
    synth_kq_unitary,
    uc_su2_up_to_diagonal,
    unitary_upper_bound,
    zero_state,
)


def _ry(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def _rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


# -- one-qubit: synth_kq_unitary at k = 1 -----------------------------------


def test_synth_1q_identity():
    c = synth_kq_unitary(np.eye(2))
    assert cnot_count(c) == 0 and len(c.gates) == 1


def test_synth_1q_pauli_z():
    c = synth_kq_unitary(np.diag([1.0, -1.0]))
    assert phase_aligned_distance(circuit_unitary(c), np.diag([1.0, -1.0])) < 1e-12


def test_synth_1q_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = haar_unitary(2, rng)
        c = synth_kq_unitary(u)
        assert phase_aligned_distance(circuit_unitary(c), u) < 1e-9


def test_synth_1q_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        synth_kq_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_two_qubit_blocks_keep_their_typed_errors():
    """A 4x4 block a little off unitary raises NotUnitaryError naming the
    k-qubit unitary, and one with a NaN entry NonFiniteError, alone or as the
    second block of a call."""
    rng = np.random.default_rng(15)
    good = haar_unitary(4, rng)
    off = haar_unitary(4, rng) * (1 + 1e-6)
    nan = haar_unitary(4, rng)
    nan[1, 2] = np.nan
    for bad, error in ((off, NotUnitaryError), (nan, NonFiniteError)):
        with pytest.raises(error, match="k-qubit unitary"):
            synth_kq_unitary(bad)
        with pytest.raises(error, match="k-qubit unitary"):
            synthesis._synth_blocks([(good, 1), (bad, 3)], 4)


# -- two-qubit state prep ----------------------------------------------------


def test_synth_2q_state_basis_state():
    c = synth_2q_state(np.array([1, 0, 0, 0], dtype=complex))
    assert cnot_count(c) == 0


def test_synth_2q_state_bell_needs_one():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    c = synth_2q_state(bell)
    assert cnot_count(c) == 1
    assert fidelity(run(c, zero_state(2)), bell) > 1 - 1e-9


def test_synth_2q_state_products_need_none():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = np.kron(haar_state(1, rng), haar_state(1, rng))
        c = synth_2q_state(s)
        assert cnot_count(c) == 0
        assert fidelity(run(c, zero_state(2)), s) > 1 - 1e-9


def test_synth_2q_state_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = haar_state(2, rng)
        c = synth_2q_state(s)
        assert cnot_count(c) <= 1
        assert fidelity(run(c, zero_state(2)), s) > 1 - 1e-9


def test_synth_2q_state_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        synth_2q_state(np.array([1, 1, 0, 0], dtype=complex))


# -- multiplexed rotations ---------------------------------------------------


def _ucr_gates(axis, angles, controls, target):
    """The Gray-code ladder of one multiplexed rotation; with no control, one gate."""
    angles = np.asarray(angles, dtype=float)[None, :]
    mats = synthesis._ladder_rotations(int(axis == "Z"), angles)[0]
    if not controls:
        return [OneQubitGate(target, mats[0])]
    return synthesis._ladder_gates(mats, tuple(controls), target)


def _ucr_circuit(axis, angles, controls, target):
    """The Gray-code ladder of one multiplexed rotation as a circuit."""
    return Circuit(max([target, *controls]), tuple(_ucr_gates(axis, angles, controls, target)))


def test_multiplexed_rotation_no_controls():
    c = _ucr_circuit("Y", [0.7], [], 1)
    assert cnot_count(c) == 0
    assert phase_aligned_distance(circuit_unitary(c), _ry(0.7)) < 1e-12


def test_multiplexed_rotation_one_control():
    t0, t1 = 0.9, -1.7
    c = _ucr_circuit("Y", [t0, t1], [1], 2)
    assert cnot_count(c) == 2
    u = circuit_unitary(c)
    assert np.max(np.abs(u[:2, :2] - _ry(t0))) < 1e-12
    assert np.max(np.abs(u[2:, 2:] - _ry(t1))) < 1e-12


@pytest.mark.parametrize("axis,rot", [("Y", _ry), ("Z", _rz)])
def test_multiplexed_rotation_two_controls(axis, rot):
    rng = np.random.default_rng(3)
    angles = rng.uniform(-np.pi, np.pi, 4)
    c = _ucr_circuit(axis, angles, [1, 2], 3)
    assert cnot_count(c) == 4
    u = circuit_unitary(c)
    expected = np.zeros((8, 8), dtype=complex)
    for j in range(4):
        expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot(angles[j])
    assert np.max(np.abs(u - expected)) < 1e-10


def test_multiplexed_rotation_zero_angles_is_identity():
    c = _ucr_circuit("Y", np.zeros(4), [1, 2], 3)
    assert cnot_count(c) == 4  # the ladder CNOTs cancel pairwise in simulation
    rng = np.random.default_rng(4)
    s = haar_state(3, rng)
    assert fidelity(run(c, s), s) > 1 - 1e-12


@pytest.mark.parametrize("axis", ["Y", "Z"])
@pytest.mark.parametrize("controls", [[], [1], [1, 2]])
def test_multiplexed_rotation_rejects_nan_angle(axis, controls):
    """The ladder's rotations are checked as one stack; a NaN angle still
    fails that check with the typed error."""
    angles = np.full(1 << len(controls), 0.3)
    angles[-1] = np.nan
    with pytest.raises(NonFiniteError):
        _ucr_gates(axis, angles, controls, len(controls) + 1)


# -- demultiplexing ----------------------------------------------------------


def test_demultiplex_equal_pair():
    rng = np.random.default_rng(5)
    u = haar_unitary(4, rng)
    v, d, w = demultiplex(u, u)
    # u0 u1^dag = I, so the principal branch puts every d entry at +1
    assert np.max(np.abs(d - 1.0)) < 1e-7
    assert np.max(np.abs(v @ np.diag(d) @ w - u)) < 1e-9


def test_demultiplex_diagonal_pair():
    v, d, w = demultiplex(np.eye(2), np.diag([1.0, -1.0]).astype(complex))
    assert np.max(np.abs(np.sort((d**2).real) - np.array([-1.0, 1.0]))) < 1e-12


def test_demultiplex_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u0, u1 = haar_unitary(4, rng), haar_unitary(4, rng)
        v, d, w = demultiplex(u0, u1)
        assert np.max(np.abs(v @ np.diag(d) @ w - u0)) < 1e-9
        assert np.max(np.abs(v @ np.diag(d.conj()) @ w - u1)) < 1e-9
        # principal branch keeps angles in (-pi/2, pi/2]
        assert np.all(np.angle(d) > -np.pi / 2 - 1e-12)
        assert np.all(np.angle(d) <= np.pi / 2 + 1e-12)


# -- uniformly controlled SU(2) ----------------------------------------------


@pytest.mark.parametrize("n_controls", [0, 1, 2, 3])
def test_uc_su2_up_to_diagonal(n_controls):
    rng = np.random.default_rng(7 + n_controls)
    mats = [haar_unitary(2, rng) for _ in range(1 << n_controls)]
    controls = list(range(1, n_controls + 1))
    target = n_controls + 1
    gates, delta = uc_su2_up_to_diagonal(mats, controls, target)
    circ = Circuit(target, tuple(gates))
    assert cnot_count(circ) == (1 << n_controls) - 1
    dim = 1 << target
    expected = np.zeros((dim, dim), dtype=complex)
    for j, m in enumerate(mats):
        expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = m
    rebuilt = np.diag(delta) @ circuit_unitary(circ)
    assert np.max(np.abs(rebuilt - expected)) < 1e-9


def test_uc_su2_rejects_bad_count():
    with pytest.raises(BadLengthError):
        uc_su2_up_to_diagonal([np.eye(2)] * 3, [1, 2], 3)


# -- k-qubit unitaries -------------------------------------------------------


def test_kq_ceiling_values():
    assert unitary_upper_bound(1) == 0
    assert unitary_upper_bound(2) == 3
    assert unitary_upper_bound(3) == 20
    assert unitary_upper_bound(4) == 100


@pytest.mark.parametrize("k,dim,exact", [(2, 4, 3), (3, 8, 20), (4, 16, 100)])
def test_kq_exact_counts_on_generic_inputs(k, dim, exact):
    """Generic unitaries exercise the full recursion: count hits the closed form."""
    rng = np.random.default_rng(10 + k)
    for _ in range(3):
        u = haar_unitary(dim, rng)
        c = synth_kq_unitary(u)
        assert cnot_count(c) == exact
        assert phase_aligned_distance(circuit_unitary(c), u) < 1e-8


def test_kq_counts_for_k1():
    rng = np.random.default_rng(14)
    c = synth_kq_unitary(haar_unitary(2, rng))
    assert cnot_count(c) == 0


def test_kq_structured_inputs_cost_no_more():
    rng = np.random.default_rng(15)
    ident = synth_kq_unitary(np.eye(8))
    assert cnot_count(ident) <= 20
    assert phase_aligned_distance(circuit_unitary(ident), np.eye(8)) < 1e-8
    # block-diagonal multiplexor
    u = np.zeros((8, 8), dtype=complex)
    u[:4, :4] = haar_unitary(4, rng)
    u[4:, 4:] = haar_unitary(4, rng)
    c = synth_kq_unitary(u)
    assert cnot_count(c) <= 20
    assert phase_aligned_distance(circuit_unitary(c), u) < 1e-8


def _near_tensor(rng, left_dim, right_dim, eps):
    product = np.kron(haar_unitary(left_dim, rng), haar_unitary(right_dim, rng))
    dim = left_dim * right_dim
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return product @ sla.expm(1j * eps * (g + g.conj().T))


def _check_kq(u, k):
    c = synth_kq_unitary(u)
    assert cnot_count(c) <= unitary_upper_bound(k)
    assert phase_aligned_distance(circuit_unitary(c), u) < 1e-8


def test_kq_near_tensor_k3():
    """Three-qubit unitaries 1e-8 off a 1|2 tensor product; every leaf splits."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            _check_kq(_near_tensor(rng, 2, 4, 1e-8), 3)


def test_kq_near_tensor_k4_pinned():
    """Near-tensor four-qubit inputs with leaves hard against the two-CNOT class.

    From a stream of 144 inputs (eps = 0 or log-uniform in [1e-12, 1e-5],
    cuts 1|3, 2|2 and 3|1), these are the ones where a twist taken from the
    gamma trace alone leaves a leaf that needs three CNOTs.
    """
    rng = np.random.default_rng(2024)
    eps_values = [0.0, *(10.0 ** rng.uniform(-12, -5, 47))]
    inputs = [
        _near_tensor(rng, 1 << cut, 1 << (4 - cut), eps) for eps in eps_values for cut in (1, 2, 3)
    ]
    for index in (59, 94, 109, 133):
        _check_kq(inputs[index], 4)


def test_kq_count_ceiling_sweep():
    rng = np.random.default_rng(16)
    for k, dim in ((1, 2), (2, 4), (3, 8)):
        for _ in range(20):
            u = haar_unitary(dim, rng)
            c = synth_kq_unitary(u)
            assert cnot_count(c) <= unitary_upper_bound(k)
            assert phase_aligned_distance(circuit_unitary(c), u) < 1e-8


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    func = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("k,splits", [(3, 3), (4, 15)])
def test_kq_leaves_route_without_simulation(monkeypatch, k, splits):
    """All 4^(k-2) leaves are checked in one stack, every leaf but the first
    split up to a diagonal, and no leaf check simulates a circuit."""
    checks = _counting(monkeypatch, twoqubit, "_check_leaves")
    runs_seen = _counting(monkeypatch, simulate, "run")
    u = haar_unitary(1 << k, np.random.default_rng(40 + k))
    c = synth_kq_unitary(u)
    ((stack,),) = checks
    assert len(stack) == splits + 1 == 4 ** (k - 2)
    assert sum(leaf.twisted for leaf in stack) == splits
    assert runs_seen == []
    assert cnot_count(c) == unitary_upper_bound(k)


def _mutate_one_call(monkeypatch, module, name, at, mutate_args=None, mutate_result=None):
    """Replace module.name so that only its call number ``at`` is mutated.

    ``mutate_args`` rewrites that call's arguments, ``mutate_result`` its
    result; every other call goes through unchanged.
    """
    func = getattr(module, name)
    calls = []

    def wrapped(*args):
        mutated = len(calls) == at
        calls.append(args)
        if mutated and mutate_args is not None:
            args = mutate_args(*args)
        out = func(*args)
        return mutate_result(out) if mutated and mutate_result is not None else out

    monkeypatch.setattr(module, name, wrapped)


_RNG_MUTATION = np.random.default_rng(41)
# one-leaf public functions, a 16-leaf stack, and stacks of 2 and 32 leaves
_ENTRY_POINTS = (
    (twoqubit.synth_2q_unitary, haar_unitary(4, _RNG_MUTATION)),
    (twoqubit.two_qubit_up_to_diagonal, haar_unitary(4, _RNG_MUTATION)),
    (synth_kq_unitary, haar_unitary(16, _RNG_MUTATION)),
    (schmidt_prepare, haar_state(8, _RNG_MUTATION)),
)


def _mutated_calls(monkeypatch, name):
    """(entry point, its argument, call index) for the first, middle and last
    call of twoqubit.name in each entry point."""
    for synth, arg in _ENTRY_POINTS:
        calls = _counting(monkeypatch, twoqubit, name)
        synth(arg)
        monkeypatch.undo()
        for at in sorted({0, len(calls) // 2, len(calls) - 1}):
            yield synth, arg, at


def test_perturbed_leaf_gate_fails_the_leaf_check(monkeypatch):
    """An x-rotation of one leaf of a stack emitted about 1e-7 off its exact
    angle must fail the 1e-9 leaf check; the other leaves are exact."""
    for synth, arg, at in _mutated_calls(monkeypatch, "_rx"):
        _mutate_one_call(monkeypatch, twoqubit, "_rx", at, mutate_args=lambda t: (t + 2e-7,))
        with pytest.raises(SynthesisError):
            synth(arg)
        monkeypatch.undo()
        synth(arg)


@pytest.mark.parametrize("mutation", ["swap", "drop"])
def test_reordered_leaf_gate_fails_the_leaf_check(monkeypatch, mutation):
    """The leaf check folds each leaf's emitted gate list itself: swapping the
    first two interior gates of one leaf of a stack (non-commuting in both
    the two- and the three-CNOT interior), or dropping the first, must fail
    it.  A swap inside the three-CNOT interior keeps the leaf's gate layout,
    so it folds in the same group as the other three-CNOT leaves; the other
    mutations fold in a group of their own."""

    def mutated(gates):
        if mutation == "swap":
            gates[2], gates[3] = gates[3], gates[2]
        else:
            del gates[2]
        return gates

    for synth, arg, at in _mutated_calls(monkeypatch, "_leaf_gates"):
        _mutate_one_call(monkeypatch, twoqubit, "_leaf_gates", at, mutate_result=mutated)
        with pytest.raises(SynthesisError):
            synth(arg)
        monkeypatch.undo()
        synth(arg)
