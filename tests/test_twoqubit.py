"""Two-qubit synthesis: per-class CNOT counts and operator accuracy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import statesynth
from statesynth import (
    BadDimensionError,
    NonFiniteError,
    NotUnitaryError,
    circuit_unitary,
    cnot_count,
    haar_unitary,
    kak_decompose,
    phase_aligned_distance,
    synth_2q_unitary,
    two_qubit_up_to_diagonal,
)

CNOT_12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _check(u, max_cnots, tol=1e-9):
    c = synth_2q_unitary(u)
    assert cnot_count(c) <= max_cnots
    assert phase_aligned_distance(circuit_unitary(c), u) <= tol
    return c


def test_identity_needs_no_cnot():
    assert cnot_count(_check(np.eye(4), 0)) == 0


def test_cnot_itself():
    assert cnot_count(_check(CNOT_12, 1)) == 1
    assert cnot_count(_check(CNOT_21, 1)) == 1


def test_cz_needs_one():
    assert cnot_count(_check(np.diag([1, 1, 1, -1]).astype(complex), 1)) == 1


def test_swap_needs_three():
    assert cnot_count(_check(SWAP, 3)) == 3


def test_tensor_products_need_none():
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        assert cnot_count(_check(u, 0)) == 0


def test_one_cnot_class():
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = (
            np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ CNOT_12
            @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert cnot_count(_check(u, 1)) == 1


def test_two_cnot_class():
    rng = np.random.default_rng(2)
    for _ in range(25):
        angle = rng.uniform(0.1, np.pi - 0.1)
        controlled_phase = np.diag([1, 1, 1, np.exp(1j * angle)])
        u = (
            np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ controlled_phase
            @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert cnot_count(_check(u, 2)) <= 2


def test_double_cnot_special_case():
    # adjacent opposite-direction CNOTs: the real-spectrum 2-CNOT branch
    u = CNOT_12 @ CNOT_21
    _check(u, 2)


def test_random_unitaries():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = haar_unitary(4, rng)
        c = _check(u, 3)
        # basis-column images, simulated
        mat = circuit_unitary(c)
        k = np.argmax(np.abs(u[:, 0]))
        phase = u[k, 0] / mat[k, 0]
        for col in range(4):
            overlap = abs(np.vdot(mat[:, col] * phase, u[:, col])) ** 2
            assert overlap > 1 - 1e-10


def test_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        synth_2q_unitary(np.ones((4, 4)))


def _with_nan():
    u = np.eye(4, dtype=complex)
    u[1, 2] = np.nan
    return u


@pytest.mark.parametrize("func", [synth_2q_unitary, two_qubit_up_to_diagonal, kak_decompose])
@pytest.mark.parametrize(
    "bad,error",
    [
        (np.eye(3), BadDimensionError),
        (np.eye(8), BadDimensionError),
        (np.eye(2), BadDimensionError),
        (_with_nan(), NonFiniteError),
        (2.0 * np.eye(4), NotUnitaryError),
    ],
    ids=["3x3", "8x8", "2x2", "nan", "2I"],
)
def test_leaf_functions_reject_bad_input_with_typed_errors(func, bad, error):
    """Every public two-qubit function runs the same input check."""
    with pytest.raises(error):
        func(bad)


def test_kak_reconstruction():
    rng = np.random.default_rng(4)
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    for _ in range(25):
        u = haar_unitary(4, rng)
        l1, h, l2, phase = kak_decompose(u)
        interior = sla.expm(1j * (h[0] * xx + h[1] * yy + h[2] * zz))
        rebuilt = phase * (l1 @ interior @ l2)
        assert phase_aligned_distance(rebuilt, u) < 1e-9


def test_up_to_diagonal_splits_random_unitaries():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = haar_unitary(4, rng)
        circ, delta = two_qubit_up_to_diagonal(u)
        assert cnot_count(circ) <= 2
        assert np.max(np.abs(np.abs(delta) - 1.0)) < 1e-12
        rebuilt = circuit_unitary(circ) @ np.diag(delta)
        assert phase_aligned_distance(rebuilt, u) < 1e-9


def test_up_to_diagonal_on_special_inputs():
    for u in (np.eye(4, dtype=complex), CNOT_12, SWAP, np.diag([1, 1j, -1, -1j])):
        circ, delta = two_qubit_up_to_diagonal(u)
        assert cnot_count(circ) <= 2
        rebuilt = circuit_unitary(circ) @ np.diag(delta)
        assert phase_aligned_distance(rebuilt, u) < 1e-9


def _hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def _local(rng):
    return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))


def test_up_to_diagonal_near_special_strata():
    """Blocks a hair off a tensor product, CZ or CNOT, or off the identity.

    Every two-qubit unitary is two CNOTs times a diagonal, so each of these
    splits exactly; near a tensor product or the identity the gamma trace
    fixes the twist only to the square root of rounding.
    """
    rng = np.random.default_rng(17)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for eps in (0.0, *(10.0**-e for e in range(14, 3, -1))):
        for base in (np.eye(4, dtype=complex), cz, CNOT_12, None):
            for _ in range(3):
                perturbation = sla.expm(1j * eps * _hermitian(rng, 4))
                if base is None:
                    u = perturbation
                else:
                    u = _local(rng) @ base @ _local(rng) @ perturbation
                circ, delta = two_qubit_up_to_diagonal(u)
                assert cnot_count(circ) <= 2
                rebuilt = circuit_unitary(circ) @ np.diag(delta)
                assert phase_aligned_distance(rebuilt, u) <= 1e-9


def test_split_never_imports_scipy_optimize():
    """The twist refinement uses no scipy root-finder (its import costs memory)."""
    code = """
import sys
import numpy as np
import statesynth
import statesynth.twoqubit as tq

calls = []
kak = tq._kak_stack
tq._kak_stack = lambda xs: calls.append(1) or kak(xs)
rng = np.random.default_rng(3)
g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
w, v = np.linalg.eigh(g + g.conj().T)
near_tensor = np.kron(statesynth.haar_unitary(2, rng), statesynth.haar_unitary(2, rng))
near_tensor = near_tensor @ v @ np.diag(np.exp(1e-8j * w)) @ v.conj().T
statesynth.two_qubit_up_to_diagonal(near_tensor)
assert len(calls) > 1, "the twist was not refined"
assert "scipy.optimize" not in sys.modules
"""
    src = str(Path(statesynth.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})


def test_synthesis_near_every_special_class():
    """Inputs a tiny distance off each entangling class still synthesize.

    The joint diagonalization behind the Cartan split must resolve eigenvalue
    splittings at every scale; these perturbations used to leave quasi-
    degenerate gamma spectra unresolved.
    """
    rng = np.random.default_rng(7)
    bases = (np.eye(4, dtype=complex), CNOT_12, SWAP, np.diag([1, 1, 1, -1]).astype(complex))
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for base in bases:
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (h + h.conj().T) / 2
            u = base @ sla.expm(1j * eps * h)
            c = synth_2q_unitary(u)
            assert cnot_count(c) <= 3
            assert phase_aligned_distance(circuit_unitary(c), u) <= 1e-9


def test_kq_synthesis_with_near_special_blocks():
    """Multiplexed near-controlled-diagonal blocks must not break the count."""
    from statesynth import synth_kq_unitary

    rng = np.random.default_rng(8)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for eps in (1e-6, 1e-8):
        h1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.zeros((8, 8), dtype=complex)
        u[:4, :4] = cz @ sla.expm(1j * eps * (h1 + h1.conj().T) / 2)
        u[4:, 4:] = cz.conj().T @ sla.expm(1j * eps * (h2 + h2.conj().T) / 2)
        c = synth_kq_unitary(u)
        assert cnot_count(c) <= 20
        assert phase_aligned_distance(circuit_unitary(c), u) <= 1e-8


def test_three_cnot_leaves_share_their_layout():
    """Every three-CNOT leaf at one offset holds the same read-only ops
    array, read off _LAYOUTS, and the same G_MERGE^dag, H and S matrices
    where the layout places them; only its frames and rotations are new, 7
    of its 13 one-qubit matrices."""
    rng = np.random.default_rng(31)
    a, b = (synth_2q_unitary(haar_unitary(4, rng)) for _ in range(2))
    assert cnot_count(a) == cnot_count(b) == 3
    (ops_a, mats_a), (ops_b, mats_b) = a._arrays, b._arrays
    assert ops_a is ops_b and not ops_a.flags.writeable
    assert len(mats_a) == len(mats_b) == 13
    same = [i for i, (m, w) in enumerate(zip(mats_a, mats_b)) if m.tobytes() == w.tobytes()]
    assert same == [2, 3, 4, 5, 8, 9]
