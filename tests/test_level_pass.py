"""The level pass of the cosine-sine tree: pinned counts, the size limit, and
the flag rule that sends a matrix to the single-matrix factorizations.

Every node at one depth of the tree is factored in one stacked pass; a
matrix whose own numbers flag it goes through the public ``cosine_sine`` /
``demultiplex`` instead.  The counts below were taken from the depth-first
recursion that the level pass replaced; four structured rows (a permutation
at k = 3 and 4, a Dicke state at n = 7 and 8) are one CNOT lower since a
node's flag no longer passes to its subtree.  The identity, sum_i |i>|i>
and 6-qubit W and Dicke rows, and a sparse 7-qubit state, are lower again
since a leaf every twist of which meets the class condition takes the
quarter-turn twist that leaves the fewest CNOTs, t = 0 on ties.  The level
pass must match every entry, input by input.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from statesynth import (
    BadDimensionError,
    circuit_unitary,
    cnot_count,
    depth,
    fidelity,
    haar_state,
    haar_unitary,
    phase_aligned_distance,
    run,
    schmidt_prepare,
    synth_kq_unitary,
    unitary_upper_bound,
    zero_state,
)
from statesynth import linalg, synthesis


# -- inputs ------------------------------------------------------------------


def _tensor(k, rng):
    u = np.eye(1, dtype=complex)
    for _ in range(k):
        u = np.kron(u, haar_unitary(2, rng))
    return u


def _block_diagonal(k, rng):
    half = 1 << (k - 1)
    return sla.block_diag(haar_unitary(half, rng), haar_unitary(half, rng))


def _permutation(k, rng):
    return np.eye(1 << k, dtype=complex)[rng.permutation(1 << k)]


def _weight_state(n, weights):
    s = np.array([bin(i).count("1") in weights for i in range(1 << n)], dtype=complex)
    return s / np.linalg.norm(s)


def _bell_pairs(n):
    """Sum_i |i>|i> across the floor(n/2) | ceil(n/2) cut, normalized."""
    k1, k2 = n // 2, n - n // 2
    s = np.zeros(1 << n, dtype=complex)
    s[[(i << k2) + i for i in range(1 << k1)]] = 1.0
    return s / np.linalg.norm(s)


def _structured_states(n):
    return {
        "ghz": _weight_state(n, {0, n}),
        "w": _weight_state(n, {1}),
        "dicke": _weight_state(n, {n // 2}),
        "bell_pairs": _bell_pairs(n),
    }


def _pinned_inputs():
    """(key, kind, target): kind "state" or "unitary"."""
    for n, s in itertools.product(range(2, 11), range(3)):
        yield ("haar", n, s), "state", haar_state(n, s)
    for k, s in itertools.product(range(3, 6), range(2)):
        yield ("kq_haar", k, s), "unitary", haar_unitary(1 << k, s)
    rng = np.random.default_rng(5)
    for k in (3, 4):
        yield ("identity", k), "unitary", np.eye(1 << k, dtype=complex)
        yield ("tensor", k), "unitary", _tensor(k, rng)
        yield ("block_diagonal", k), "unitary", _block_diagonal(k, rng)
        yield ("permutation", k), "unitary", _permutation(k, rng)
    for n in range(4, 9):
        for name, s in _structured_states(n).items():
            yield (name, n), "state", s
    yield ("identity", 5), "unitary", np.eye(32, dtype=complex)
    for n in (9, 10):
        yield ("bell_pairs", n), "state", _bell_pairs(n)


def _synthesize(kind, target):
    return schmidt_prepare(target).total if kind == "state" else synth_kq_unitary(target)


# (CNOTs, depth, gates), input by input; a state's gates are those of its
# folded total, at most one one-qubit gate per qubit between CNOTs
PINNED = {
    ("haar", 2, 0): (1, 1, 4),
    ("haar", 2, 1): (1, 1, 4),
    ("haar", 2, 2): (1, 1, 4),
    ("haar", 3, 0): (4, 4, 14),
    ("haar", 3, 1): (4, 4, 14),
    ("haar", 3, 2): (4, 4, 14),
    ("haar", 4, 0): (9, 5, 28),
    ("haar", 4, 1): (9, 5, 28),
    ("haar", 4, 2): (9, 5, 28),
    ("haar", 5, 0): (26, 22, 74),
    ("haar", 5, 1): (26, 22, 74),
    ("haar", 5, 2): (26, 22, 74),
    ("haar", 6, 0): (47, 25, 128),
    ("haar", 6, 1): (47, 25, 128),
    ("haar", 6, 2): (47, 25, 128),
    ("haar", 7, 0): (127, 103, 336),
    ("haar", 7, 1): (127, 103, 336),
    ("haar", 7, 2): (127, 103, 336),
    ("haar", 8, 0): (213, 104, 562),
    ("haar", 8, 1): (212, 103, 559),
    ("haar", 8, 2): (213, 104, 562),
    ("haar", 9, 0): (557, 440, 1442),
    ("haar", 9, 1): (556, 439, 1439),
    ("haar", 9, 2): (556, 439, 1439),
    ("haar", 10, 0): (919, 461, 2352),
    ("haar", 10, 1): (919, 461, 2352),
    ("haar", 10, 2): (919, 461, 2352),
    ("kq_haar", 3, 0): (20, 20, 69),
    ("kq_haar", 3, 1): (20, 20, 69),
    ("kq_haar", 4, 0): (100, 98, 313),
    ("kq_haar", 4, 1): (100, 98, 313),
    ("kq_haar", 5, 0): (444, 434, 1353),
    ("kq_haar", 5, 1): (444, 434, 1353),
    ("identity", 3): (11, 11, 37),
    ("tensor", 3): (20, 20, 69),
    ("block_diagonal", 3): (20, 20, 69),
    ("permutation", 3): (18, 18, 58),
    ("identity", 4): (67, 64, 209),
    ("tensor", 4): (100, 98, 313),
    ("block_diagonal", 4): (100, 98, 313),
    ("permutation", 4): (99, 97, 310),
    ("ghz", 4): (7, 4, 22),
    ("w", 4): (7, 4, 22),
    ("dicke", 4): (8, 5, 25),
    ("bell_pairs", 4): (3, 2, 10),
    ("ghz", 5): (25, 22, 71),
    ("w", 5): (25, 22, 71),
    ("dicke", 5): (25, 21, 71),
    ("bell_pairs", 5): (14, 13, 38),
    ("ghz", 6): (45, 24, 122),
    ("w", 6): (46, 25, 125),
    ("dicke", 6): (43, 24, 116),
    ("bell_pairs", 6): (29, 16, 74),
    ("ghz", 7): (126, 103, 333),
    ("w", 7): (126, 102, 333),
    ("dicke", 7): (125, 103, 330),
    ("bell_pairs", 7): (85, 69, 210),
    ("ghz", 8): (204, 99, 538),
    ("w", 8): (203, 99, 535),
    ("dicke", 8): (210, 103, 553),
    ("bell_pairs", 8): (138, 65, 340),
    ("identity", 5): (315, 298, 961),
    ("bell_pairs", 9): (386, 299, 932),
    ("bell_pairs", 10): (661, 325, 1578),
}


def test_pinned_inputs_keep_their_counts():
    seen = {}
    for key, kind, target in _pinned_inputs():
        c = _synthesize(kind, target)
        seen[key] = (cnot_count(c), depth(c), len(c.gates))
        if kind == "state":
            f = fidelity(run(c, zero_state(c.n_qubits)), target)
            assert 1.0 - f <= (1e-12 if key[0] == "haar" else 1e-9), key
        else:
            assert phase_aligned_distance(circuit_unitary(c), target) <= 1e-9, key
    assert seen == PINNED


# -- near-structured inputs ----------------------------------------------------

EPSILONS = (1e-12, 1e-9, 1e-6, 1e-3)


def _near_structured_inputs():
    """(row, kind, target): structured unitaries times expm(i eps H), sparse
    states, and eps-perturbed GHZ and sum_i |i>|i> states, one eps per entry
    of EPSILONS."""
    rng = np.random.default_rng(16)
    for k in (3, 4, 5):
        bases = {
            "identity": np.eye(1 << k, dtype=complex),
            "tensor": _tensor(k, rng),
            "block_diagonal": _block_diagonal(k, rng),
            "permutation": _permutation(k, rng),
        }
        for (name, base), eps in itertools.product(bases.items(), EPSILONS):
            h = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            yield (name, k), "unitary", base @ sla.expm(0.5j * eps * (h + h.conj().T))
    for n in range(4, 11):
        s = np.zeros(1 << n, dtype=complex)
        s[rng.choice(1 << n, 5, replace=False)] = rng.normal(size=5) + 1j * rng.normal(size=5)
        yield ("sparse", n), "state", s / np.linalg.norm(s)
        bases = {"ghz": _weight_state(n, {0, n}), "bell_pairs": _bell_pairs(n)}
        for (name, base), eps in itertools.product(bases.items(), EPSILONS):
            s = base + eps * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
            yield (name, n), "state", s / np.linalg.norm(s)


# CNOTs per row, one per entry of EPSILONS (a sparse state has one entry)
NEAR_PINNED = {
    ("identity", 3): (20, 20, 20, 20),
    ("tensor", 3): (20, 20, 20, 20),
    ("block_diagonal", 3): (20, 20, 20, 20),
    ("permutation", 3): (20, 20, 20, 20),
    ("identity", 4): (100, 100, 100, 100),
    ("tensor", 4): (100, 100, 100, 100),
    ("block_diagonal", 4): (100, 100, 100, 100),
    ("permutation", 4): (100, 100, 100, 100),
    ("identity", 5): (444, 444, 444, 444),
    ("tensor", 5): (444, 444, 444, 444),
    ("block_diagonal", 5): (444, 444, 444, 444),
    ("permutation", 5): (444, 444, 444, 444),
    ("sparse", 4): (8,),
    ("ghz", 4): (7, 9, 9, 9),
    ("bell_pairs", 4): (9, 9, 9, 9),
    ("sparse", 5): (23,),
    ("ghz", 5): (25, 25, 26, 26),
    ("bell_pairs", 5): (26, 26, 26, 26),
    ("sparse", 6): (47,),
    ("ghz", 6): (47, 47, 47, 47),
    ("bell_pairs", 6): (47, 47, 47, 47),
    ("sparse", 7): (112,),
    ("ghz", 7): (127, 127, 127, 127),
    ("bell_pairs", 7): (127, 127, 127, 127),
    ("sparse", 8): (204,),
    ("ghz", 8): (212, 212, 213, 213),
    ("bell_pairs", 8): (212, 212, 212, 212),
    ("sparse", 9): (549,),
    ("ghz", 9): (557, 556, 556, 557),
    ("bell_pairs", 9): (548, 557, 556, 557),
    ("sparse", 10): (919,),
    ("ghz", 10): (919, 919, 919, 919),
    ("bell_pairs", 10): (919, 919, 919, 919),
}


def test_near_structured_inputs_keep_their_counts():
    seen = {}
    for row, kind, target in _near_structured_inputs():
        c = _synthesize(kind, target)
        seen[row] = seen.get(row, ()) + (cnot_count(c),)
        if kind == "state":
            assert 1.0 - fidelity(run(c, zero_state(c.n_qubits)), target) <= 1e-9, row
        else:
            assert phase_aligned_distance(circuit_unitary(c), target) <= 1e-9, row
    assert seen == NEAR_PINNED


# -- the size limit ------------------------------------------------------------


def _no_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorization started")

    for module, name in ((np.linalg, "svd"), (np.linalg, "eig"), (sla, "cossin"), (sla, "schur")):
        monkeypatch.setattr(module, name, refuse)


def test_size_limit_is_checked_before_any_factorization(monkeypatch):
    """A 9-qubit unitary and a 17-qubit state exceed MAX_DIM = 256 (a 512x512
    block, a 256 x 512 Schmidt matrix); both are refused at entry."""
    assert linalg.MAX_DIM == 256
    _no_factorization(monkeypatch)
    with pytest.raises(BadDimensionError, match="256"):
        synth_kq_unitary(np.eye(512, dtype=complex))
    basis = np.zeros(1 << 17, dtype=complex)
    basis[5] = 1.0
    with pytest.raises(BadDimensionError, match="256"):
        schmidt_prepare(basis)


# -- one mixed level -----------------------------------------------------------


def _near_unit_cosine(k, rng):
    """A k-qubit unitary whose top-left quadrant has a singular value of 1 - 1e-9."""
    m = 1 << (k - 1)
    theta = rng.uniform(0.2, 1.3, m)
    theta[m // 2] = math.acos(1.0 - 1e-9)
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    left = sla.block_diag(haar_unitary(m, rng), haar_unitary(m, rng))
    right = sla.block_diag(haar_unitary(m, rng), haar_unitary(m, rng))
    return left @ np.block([[c, -s], [s, c]]) @ right


def _recorder(monkeypatch, name, record):
    func = getattr(synthesis, name)

    def recorded(*args):
        out = func(*args)
        record(args, out)
        return out

    monkeypatch.setattr(synthesis, name, recorded)


def test_one_mixed_level_sends_exactly_the_flagged_matrices_to_the_fallback(monkeypatch):
    """Haar blocks share their levels with structured blocks: a GHZ and a W
    Schmidt basis, a permutation, block-diagonal unitaries and one whose
    top-left quadrant has a singular value of 1 - 1e-9.  The single-matrix
    functions see exactly the matrices whose own numbers flag them: a matrix
    (or pair) of a mixed stack goes to the fallback iff it does when it is
    factored alone.  No flag passes down the tree: the children of a flagged
    split, and its own demultiplexed pairs, are judged by their numbers."""
    rng = np.random.default_rng(33)
    haar = [haar_unitary(16, rng), haar_unitary(8, rng), haar_unitary(16, rng)]
    structured = [
        schmidt_prepare(_weight_state(8, {0, 8})).schmidt.basis_left,
        _block_diagonal(4, rng),
        _near_unit_cosine(4, rng),
        schmidt_prepare(_weight_state(6, {1})).schmidt.basis_right,
        _permutation(3, rng),
        _block_diagonal(3, rng),
    ]
    # every block on qubits 1..k of a 4-qubit register
    blocks = [(u, 1) for u in haar + structured]

    split_level, demux_level = synthesis._split_level, synthesis._demux_level
    splits, demuxes, csd_calls, demux_calls = [], [], [], []
    _recorder(monkeypatch, "_split_level", lambda args, out: splits.append(args[0]))
    _recorder(monkeypatch, "_demux_level", lambda args, out: demuxes.append(args))
    _recorder(monkeypatch, "cosine_sine", lambda args, out: csd_calls.append(args[0]))
    _recorder(monkeypatch, "demultiplex", lambda args, out: demux_calls.append(args))
    circuits = synthesis._synth_blocks(blocks, 4)
    fallback_inputs = sorted(u.tobytes() for u in csd_calls)
    fallback_pairs = sorted((u0.tobytes(), u1.tobytes()) for u0, u1 in demux_calls)

    def alone(level, calls, *stacks):
        """Whether each matrix (pair) of a stack is flagged when factored alone."""
        flags = []
        for args in zip(*stacks):
            before = len(calls)
            level(*(a[None] for a in args))
            flags.append(len(calls) > before)
        return np.array(flags)

    # levels k = 4 and k = 3; the roots come first in each, in block order
    us4, us3 = splits
    flags4, flags3 = (alone(split_level, csd_calls, us) for us in splits)
    pairs4, pairs3 = demuxes
    pair_flags4, pair_flags3 = (alone(demux_level, demux_calls, *pairs) for pairs in demuxes)

    def as_bytes(stack, flags):
        return sorted(np.ascontiguousarray(u).tobytes() for u in stack[flags])

    assert fallback_inputs == sorted(as_bytes(us4, flags4) + as_bytes(us3, flags3))
    flagged_pairs = [
        (u0.tobytes(), u1.tobytes())
        for (a, b), flags in ((pairs4, pair_flags4), (pairs3, pair_flags3))
        for u0, u1 in zip(a[flags], b[flags])
    ]
    assert fallback_pairs == sorted(flagged_pairs)

    # the k = 4 roots: Haar, Haar, GHZ basis, block-diagonal, near-unit cosine
    assert flags4.tolist() == [False, False, True, True, False]
    # their right pairs, then their left pairs: only the GHZ basis's flag
    assert pair_flags4.tolist() == [False, False, True, False, False] * 2
    # the k = 3 roots: Haar, W basis, permutation, block-diagonal
    assert flags3[:4].tolist() == [False, True, True, True]
    # four children per k = 4 root: the block-diagonal root's children pass
    # on their own numbers, the GHZ basis's fail on theirs
    children = flags3[4:].reshape(5, 4)
    assert children.tolist() == [[False] * 4] * 2 + [[True] * 4] + [[False] * 4] * 2
    # the k = 3 pairs, 24 right then 24 left: only the permutation's left pair
    # is flagged; the pairs of the W basis and the block-diagonal root, whose
    # splits are flagged, pass on their own numbers
    assert pair_flags3.nonzero()[0].tolist() == [24 + 2]

    for (u, _), c in zip(blocks, circuits):
        k = len(u).bit_length() - 1
        target = np.kron(u, np.eye(1 << (4 - k)))
        assert phase_aligned_distance(circuit_unitary(c), target) <= 1e-9
        assert cnot_count(c) <= unitary_upper_bound(k)
