"""The folded form: a prepared ``total`` and a ``transform`` circuit carry at
most one one-qubit gate on a qubit between two of its CNOTs, and ``run``
gives the same bits on them as on the unfolded gates.

The inputs are Haar states for n = 2..10, the structured states of the
pinned level-pass table, rank-one and one-qubit states, the pass-1 cases of
the simulator tests, and ``transform`` pairs.
"""

import itertools

import numpy as np
import pytest

from statesynth import (
    cnot_count,
    concat,
    depth,
    fidelity,
    haar_state,
    inverse,
    run,
    schmidt_prepare,
    transform,
    zero_state,
)
from statesynth.circuit import _folded, _from_arrays

from test_level_pass import _structured_states
from test_simulator import _fold_cases


def _states():
    """(name, state, haar): the prepared states."""
    for n, s in itertools.product(range(2, 11), range(3)):
        yield f"haar_{n}_{s}", haar_state(n, s), True
    for n in range(4, 9):
        for name, state in _structured_states(n).items():
            yield f"{name}_{n}", state, False
    product = np.kron(haar_state(2, 7), haar_state(3, 8))  # Schmidt rank one
    yield "product_5", product, False
    yield "basis_4", np.eye(16, dtype=complex)[5], False
    yield "one_qubit", haar_state(1, 9), True


STATES = list(_states())


def _one_gate_between_cnots(c):
    """True iff no qubit holds two one-qubit gates without a CNOT on it in
    between, before its first CNOT or after its last."""
    since = {}  # qubit -> one-qubit gates since its last CNOT
    for a, b in c._arrays[0].tolist():
        if b:
            since.pop(a, None)
            since.pop(b, None)
        elif since.setdefault(a, 0) == 1:
            return False
        else:
            since[a] = 1
    return True


def _same_arrays(a, b):
    return (
        a._arrays[0].tolist() == b._arrays[0].tolist()
        and a._arrays[1].tobytes() == b._arrays[1].tobytes()
    )


def _inputs(n, seed):
    """|0...0>, a Haar state and a (2^n, 3) stack of Haar states."""
    rng = np.random.default_rng(seed)
    stack = np.stack([haar_state(n, rng) for _ in range(3)], axis=1)
    return [zero_state(n), haar_state(n, rng), stack]


def _check_fold(folded, unfolded):
    """The folded circuit against the one it was folded from: the form, the
    counts, run bit for bit (with its carried pass 1 and without), and
    folding again, by either pass, changes nothing."""
    n = folded.n_qubits
    assert _one_gate_between_cnots(folded)
    assert cnot_count(folded) == cnot_count(unfolded)
    assert depth(folded) == depth(unfolded)
    assert len(folded) <= len(unfolded)
    bare = _from_arrays(n, *folded._arrays)  # no carried pass 1
    for s in _inputs(n, len(unfolded)):
        expected = run(unfolded, s)
        assert run(folded, s).tobytes() == expected.tobytes()
        assert run(bare, s).tobytes() == expected.tobytes()
    for stacked in (False, True):
        assert _same_arrays(_folded(folded, stacked), folded)
        assert _same_arrays(_folded(unfolded, stacked), folded)


@pytest.mark.parametrize("name, state, haar", STATES, ids=[s[0] for s in STATES])
def test_prepared_total_is_folded(name, state, haar):
    """The plan's total is its four phases concatenated and folded: the same
    CNOTs and depth, at most one gate a qubit between CNOTs, run bit-identical
    to run of the concatenated phases, and 1 - F <= 1e-12 on Haar inputs."""
    plan = schmidt_prepare(state)
    phases = concat(plan.phase1, plan.phase2, plan.phase3, plan.phase4)
    _check_fold(plan.total, phases)
    assert plan.report.cnot_count == cnot_count(phases)
    f = fidelity(run(plan.total, zero_state(plan.total.n_qubits)), state)
    assert 1.0 - f <= (1e-12 if haar else 1e-9)


@pytest.mark.parametrize("name, c", list(_fold_cases()))
def test_folded_pass1_cases(name, c):
    """Long runs, no CNOT, no one-qubit gate, random mixes and a parsed
    circuit fold to the same CNOTs with one gate per fed slot: a slot that
    no gate fed gets none, and a circuit without one-qubit gates is left as
    it is."""
    folded = _folded(c, False)
    _check_fold(folded, c)
    ops = c._arrays[0]
    fed = set()  # (qubit, index of the next CNOT on it) of every one-qubit gate
    for i, (a, b) in enumerate(ops.tolist()):
        if not b:
            after = [j for j in range(i, len(ops)) if a in ops[j].tolist() and ops[j, 1]]
            fed.add((a, after[0] if after else None))
    assert len(folded) - cnot_count(c) == len(fed)
    if name == "no_one_qubit_gate":
        assert _same_arrays(folded, c)


@pytest.mark.parametrize("n", range(2, 8))
def test_transform_is_folded(n):
    """transform folds the seam between un-prepare and prepare too; run of
    its circuit is bit-identical to run of the unfolded concatenation."""
    psi, phi = haar_state(n, 30 + n), haar_state(n, 40 + n)
    c = transform(psi, phi)
    unfolded = concat(inverse(schmidt_prepare(psi).total), schmidt_prepare(phi).total)
    _check_fold(c, unfolded)
    assert len(c) < len(unfolded)
    assert 1.0 - fidelity(run(c, psi), phi) <= 1e-12
