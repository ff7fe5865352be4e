"""Workload definitions: seeded input generation, the timed op, and its check.

Inputs are generated here with numpy alone, so the library receives only the
generated arrays.  Every call into the library goes through attributes of the
``statesynth`` package at call time, so a tracer installed later sees it.
"""

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import statesynth as ss

from . import refcheck

# Stream tags keep the workloads' random streams apart for one seed.
_TAGS = {"haar_n4": 4, "haar_n8": 8, "verify_n10": 10}


@dataclass(frozen=True)
class Outcome:
    """What the reference check found for one op output."""

    ok: bool
    reason: str = ""
    counts: refcheck.Counts | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]  # seed -> input arrays
    op: Callable  # item -> output; the timed call into the library
    check: Callable  # (item, output) -> Outcome
    identity: Callable  # output -> digest, equal iff gate-for-gate equal
    compile_inputs: Callable | None = None  # inputs -> items, done in set-up

    def items(self, inputs: list) -> list:
        return self.compile_inputs(inputs) if self.compile_inputs else list(inputs)

    def verdict(self, item, output) -> Outcome:
        try:
            return self.check(item, output)
        except refcheck.CheckError as exc:
            return Outcome(False, f"unreadable output: {exc}")


def inputs_digest(inputs: list) -> str:
    h = hashlib.sha256()
    for a in inputs:
        a = np.ascontiguousarray(a, dtype=complex)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[name]])


def _haar_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def haar_states(n: int, count: int, name: str):
    def make(seed: int) -> list:
        rng = _rng(seed, name)
        return [_haar_state(n, rng) for _ in range(count)]

    return make


# -- ops ----------------------------------------------------------------------


def prepare_op(state: np.ndarray):
    """The ``statesynth prepare`` path without file I/O."""
    plan = ss.schmidt_prepare(state)
    n = plan.total.n_qubits
    fid = ss.fidelity(ss.run(plan.total, ss.zero_state(n)), state)
    return ss.emit_qasm(plan.total), fid


@dataclass(frozen=True)
class CompiledState:
    state: np.ndarray
    qasm: str
    expected: refcheck.Counts


def compile_for_verify(states: list) -> list:
    items = []
    for s in states:
        qasm, _ = prepare_op(s)
        n, gates = refcheck.gates_from_qasm(qasm)
        items.append(CompiledState(s, qasm, refcheck.counts(n, gates)))
    return items


def verify_op(item: CompiledState):
    """The ``statesynth verify`` path without file I/O."""
    circ = ss.parse_qasm(item.qasm)
    fid = ss.fidelity(ss.run(circ, ss.zero_state(circ.n_qubits)), item.state)
    return circ, fid


# -- checks -------------------------------------------------------------------


def _check_state(n: int, gates: list, target: np.ndarray, program_fid: float) -> Outcome:
    c = refcheck.counts(n, gates)
    n_expected = len(target).bit_length() - 1
    if n != n_expected:
        return Outcome(False, f"register of {n} qubits, expected {n_expected}", c)
    if not program_fid >= refcheck.FIDELITY_FLOOR:
        return Outcome(False, f"self-check fidelity {program_fid!r}", c)
    fid = refcheck.fidelity(refcheck.prepared_state(n, gates), target)
    if not fid >= refcheck.FIDELITY_FLOOR:
        return Outcome(False, f"reference fidelity {fid!r}", c)
    if c.cnots > refcheck.scheme_ceiling(n):
        return Outcome(False, f"{c.cnots} CNOTs > ceiling {refcheck.scheme_ceiling(n)}", c)
    if c.depth > refcheck.scheme_depth_ceiling(n):
        return Outcome(False, f"depth {c.depth} > ceiling {refcheck.scheme_depth_ceiling(n)}", c)
    return Outcome(True, "", c)


def check_prepare(state: np.ndarray, output) -> Outcome:
    qasm, fid = output
    n, gates = refcheck.gates_from_qasm(qasm)
    return _check_state(n, gates, state, fid)


def check_verify(item: CompiledState, output) -> Outcome:
    circ, fid = output
    n, gates = refcheck.gates_from_circuit(circ)
    out = _check_state(n, gates, item.state, fid)
    if out.ok and out.counts != item.expected:
        return Outcome(False, f"parsed {out.counts} != compiled {item.expected}", out.counts)
    return out


def _qasm_identity(output) -> str:
    qasm, fid = output  # the QASM text holds every angle in repr
    return hashlib.sha256(f"{qasm}{fid!r}".encode()).hexdigest()


def _parsed_identity(output) -> str:
    circ, fid = output
    return f"{refcheck.fingerprint(refcheck.gates_from_circuit(circ)[1])}:{fid!r}"


# Distinct inputs per seed.  A run cycles through them until --seconds of op
# time have passed and every input has run at least once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("haar_n4", haar_states(4, 64, "haar_n4"), prepare_op, check_prepare,
                 _qasm_identity),
        Workload("haar_n8", haar_states(8, 16, "haar_n8"), prepare_op, check_prepare,
                 _qasm_identity),
        Workload("verify_n10", haar_states(10, 3, "verify_n10"), verify_op, check_verify,
                 _parsed_identity, compile_inputs=compile_for_verify),
    )
}
