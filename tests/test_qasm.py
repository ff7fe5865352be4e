"""QASM emission and parsing, cross-checked by an independent interpreter.

The reference interpreter below shares no code with the package simulator:
it parses the text with its own regexes and applies gates as dense Kronecker
products.
"""

import math
import re

import numpy as np
import pytest

from statesynth import (
    Circuit,
    Cnot,
    OneQubitGate,
    QasmParseError,
    emit_qasm,
    fidelity,
    haar_state,
    haar_unitary,
    parse_qasm,
    run,
    schmidt_prepare,
    zero_state,
)
from statesynth.qasm import _NUMBER_RE, _eval_angle, _eval_expr, u3_matrix, zyz_angles

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _reference_simulate(text: str) -> np.ndarray:
    """Independent dense-matrix QASM interpreter (test-local oracle)."""
    n = None
    mats = []
    for line in text.splitlines():
        line = line.strip()
        m = re.match(r"qreg q\[(\d+)\];", line)
        if m:
            n = int(m.group(1))
            continue
        m = re.match(r"cx q\[(\d+)\],q\[(\d+)\];", line)
        if m:
            ctrl, tgt = int(m.group(1)), int(m.group(2))
            dim = 2**n
            g = np.zeros((dim, dim), dtype=complex)
            for i in range(dim):
                bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
                if bits[ctrl]:
                    bits[tgt] ^= 1
                j = sum(b << (n - 1 - q) for q, b in enumerate(bits))
                g[j, i] = 1.0
            mats.append(g)
            continue
        m = re.match(r"u3\((.*)\) q\[(\d+)\];", line)
        if m:
            th, ph, lam = (float(x) for x in m.group(1).split(","))
            q = int(m.group(2))
            u = np.array(
                [
                    [math.cos(th / 2), -np.exp(1j * lam) * math.sin(th / 2)],
                    [
                        np.exp(1j * ph) * math.sin(th / 2),
                        np.exp(1j * (ph + lam)) * math.cos(th / 2),
                    ],
                ]
            )
            g = np.kron(np.kron(np.eye(2**q), u), np.eye(2 ** (n - 1 - q)))
            mats.append(g)
            continue
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in mats:
        state = g @ state
    return state


def test_empty_circuit_emission():
    text = emit_qasm(Circuit(2, ()))
    assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


def test_single_cnot_emission():
    text = emit_qasm(Circuit(2, (Cnot(1, 2),)))
    assert "cx q[0],q[1];" in text
    assert text.count("cx") == 1 and "u3" not in text


def test_bell_prep_against_reference():
    c = Circuit(2, (OneQubitGate(1, H), Cnot(1, 2)))
    state = _reference_simulate(emit_qasm(c))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert fidelity(state, bell) > 1 - 1e-9


def test_roundtrip_random_prep_circuits():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        target = haar_state(n, rng)
        circ = schmidt_prepare(target).total
        text = emit_qasm(circ)
        # package parser round trip
        back = run(parse_qasm(text), zero_state(n))
        assert fidelity(back, target) > 1 - 1e-9
        # independent interpreter
        ref = _reference_simulate(text)
        assert fidelity(ref, target) > 1 - 1e-9


def test_zyz_angles_reconstruct():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = haar_unitary(2, rng)
        theta, phi, lam = zyz_angles(u)
        rebuilt = u3_matrix(theta, phi, lam)
        # equal up to global phase
        k = np.unravel_index(np.argmax(np.abs(u)), (2, 2))
        phase = u[k] / rebuilt[k]
        assert np.max(np.abs(u - phase * rebuilt)) < 1e-9


def test_zyz_angles_degenerate_cases():
    for u in (np.eye(2), np.diag([1, 1j]), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])):
        theta, phi, lam = zyz_angles(np.asarray(u, dtype=complex))
        rebuilt = u3_matrix(theta, phi, lam)
        k = np.unravel_index(np.argmax(np.abs(u)), (2, 2))
        phase = u[k] / rebuilt[k]
        assert np.max(np.abs(u - phase * rebuilt)) < 1e-9


def test_parse_pi_expressions():
    text = "OPENQASM 2.0;\nqreg q[1];\nu3(pi/2,-pi/4,2*pi) q[0];\n"
    c = parse_qasm(text)
    expected = u3_matrix(math.pi / 2, -math.pi / 4, 2 * math.pi)
    assert np.max(np.abs(c.gates[0].matrix - expected)) < 1e-12


def test_parse_rejects_garbage():
    with pytest.raises(QasmParseError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
    with pytest.raises(QasmParseError):
        parse_qasm("cx q[0],q[1];")
    with pytest.raises(QasmParseError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nu3(1,2) q[0];\n")


def test_parse_rejects_undeclared_registers():
    for stmt in ("u3(0.1,0,0) r[0];", "cx q[0],zz[1];", "cx zz[0],q[1];"):
        with pytest.raises(QasmParseError):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{stmt}\n")
    c = parse_qasm("OPENQASM 2.0;\nqreg r[2];\nu3(0.1,0,0) r[0];\ncx r[0],r[1];\n")
    assert len(c) == 2


def _grammar(expr: str) -> float | None:
    """The value the recursive-descent grammar alone gives, or None if it rejects."""
    try:
        return _eval_expr(expr)
    except QasmParseError:
        return None


def test_angle_fast_path_agrees_with_grammar():
    """A plain signed number takes float(); it must be a string the grammar
    accepts, with exactly the grammar's value (sign of zero included)."""
    rng = np.random.default_rng(10)
    values = list(rng.uniform(-2 * math.pi, 2 * math.pi, 300))
    values += list(rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200))
    values += [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1.7976931348623157e308]
    reprs = [repr(float(v)) for v in values]
    assert all(_NUMBER_RE.fullmatch(r) for r in reprs)  # what emit_qasm writes
    texts = reprs + [".5", "+3", "1E+3", "-.5e-3", "007", " 0.25", "-pi", "2*pi", "-(1)"]
    alphabet = list("0123456789.eE+- _") + ["pi", "*", "(", ")"]
    texts += ["".join(rng.choice(alphabet, size=rng.integers(1, 8))) for _ in range(3000)]
    fast = 0
    for text in texts:
        value = _grammar(text)
        if _NUMBER_RE.fullmatch(text):
            fast += 1
            assert value is not None, text
        expected = repr(value) if value is not None and math.isfinite(value) else "error"
        try:
            got = repr(_eval_angle(text))
        except QasmParseError:
            got = "error"
        assert got == expected, text
    assert fast > len(reprs) + 100


@pytest.mark.parametrize("text", ["1e999", "-1e999", "nan", "inf", "1.", "1_0", " 0.25 ", ""])
def test_angle_rejects_what_the_grammar_rejects(text):
    with pytest.raises(QasmParseError):
        _eval_angle(text)
