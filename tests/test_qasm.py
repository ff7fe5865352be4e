"""QASM emission and parsing, cross-checked by an independent interpreter.

The reference interpreter below shares no code with the package simulator:
it parses the text with its own regexes and applies gates as dense Kronecker
products.
"""

import cmath
import hashlib
import math
import re
import time
import warnings

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
import statesynth.circuit
import statesynth.qasm
from statesynth.linalg import unitarity_defect
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


def _equal_up_to_phase(u, v, tol=1e-9) -> bool:
    k = np.unravel_index(np.argmax(np.abs(u)), (2, 2))
    return np.max(np.abs(u - u[k] / v[k] * v)) < tol


def test_zyz_angles_reconstruct():
    rng = np.random.default_rng(1)
    us = np.array([haar_unitary(2, rng) for _ in range(200)])
    angles = zyz_angles(us)
    assert angles.shape == (200, 3)
    for u, rebuilt in zip(us, u3_matrix(*angles.T)):
        assert _equal_up_to_phase(u, rebuilt)


DEGENERATE = (
    np.eye(2),
    np.diag([1, 1j]),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    # |c| and |a| just below the 1e-12 branch threshold
    np.array([[1, -1e-13], [1e-13, 1]]) * np.exp(0.3j),
    np.array([[2e-13j, 1], [-1, -2e-13j]]),
)


def test_zyz_angles_degenerate_cases():
    """Diagonal and antidiagonal matrices, directly and through emit -> parse."""
    us = np.array(DEGENERATE, dtype=complex)
    angles = zyz_angles(us)
    assert angles[:, 2].tolist() == [0.0] * len(us)  # both branches set lam = 0
    for u, rebuilt in zip(us, u3_matrix(*angles.T)):
        assert _equal_up_to_phase(u, rebuilt)
    c = Circuit(1, tuple(OneQubitGate(1, u) for u in us))
    text = emit_qasm(c)
    back = parse_qasm(text)
    for u, g in zip(us, back.gates):
        assert _equal_up_to_phase(u, g.matrix)


def _u3_scalar(theta, phi, lam):
    """The u3 matrix entry by entry with math/cmath (test-local reference)."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def test_stacked_u3_matrix_matches_scalar_reference():
    rng = np.random.default_rng(11)
    angles = rng.uniform(-7, 7, size=(3000, 3))
    angles[:300] *= 10.0 ** rng.integers(-300, 3, size=(300, 1))
    stacked = u3_matrix(*angles.T)
    reference = np.array([_u3_scalar(*a) for a in angles.tolist()])
    assert stacked.tobytes() == reference.tobytes()


@pytest.mark.parametrize("angles", ["0,1e308,1e308", "0.5,-1e308,-1.5e308", "0.5,1e308,1e308+0"])
def test_u3_whose_phase_sum_overflows_is_accepted(angles):
    """Finite angles whose sum phi + lam overflows (in the emitted form, and
    through the general dispatch) give a unitary, the product of the two
    phases, with no numpy warning; before, three RuntimeWarnings and a NaN
    entry rejected the gate.  The other matrices of a stack keep their
    bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = parse_qasm(f"qreg q[1];\nu3({angles}) q[0];\n")
    theta, phi, lam = (_eval_angle(a) for a in angles.split(","))
    assert not math.isfinite(phi + lam)
    m = c.gates[0].matrix
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    reference = np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * phi) * cmath.exp(1j * lam) * cos],
        ]
    )
    assert np.max(np.abs(m - reference)) <= 1e-15
    assert unitarity_defect(m) <= 1e-15
    rng = np.random.default_rng(17)
    stack = rng.uniform(-7, 7, size=(9, 3))
    stack[4] = theta, phi, lam
    matrices = u3_matrix(*stack.T)
    assert matrices[4].tobytes() == u3_matrix([theta], [phi], [lam])[0].tobytes()
    for row in (*range(4), *range(5, 9)):
        assert matrices[row].tobytes() == _u3_scalar(*stack[row]).tobytes()


def _gate_by_gate_parse(text: str) -> Circuit:
    """Emitted QASM read line by line into gate objects (test-local
    reference): the u3 matrices built as one stack with u3_matrix, then one
    OneQubitGate or Cnot per statement, in order."""
    n, entries, angles = None, [], []
    for line in text.splitlines():
        if m := re.fullmatch(r"qreg q\[(\d+)\];", line):
            n = int(m[1])
        elif m := re.fullmatch(r"cx q\[(\d+)\],q\[(\d+)\];", line):
            entries.append((int(m[1]) + 1, int(m[2]) + 1))
        elif m := re.fullmatch(r"u3\((.*),(.*),(.*)\) q\[(\d+)\];", line):
            angles.append([float(m[1]), float(m[2]), float(m[3])])
            entries.append(int(m[4]) + 1)
    mats = iter(u3_matrix(*np.array(angles).reshape(-1, 3).T))
    gates = [Cnot(*e) if isinstance(e, tuple) else OneQubitGate(e, next(mats)) for e in entries]
    return Circuit(n, tuple(gates))


def _fingerprint(gates) -> str:
    """A digest equal for two gate lists iff they match gate for gate, bit for bit."""
    h = hashlib.sha256()
    for g in gates:
        if isinstance(g, Cnot):
            h.update(b"cx%d,%d;" % (g.control, g.target))
        else:
            h.update(b"u%d:" % g.target)
            h.update(g.matrix.dtype.str.encode() + np.ascontiguousarray(g.matrix).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_parsed_gates_match_a_gate_by_gate_parse(n):
    """parse_qasm builds the array form with no gate object; the gate tuple
    derived from it matches a gate-by-gate parse bit for bit, and both emit
    the same text."""
    for seed in range(2):
        text = emit_qasm(schmidt_prepare(haar_state(n, seed)).total)
        parsed = parse_qasm(text)
        reference = _gate_by_gate_parse(text)
        assert emit_qasm(parsed) == emit_qasm(reference)
        assert "gates" not in parsed.__dict__
        assert _fingerprint(parsed.gates) == _fingerprint(reference.gates)
        assert [type(g.target) for g in parsed.gates] == [int] * len(parsed)


def test_parse_and_run_create_no_gate_objects(monkeypatch):
    """The verify path, parse_qasm then run on a Haar n = 10 text (window
    path), creates no OneQubitGate and no Cnot; reading .gates afterwards
    derives one gate per one-qubit statement and one CNOT per qubit pair."""
    text = emit_qasm(schmidt_prepare(haar_state(10, 1)).total)
    made = []
    rebuilt = statesynth.circuit._rebuilt_1q
    monkeypatch.setattr(
        statesynth.circuit, "_rebuilt_1q", lambda *a: made.append("1q") or rebuilt(*a)
    )
    for cls in (OneQubitGate, Cnot):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda g, check=check: made.append(type(g)) or check(g)
        )
    c = parse_qasm(text)
    state = run(c, zero_state(10))
    assert made == [] and "gates" not in c.__dict__
    assert fidelity(state, haar_state(10, 1)) >= 1 - 1e-9
    ones = text.count("u3(")
    pairs = set(re.findall(r"cx q\[\d+\],q\[\d+\];", text))
    assert len(c.gates) == ones + text.count("cx ")
    assert made.count("1q") == ones and made.count(Cnot) == len(pairs)
    assert len(made) == ones + len(pairs)


def test_parse_pi_expressions():
    text = "OPENQASM 2.0;\nqreg q[1];\nu3(pi/2,-pi/4,2*pi) q[0];\n"
    c = parse_qasm(text)
    expected = _u3_scalar(math.pi / 2, -math.pi / 4, 2 * math.pi)
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
    """A plain signed number, the form emit_qasm writes and the parser's u3
    lane reads with float(), must be a string the grammar accepts; every
    angle gets exactly the grammar's value (sign of zero included)."""
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


def _parse_outcome(text: str):
    """Targets and matrix bytes of the parsed gates, or the exception raised."""
    try:
        c = parse_qasm(text)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    return [
        (g.control, g.target) if isinstance(g, Cnot) else (g.target, g.matrix.tobytes())
        for g in c.gates
    ]


def _scans_as_emitted(statement: str) -> bool:
    """Whether the scanner reads the statement in its emitted-form branch."""
    q = statesynth.qasm
    return q._SCAN_RE.match(statement).lastindex in (q._U3_EMITTED, q._CX_EMITTED)


def _disable_emitted_branch(monkeypatch):
    """Send every statement through the general dispatch: the emitted form is
    the scanner's first alternative, and a leading (?!) can never match."""
    scan = statesynth.qasm._SCAN_RE
    monkeypatch.setattr(statesynth.qasm, "_SCAN_RE", re.compile("(?!)" + scan.pattern, scan.flags))


def test_number_lane_agrees_with_general_path(monkeypatch):
    """A u3 statement of three plain numbers is read from the scanner's groups
    with float(); with that branch disabled, the general path must give
    bitwise-equal gates or the same exception with the same message."""
    rng = np.random.default_rng(12)
    tokens = [repr(float(v)) for v in rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40)]
    tokens += ["0", "-0.0", "+3", ".5", "-.5e-3", "1E+3", "2e-308", "007", "1e999", "-1e999"]
    tokens += ["nan", "inf", "1.", "1_0", "pi", "-pi/2", "", "(1)"]
    spaces = ["", "", " ", "  ", "\t"]
    lines = []
    for _ in range(1500):
        n_args = rng.choice([3, 3, 3, 3, 2, 4])
        args = [
            rng.choice(spaces) + rng.choice(tokens) + rng.choice(spaces) for _ in range(n_args)
        ]
        inner = ",".join(args) + ("," if rng.random() < 0.05 else "")
        name = rng.choice(["u3", "u", "u3 ", "U3"])
        target = rng.choice(["q[0]", "q[1]", "q[0]", "q[1]", "q[2]", "r[0]", "q [0]"])
        lines.append(f"{name}({inner}) {target};")
    header = "OPENQASM 2.0;\nqreg q[2];\n"
    texts = [header + line for line in lines]
    texts += [header + "\n".join(lines[i : i + 20]) for i in range(0, 400, 20)]
    in_lane = sum(_scans_as_emitted(line) for line in lines)
    lane = [_parse_outcome(t) for t in texts]
    _disable_emitted_branch(monkeypatch)
    general = [_parse_outcome(t) for t in texts]
    for text, a, b in zip(texts, lane, general):
        assert a == b, text
    assert in_lane > 300
    assert sum(isinstance(o, list) for o in lane) > 200
    assert sum(o[0] is QasmParseError for o in lane if isinstance(o, tuple)) > 200


def test_parse_accepts_only_the_qasm2_headers():
    """Only OPENQASM 2.0 and include "qelib1.inc" are skipped; any other
    statement that merely starts with OPENQASM or include is an error."""
    body = "qreg q[1];\nu3(0.1,0,0) q[0];\n"
    headers = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n', 'OPENQASM  2.0 ;include\t"qelib1.inc";\n')
    for header in headers:
        assert len(parse_qasm(header + body)) == 1
    # this file parsed to a one-gate circuit, its first two lines ignored
    with pytest.raises(QasmParseError, match="unsupported statement 'includes q\\[0\\]'"):
        parse_qasm("includes q[0];\nOPENQASMx;\n" + body)
    for header in ("OPENQASMx;", "OPENQASM 3.0;", 'include "other.inc";', "OPENQASM 2.0 x;"):
        with pytest.raises(QasmParseError, match="unsupported statement"):
            parse_qasm(f"{header}\n{body}")


@pytest.mark.parametrize("emitted", [True, False])
@pytest.mark.parametrize(
    "text",
    [
        "qreg q[2];\nu3(0.1,0,0) q[١];",  # ARABIC-INDIC DIGIT ONE
        "qreg q[2];\ncx q[0],q[١];",
        "qreg q[2];\ncx q[١],q[0];",
        "qreg q[2];\nu(0.1, 0, 0) q[١];",
        "qreg q[٢];\nu3(0.1,0,0) q[0];",
        "qreg q[2];\nu3(٠.1,0,0) q[0];",
        "qreg qé[2];\nu3(0.1,0,0) qé[0];",
        "qreg q[2];\nu3(pi\u00a0/2,0,0) q[0];",  # NO-BREAK SPACE inside an angle
    ],
)
def test_parse_rejects_non_ascii_digits_and_names(text, emitted, monkeypatch):
    """Digits, names and blanks are ASCII: \\d, \\w and \\s would match other scripts."""
    if not emitted:
        _disable_emitted_branch(monkeypatch)
    with pytest.raises(QasmParseError):
        parse_qasm(text)


_BAD_STATEMENTS = [
    "u3(0.1,0,0) r[0];",
    "u3(0.1,0,0) q[7];",
    "cx q[0],q[7];",
    "cx q[7],q[0];",
    "cx r[0],q[1];",
    "cx q[0],zz[1];",
    "cx q[0],q[0];",
    "cx q[1],q[1];",
    "u3(1e999,0,0) q[0];",
    "u3(0,-1e999,0) q[0];",
    "u3(0,0,1e400) r[0];",
    "u3(1e999,0,0) q[9];",
    "u(0.5, 2e999, 0) q[1];",
    "u3(1/0,0,0) q[0];",
    "u3(pi,0) q[0];",
    "h q[0];",
    "qreg r[2];",
]


def _rewritten(text: str, rng) -> str:
    """The same program in other forms the parser accepts, some of them
    outside the emitted form."""
    header, lines = text.splitlines()[:3], text.splitlines()[3:]
    out = []
    for line in lines:
        r = rng.random()
        if r < 0.1:
            line = line.replace("u3(", "u(")
        elif r < 0.2:
            line = line.replace(" q[", "\tq[").replace("cx\tq[", "cx \tq[")
        elif r < 0.3 and line.startswith("u3("):
            theta, rest = line[3:].split(",", 1)
            line = f"u3(({theta}), {rest}"  # an expression: the general path
        elif r < 0.35 and line.startswith("u3("):
            line = "u3(pi/2," + line.split(",", 1)[1]
        elif r < 0.45:
            line += " // note; cx q[0],q[1];"
        elif r < 0.5:
            line = "\t " + line + "  "
        out.append(line)
    joined = []
    while out:  # several statements per line
        k = int(rng.integers(1, 4))
        joined.append(("" if rng.random() < 0.5 else " ").join(out[:k]))
        out = out[k:]
    if joined and rng.random() < 0.5:
        joined[-1] = joined[-1].rstrip().removesuffix(";")  # a missing final ;
    joined.insert(int(rng.integers(0, len(joined) + 1)), "// a comment line; qreg r[3];")
    return ("\r\n" if rng.random() < 0.5 else "\n").join(header + joined) + "\n"


def test_scanner_agrees_with_general_dispatch(monkeypatch):
    """Emitted texts, rewritten and with bad statements injected, give the
    same gates (bit for bit) or the same exception and message whether the
    scanner's emitted-form branch reads them or the general dispatch does.
    Two bad statements in either order check that the first in text order
    raises: every statement, emitted form or not, is checked as it is read."""
    rng = np.random.default_rng(14)
    texts = []
    for n in (2, 3, 4):
        for _ in range(4):
            text = emit_qasm(schmidt_prepare(haar_state(n, rng)).total)
            texts.append(text)
            texts.append(_rewritten(text, rng))
            for _ in range(6):
                lines = _rewritten(text, rng).split("\n")
                for _ in range(int(rng.integers(1, 3))):
                    pos = int(rng.integers(3, len(lines)))
                    lines.insert(pos, str(rng.choice(_BAD_STATEMENTS)))
                texts.append("\n".join(lines))
    emitted = [_parse_outcome(t) for t in texts]
    _disable_emitted_branch(monkeypatch)
    general = [_parse_outcome(t) for t in texts]
    for text, a, b in zip(texts, emitted, general):
        assert a == b, text
    assert sum(isinstance(o, list) for o in emitted) >= 24
    messages = {o[1].split(" ")[0] for o in emitted if isinstance(o, tuple)}
    assert {"operand", "qubit", "cx", "angle", "unsupported"} <= messages


@pytest.mark.parametrize("first", [0, 1])
def test_first_bad_statement_raises(first):
    """An emitted-form cx on one qubit and an unsupported h, in either order:
    the first in the text raises, with its own message."""
    bad = ["cx q[0],q[0];", "h q[0];"]
    messages = ["cx control and target are both q[0]", "unsupported statement 'h q[0]'"]
    head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nu3(0.1,0.2,0.3) q[1];\n'
    with pytest.raises(QasmParseError) as exc:
        parse_qasm(head + bad[first] + "\n" + bad[1 - first] + "\n")
    assert str(exc.value) == messages[first]


def test_angle_time_is_linear_in_terms_nesting_and_signs():
    """A long sum, deep parentheses and a long run of signs in an angle are
    evaluated in one pass over the tokens, with no recursion: a pass
    quadratic in the token count would take seconds here, and one level of
    recursion per parenthesis or sign would overflow the stack."""
    count = 100_000
    for angle, value in (
        ("+".join(["1"] * count), float(count)),
        ("(" * count + "1" + ")" * count, 1.0),
        ("-" * (count + 1) + "1", -1.0),
    ):
        start = time.perf_counter()
        c = parse_qasm(f"qreg q[1];\nu3({angle},0,0) q[0];\n")
        assert time.perf_counter() - start < 1.0
        assert c._arrays[1].tobytes() == u3_matrix([value], [0.0], [0.0]).tobytes()


def test_scan_time_is_linear_in_separator_runs():
    """Long runs of line breaks, blanks and ;'s before a statement or at the
    end of the text are read in one step, and a failed number match
    backtracks in linear time: a scan quadratic in either length would take
    tens of seconds here, not milliseconds."""
    run = 60_000
    text = "\n" * run + "qreg q[1];" + " " * run + "// c\n" + ";\t" * run + "u3(1,2,3) q[0]"
    start = time.perf_counter()
    assert len(parse_qasm(text + " ;" * run)) == 1
    assert time.perf_counter() - start < 1.0
    # a long digit run that fails the number pattern late
    for stmt in ("u3(" + "1" * run + "x,0,0) q[0];", "u3(0,0,0) q[" + "0" * run + "x];"):
        start = time.perf_counter()
        with pytest.raises(QasmParseError):
            parse_qasm("qreg q[1];\n" + stmt)
        assert time.perf_counter() - start < 1.0
