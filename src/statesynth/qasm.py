"""OpenQASM 2.0 emission and parsing for the u3/cx gate subset.

Qubit j maps to register index j-1.  One-qubit gates are stored as full 2x2
unitaries in the IR and converted to ZYZ Euler angles only here.
"""

import cmath
import math
import re

import numpy as np

from .circuit import Circuit, Cnot, OneQubitGate
from .errors import QasmParseError


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (theta, phi, lam) with u3(theta, phi, lam) == u up to global phase."""
    u = np.asarray(u, dtype=complex)
    a, b = u[0, 0], u[0, 1]
    c, d = u[1, 0], u[1, 1]
    theta = 2.0 * math.atan2(abs(c), abs(a))
    if abs(c) < 1e-12:
        # diagonal: only the relative phase matters
        return 0.0, float(np.angle(d) - np.angle(a)), 0.0
    if abs(a) < 1e-12:
        # antidiagonal
        return math.pi, float(np.angle(c) - np.angle(-b)), 0.0
    # lam as the diagonal phase sum minus phi keeps the large entries'
    # reconstruction error at rounding level even when theta is tiny
    phi = float(np.angle(c) - np.angle(a))
    lam = float(np.angle(d) - np.angle(c))
    return theta, phi, lam


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """The OpenQASM u3 gate matrix."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def emit_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text using only u3 and cx."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    for g in c.gates:
        if isinstance(g, Cnot):
            lines.append(f"cx q[{g.control - 1}],q[{g.target - 1}];")
        else:
            theta, phi, lam = zyz_angles(g.matrix)
            lines.append(f"u3({theta!r},{phi!r},{lam!r}) q[{g.target - 1}];")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\s*(pi|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[-+*/()])")
# a signed number token: what emit_qasm writes for a finite float
_NUMBER_RE = re.compile(r"[-+]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?")


def _eval_angle(expr: str) -> float:
    """Evaluate an angle expression over floats, pi, + - * / and parentheses."""
    if _NUMBER_RE.fullmatch(expr):
        # float() of a signed token is the negation of float() of the token
        result = float(expr)
    else:
        result = _eval_expr(expr)
    if not math.isfinite(result):
        raise QasmParseError(f"angle {expr!r} is not finite")
    return result


def _eval_expr(expr: str) -> float:
    """The angle grammar: a recursive-descent evaluator over the tokens."""
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if not m:
            raise QasmParseError(f"bad angle expression {expr!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")

    def peek():
        return tokens[0]

    def pop():
        return tokens.pop(0)

    def atom() -> float:
        tok = pop()
        if tok == "pi":
            return math.pi
        if tok == "(":
            val = add()
            if pop() != ")":
                raise QasmParseError(f"unbalanced parentheses in {expr!r}")
            return val
        if tok in "+-":
            return atom() if tok == "+" else -atom()
        try:
            return float(tok)
        except ValueError as exc:
            raise QasmParseError(f"bad token {tok!r} in {expr!r}") from exc

    def mul() -> float:
        val = atom()
        while peek() in "*/":
            op = pop()
            rhs = atom()
            if op == "/" and rhs == 0:
                raise QasmParseError(f"division by zero in {expr!r}")
            val = val * rhs if op == "*" else val / rhs
        return val

    def add() -> float:
        val = mul()
        while peek() in "+-":
            op = pop()
            rhs = mul()
            val = val + rhs if op == "+" else val - rhs
        return val

    result = add()
    if pop() != "$":
        raise QasmParseError(f"trailing tokens in {expr!r}")
    return result


_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CX_RE = re.compile(r"cx\s+(\w+)\[(\d+)\]\s*,\s*(\w+)\[(\d+)\]")
_U_RE = re.compile(r"(u3|u)\s*\((.*)\)\s+(\w+)\[(\d+)\]")


def parse_qasm(text: str) -> Circuit:
    """Parse the u3/cx subset of OpenQASM 2.0 back into a circuit."""
    n_qubits = None
    reg = None
    gates = []
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if stmt.startswith("OPENQASM") or stmt.startswith("include"):
                continue
            m = _QREG_RE.fullmatch(stmt)
            if m:
                if n_qubits is not None:
                    raise QasmParseError("multiple qreg declarations are not supported")
                reg, n_qubits = m.group(1), int(m.group(2))
                continue
            m = _CX_RE.fullmatch(stmt)
            if m:
                if n_qubits is None:
                    raise QasmParseError("gate before qreg declaration")
                control = _qubit(m.group(1), m.group(2), reg, n_qubits)
                target = _qubit(m.group(3), m.group(4), reg, n_qubits)
                if control == target:
                    raise QasmParseError(f"cx control and target are both {reg}[{control - 1}]")
                gates.append(Cnot(control, target))
                continue
            m = _U_RE.fullmatch(stmt)
            if m:
                if n_qubits is None:
                    raise QasmParseError("gate before qreg declaration")
                args = _split_args(m.group(2))
                if len(args) != 3:
                    raise QasmParseError(f"u3 needs 3 angles, got {len(args)}")
                theta, phi, lam = (_eval_angle(a) for a in args)
                target = _qubit(m.group(3), m.group(4), reg, n_qubits)
                gates.append(OneQubitGate(target, u3_matrix(theta, phi, lam)))
                continue
            raise QasmParseError(f"unsupported statement {stmt!r}")
    if n_qubits is None:
        raise QasmParseError("missing qreg declaration")
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


def _qubit(name: str, index: str, reg: str, n_qubits: int) -> int:
    """1-based qubit for an operand, checked against the declared qreg."""
    if name != reg:
        raise QasmParseError(f"operand {name}[{index}] names no declared qreg (only {reg})")
    q = int(index)
    if q >= n_qubits:
        raise QasmParseError(f"qubit {reg}[{q}] outside qreg {reg}[{n_qubits}]")
    return q + 1


def _split_args(text: str) -> list[str]:
    """Split at the commas outside parentheses."""
    args = []
    level = 0
    current = []
    for piece in text.split(","):
        current.append(piece)
        level += piece.count("(") - piece.count(")")
        if level == 0:
            args.append(",".join(current))
            current = []
    if current:
        args.append(",".join(current))
    return [a.strip() for a in args]
