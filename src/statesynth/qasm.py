"""OpenQASM 2.0 emission and parsing for the u3/cx gate subset.

Qubit j maps to register index j-1.  One-qubit gates are stored as full 2x2
unitaries in the IR and converted to ZYZ Euler angles only here, once per
circuit.  Both directions work on the circuit's array form (see
``circuit``): emission turns its (G1, 2, 2) matrix stack into angles in one
pass and writes one line per row of its ops array, and parsing collects every
u3's angles and every statement's qubits in flat lists, then builds and
checks all the matrices as one stack and returns the circuit as those
arrays, with no gate object; its ``gates`` are derived if something reads
them.

Parsing is one ``finditer`` scan of the text, with one match per statement
or comment; a statement ends at a ";", a comment or a line break.  The forms
emission writes, a u3 of three plain numbers and a cx, are read straight
from the scanner's groups, with float() and int(), and checked as they are
read: register name, range, a cx on two distinct qubits, finite angles.  One
that fails goes through the general dispatch's checks, so its message is the
same.  Every other statement goes through the general dispatch, which checks
it at once and evaluates each angle, a plain number included, with the angle
grammar.  Either way a text raises the error of its first bad statement.
Regexes are ASCII-only: no other script's digits or letters are accepted.
"""

import math
import re

import numpy as np

from .circuit import Circuit, _from_arrays, _require_unitary_stack
from .errors import QasmParseError


def zyz_angles(us: np.ndarray) -> np.ndarray:
    """Angles (theta, phi, lam) per matrix of a (G, 2, 2) stack, as a (G, 3) array.

    ``u3(theta, phi, lam)`` equals each matrix up to global phase.
    """
    us = np.asarray(us, dtype=complex).reshape(-1, 2, 2)
    ang = np.angle(us)
    # lam as the diagonal phase sum minus phi keeps the large entries'
    # reconstruction error at rounding level even when theta is tiny
    phi = ang[:, 1, 0] - ang[:, 0, 0]
    lam = ang[:, 1, 1] - ang[:, 1, 0]
    # theta and the branch tests use Python abs and math.atan2: np.abs and
    # np.arctan2 on arrays differ from them in the last bit, which would
    # change the emitted text
    abs_a = [abs(x) for x in us[:, 0, 0].tolist()]
    abs_c = [abs(x) for x in us[:, 1, 0].tolist()]
    theta = np.array([2.0 * math.atan2(c, a) for a, c in zip(abs_a, abs_c)])
    diag = np.array(abs_c) < 1e-12
    anti = ~diag & (np.array(abs_a) < 1e-12)
    # diagonal: only the relative phase matters
    theta[diag] = 0.0
    phi[diag] = ang[diag, 1, 1] - ang[diag, 0, 0]
    # antidiagonal
    theta[anti] = math.pi
    phi[anti] = ang[anti, 1, 0] - np.angle(-us[anti, 0, 1])
    lam[diag | anti] = 0.0
    return np.stack([theta, phi, lam], axis=1)


def u3_matrix(theta: np.ndarray, phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The OpenQASM u3 gate matrices for equal-length angle arrays, as (G, 2, 2)."""
    theta, phi, lam = (np.asarray(x, dtype=float) for x in (theta, phi, lam))
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    out = np.empty((len(theta), 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -np.exp(1j * lam) * s
    out[:, 1, 0] = np.exp(1j * phi) * s
    with np.errstate(over="ignore"):
        total = phi + lam
    wide = ~np.isfinite(total)  # finite angles whose sum overflows
    total[wide] = 0.0
    out[:, 1, 1] = np.exp(1j * total) * c
    out[wide, 1, 1] = np.exp(1j * phi[wide]) * np.exp(1j * lam[wide]) * c[wide]
    return out


def emit_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text using only u3 and cx."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    ops, mats = c._arrays
    angles = iter(zyz_angles(mats).tolist())
    for a, b in ops.tolist():
        if b:
            lines.append(f"cx q[{a - 1}],q[{b - 1}];")
        else:
            theta, phi, lam = next(angles)
            lines.append(f"u3({theta!r},{phi!r},{lam!r}) q[{a - 1}];")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\s*(pi|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[-+*/()])", re.ASCII)
# a signed number token: what emit_qasm writes for a finite float.  Digits,
# then a fraction or (looking back) at least one digit: unlike
# [0-9]*\.?[0-9]+, no digit run splits two ways, so a failed match
# backtracks in time linear in its length
_NUMBER_RE = re.compile(r"[-+]?[0-9]*(?:\.[0-9]+|(?<=[0-9]))(?:[eE][+-]?[0-9]+)?", re.ASCII)


def _eval_angle(expr: str) -> float:
    """Evaluate an angle expression over floats, pi, + - * / and parentheses."""
    result = _eval_expr(expr)
    if not math.isfinite(result):
        raise QasmParseError(f"angle {expr!r} is not finite")
    return result


def _eval_expr(expr: str) -> float:
    """The angle grammar, evaluated in one left-to-right pass over the tokens.

    An expression is a sum of products of atoms, each operator left
    associative; an atom is a number, pi, a parenthesized expression, or a
    sign and an atom.  An open parenthesis pushes the partial sum and
    product of the enclosing expression on a stack, and its close pops
    them, so that nesting and runs of signs cost time and memory linear in
    their length, with no recursion.
    """
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if not m:
            raise QasmParseError(f"bad angle expression {expr!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    groups = []  # per open parenthesis: the enclosing (sum, add op, product, mul op, negate)
    total = add_op = prod = mul_op = None
    i = 0
    while True:
        negate = False
        while tokens[i] in ("+", "-"):
            negate ^= tokens[i] == "-"
            i += 1
        tok = tokens[i]
        i += 1
        if tok == "(":
            groups.append((total, add_op, prod, mul_op, negate))
            total = add_op = prod = mul_op = None
            continue
        try:
            val = math.pi if tok == "pi" else float(tok)
        except ValueError as exc:
            raise QasmParseError(f"bad token {tok!r} in {expr!r}") from exc
        while True:  # fold the atom in; a ")" makes its group the next atom
            val = -val if negate else val
            if prod is None:
                prod = val
            elif mul_op == "*":
                prod = prod * val
            elif val == 0:
                raise QasmParseError(f"division by zero in {expr!r}")
            else:
                prod = prod / val
            tok = tokens[i]
            i += 1
            if tok in ("*", "/"):
                mul_op = tok
                break
            if total is None:
                total = prod
            else:
                total = total + prod if add_op == "+" else total - prod
            if tok in ("+", "-"):
                add_op, prod = tok, None
                break
            if tok == "$" and not groups:
                return total
            if tok != ")" or not groups:
                what = "unbalanced parentheses" if groups else "trailing tokens"
                raise QasmParseError(f"{what} in {expr!r}")
            val = total
            total, add_op, prod, mul_op, negate = groups.pop()


_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]", re.ASCII)
_CX_RE = re.compile(r"cx\s+(\w+)\[(\d+)\]\s*,\s*(\w+)\[(\d+)\]", re.ASCII)
_U_RE = re.compile(r"(u3|u)\s*\((.*)\)\s+(\w+)\[(\d+)\]", re.ASCII)
_HEADER_RE = re.compile(r'OPENQASM\s+2\.0|include\s+"qelib1\.inc"', re.ASCII)
# the characters str.splitlines breaks lines at
_BREAKS = r"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_NUM = rf"[ \t]*({_NUMBER_RE.pattern})[ \t]*"
# One match per statement or comment.  The first alternative is the emitted
# form, after any separators: a u3 of three plain numbers (groups 1-5) or a
# cx (groups 6-9), each read straight from its groups and checked as soon as
# it is read.  A run of separators that precedes anything else is one match
# with no group, so that the search never restarts inside it (which would
# take time quadratic in its length).  Any other statement, the text up to a
# ";", a comment or a line break, is group 10; a comment has no group.
_SCAN_RE = re.compile(
    rf"[;{_BREAKS} \t]*(?:(?:u3|u)[ \t]*\({_NUM},{_NUM},{_NUM}\)[ \t]+(\w+)\[(\d+)\]"
    rf"|cx[ \t]+(\w+)\[(\d+)\][ \t]*,[ \t]*(\w+)\[(\d+)\])[ \t]*(?=;|//|[{_BREAKS}]|\Z)"
    rf"|[;{_BREAKS} \t]+"
    rf"|((?:[^;/{_BREAKS}]|/(?!/))+)"
    rf"|//[^{_BREAKS}]*",
    re.ASCII,
)
_U3_EMITTED, _CX_EMITTED, _OTHER = 5, 9, 10  # Match.lastindex of each kind


def parse_qasm(text: str) -> Circuit:
    """Parse the u3/cx subset of OpenQASM 2.0 back into a circuit.

    One scan reads and checks the statements, each as it is read; every u3
    matrix is built and checked at the end, as one stack.  The circuit is
    returned in its array form.
    """
    n_qubits = None
    reg = None
    ops = []  # the 1-based (target, 0) of each u3 and (control, target) of each cx, flat
    angles = []  # theta, phi, lam of each u3, flat
    for m in _SCAN_RE.finditer(text):
        kind = m.lastindex
        if kind == _U3_EMITTED:
            if n_qubits is None:
                raise QasmParseError("gate before qreg declaration")
            theta, phi, lam = float(m[1]), float(m[2]), float(m[3])
            q = int(m[5]) + 1
            if m[4] != reg or q > n_qubits or not math.isfinite(theta + phi + lam):
                # the general dispatch's checks decide, with their messages
                # (they pass finite angles whose sum overflows, which
                # u3_matrix takes apart)
                for arg in m.group(1, 2, 3):
                    _eval_angle(arg)
                _qubit(m[4], m[5], reg, n_qubits)
            angles += (theta, phi, lam)
            ops += (q, 0)
        elif kind == _CX_EMITTED:
            if n_qubits is None:
                raise QasmParseError("gate before qreg declaration")
            pair = int(m[7]) + 1, int(m[9]) + 1
            if m[6] != reg or m[8] != reg or max(pair) > n_qubits or pair[0] == pair[1]:
                _cx(m.group(6, 7, 8, 9), reg, n_qubits)  # raises, with its message
            ops += pair
        elif kind == _OTHER:
            stmt = m[_OTHER].strip()
            if not stmt or _HEADER_RE.fullmatch(stmt):
                continue
            m = _QREG_RE.fullmatch(stmt)
            if m:
                if n_qubits is not None:
                    raise QasmParseError("multiple qreg declarations are not supported")
                reg, n_qubits = m.group(1), int(m.group(2))
                if n_qubits < 1:
                    raise QasmParseError(f"qreg {reg}[{n_qubits}] holds no qubit")
                continue
            m = _CX_RE.fullmatch(stmt)
            if m:
                if n_qubits is None:
                    raise QasmParseError("gate before qreg declaration")
                ops += _cx(m.group(1, 2, 3, 4), reg, n_qubits)
                continue
            m = _U_RE.fullmatch(stmt)
            if m:
                if n_qubits is None:
                    raise QasmParseError("gate before qreg declaration")
                args = _split_args(m.group(2))
                if len(args) != 3:
                    raise QasmParseError(f"u3 needs 3 angles, got {len(args)}")
                angles += (_eval_angle(a) for a in args)
                ops += (_qubit(m.group(3), m.group(4), reg, n_qubits), 0)
                continue
            raise QasmParseError(f"unsupported statement {stmt!r}")
    if n_qubits is None:
        raise QasmParseError("missing qreg declaration")
    theta, phi, lam = np.array(angles, dtype=float).reshape(-1, 3).T
    matrices = u3_matrix(theta, phi, lam)
    _require_unitary_stack(matrices)
    return _from_arrays(n_qubits, np.array(ops, dtype=np.intp).reshape(-1, 2), matrices)


def _qubit(name: str, index: str, reg: str, n_qubits: int) -> int:
    """1-based qubit for an operand, checked against the declared qreg."""
    if name != reg:
        raise QasmParseError(f"operand {name}[{index}] names no declared qreg (only {reg})")
    q = int(index)
    if q >= n_qubits:
        raise QasmParseError(f"qubit {reg}[{q}] outside qreg {reg}[{n_qubits}]")
    return q + 1


def _cx(operands: tuple, reg: str, n_qubits: int) -> tuple[int, int]:
    """The 1-based (control, target) of a cx's (name, index, name, index) operands, checked."""
    control = _qubit(*operands[:2], reg, n_qubits)
    target = _qubit(*operands[2:], reg, n_qubits)
    if control == target:
        raise QasmParseError(f"cx control and target are both {reg}[{control - 1}]")
    return control, target


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
