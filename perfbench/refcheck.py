"""Reference checker, independent of the library under test.

Circuits arrive either as OpenQASM text (the u3/cx subset the compiler emits)
or as the library's circuit objects, read by attribute only.  Both become a
neutral gate list ``[("u", target, 2x2 matrix) | ("cx", control, target)]``
with 1-based qubits, qubit 1 the most significant bit.  A dense simulator
applies the list with ``numpy.tensordot``; counts, CNOT-layer depth and the
closed-form ceilings of the scheme are computed here as well, so no verdict
relies on code from ``src/``.
"""

import hashlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FIDELITY_FLOOR = 1.0 - 1e-9

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
).reshape(2, 2, 2, 2)

_QREG = re.compile(r"qreg\s+q\[(\d+)\];")
_U3 = re.compile(r"u3\(([^,()]+),([^,()]+),([^,()]+)\)\s+q\[(\d+)\];")
_CX = re.compile(r"cx\s+q\[(\d+)\],q\[(\d+)\];")
_HEADER = ("OPENQASM 2.0;", 'include "qelib1.inc";')


class CheckError(ValueError):
    """The text or circuit is not in the form the checker accepts."""


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -complex(math.cos(lam), math.sin(lam)) * s],
            [complex(math.cos(phi), math.sin(phi)) * s,
             complex(math.cos(phi + lam), math.sin(phi + lam)) * c],
        ]
    )


def gates_from_qasm(text: str) -> tuple[int, list]:
    """Parse one-statement-per-line u3/cx OpenQASM as the compiler emits it."""
    lines = text.splitlines()
    if tuple(lines[:2]) != _HEADER or len(lines) < 3:
        raise CheckError("missing OpenQASM header")
    m = _QREG.fullmatch(lines[2])
    if not m:
        raise CheckError(f"bad qreg line {lines[2]!r}")
    n = int(m.group(1))
    gates = []
    for line in lines[3:]:
        m = _CX.fullmatch(line)
        if m:
            gates.append(("cx", int(m.group(1)) + 1, int(m.group(2)) + 1))
            continue
        m = _U3.fullmatch(line)
        if not m:
            raise CheckError(f"unexpected statement {line!r}")
        theta, phi, lam = (float(m.group(i)) for i in (1, 2, 3))
        gates.append(("u", int(m.group(4)) + 1, u3(theta, phi, lam)))
    _check_qubits(n, gates)
    return n, gates


def gates_from_circuit(circ) -> tuple[int, list]:
    """Read a library circuit: CNOTs have ``control``, one-qubit gates ``matrix``."""
    gates = []
    for g in circ.gates:
        if hasattr(g, "control"):
            gates.append(("cx", int(g.control), int(g.target)))
        else:
            gates.append(("u", int(g.target), np.asarray(g.matrix, dtype=complex)))
    n = int(circ.n_qubits)
    _check_qubits(n, gates)
    return n, gates


def _check_qubits(n: int, gates: list) -> None:
    for g in gates:
        qubits = g[1:] if g[0] == "cx" else g[1:2]
        if any(not 1 <= q <= n for q in qubits) or (g[0] == "cx" and g[1] == g[2]):
            raise CheckError(f"gate {g[0]} on qubits {qubits} outside 1..{n}")


def fingerprint(gates: list) -> str:
    """Digest equal for two gate lists iff they match gate for gate, bit for bit."""
    h = hashlib.sha256()
    for g in gates:
        if g[0] == "cx":
            h.update(b"cx%d,%d;" % (g[1], g[2]))
        else:
            h.update(b"u%d:" % g[1])
            h.update(np.ascontiguousarray(g[2]).tobytes())
    return h.hexdigest()


def simulate(n: int, gates: list, columns: np.ndarray) -> np.ndarray:
    """Apply the gates to each column of a (2^n, b) array."""
    batch = columns.shape[1]
    psi = np.array(columns, dtype=complex).reshape((2,) * n + (batch,))
    for g in gates:
        if g[0] == "cx":
            c, t = g[1] - 1, g[2] - 1
            psi = np.moveaxis(np.tensordot(_CNOT, psi, axes=([2, 3], [c, t])), (0, 1), (c, t))
        else:
            t = g[1] - 1
            psi = np.moveaxis(np.tensordot(g[2], psi, axes=([1], [t])), 0, t)
    return psi.reshape(1 << n, batch)


def prepared_state(n: int, gates: list) -> np.ndarray:
    zero = np.zeros((1 << n, 1), dtype=complex)
    zero[0, 0] = 1.0
    return simulate(n, gates, zero)[:, 0]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


@dataclass(frozen=True)
class Counts:
    cnots: int
    depth: int
    gates: int


def counts(n: int, gates: list) -> Counts:
    """CNOT count, ASAP CNOT-layer depth (one-qubit gates free), gate count."""
    level = [0] * (n + 1)
    cnots = 0
    for g in gates:
        if g[0] == "cx":
            cnots += 1
            layer = max(level[g[1]], level[g[2]]) + 1
            level[g[1]] = level[g[2]] = layer
    return Counts(cnots=cnots, depth=max(level), gates=len(gates))


# Closed-form ceilings of the four-phase scheme (integer arithmetic).


def unitary_ceiling(k: int) -> int:
    """23/48*4^k - 3/2*2^k + 4/3 CNOTs for a k-qubit unitary, 0 for k = 1."""
    if k <= 1:
        return 0
    value = Fraction(23, 48) * 4**k - Fraction(3, 2) * 2**k + Fraction(4, 3)
    return int(value)


def baseline_ceiling(n: int) -> int:
    """2^n - n - 1 CNOTs for the multiplexed-gate cascade."""
    return 2**n - n - 1


def _phase1_ceiling(k: int) -> int:
    return 0 if k <= 1 else min(baseline_ceiling(k), scheme_ceiling(k))


def scheme_ceiling(n: int) -> int:
    """CNOT ceiling of the pipeline: load + copy fan + two basis changes."""
    k1, k2 = n // 2, n - n // 2
    return _phase1_ceiling(k1) + k1 + unitary_ceiling(k1) + unitary_ceiling(k2)


def scheme_depth_ceiling(n: int) -> int:
    """Depth ceiling: load, one fan layer, then both basis changes in parallel."""
    k1, k2 = n // 2, n - n // 2
    return _phase1_ceiling(k1) + 1 + max(unitary_ceiling(k1), unitary_ceiling(k2))
