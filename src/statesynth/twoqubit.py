"""Two-qubit unitary synthesis with at most three CNOTs.

Every two-qubit block goes through one Cartan decomposition
U = phase * (A1 x A2) exp(i(hx XX + hy YY + hz ZZ)) (B1 x B2), built from a
real orthogonal diagonalization of the magic-basis (Bell-basis) image.  The
coordinates h, reduced modulo pi/2 into [-pi/4, pi/4], fix the CNOT count of
the circuit built from the same factors: none when all vanish, one for a
single +-pi/4, two when any vanishes and three otherwise.

Every synthesized circuit is verified against the input before it is
returned: the emitted gate list is folded, gate by gate, into its 4x4 matrix,
which is compared with the input.  The fold works on the 4x4 matrix directly,
with no Circuit and no simulation; the Circuit is built once the check has
passed.  The fixed gates of the CNOT interiors are built once, at import.
"""

import cmath
import math

import numpy as np

from .circuit import Circuit, Cnot, OneQubitGate
from .errors import BadDimensionError, SynthesisError
from .linalg import require_unitary

# magic basis: columns are Bell-like states; maps SU(2)xSU(2) to SO(4)
MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
) / np.sqrt(2.0)
MAGIC_DAG = MAGIC.conj().T

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.diag([1.0, 1j])
_SQRT_X = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2.0)

# XX, YY, ZZ: the interaction axes of the Cartan coordinates
_AXES = tuple(np.kron(p, p) for p in (_X, _Y, _Z))

# (c x c) for a c exchanging two interaction axes and fixing the third
_AXIS_SWAP = {(0, 1): np.kron(_S, _S), (1, 2): np.kron(_SQRT_X, _SQRT_X), (0, 2): np.kron(_H, _H)}

# eigenvector basis of ZX = iY, used when a CZ is merged into a trailing CNOT
_G_MERGE = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0)

# the fixed gates of the CNOT interiors
_CX = Cnot(1, 2)
_H_2 = OneQubitGate(2, _H)
_S_1 = OneQubitGate(1, _S)
_G_MERGE_DAG_2 = OneQubitGate(2, _G_MERGE.conj().T)

# CNOT @ m permutes the rows of m; keyed by the control qubit
_CNOT_ROWS = {1: [0, 1, 3, 2], 2: [0, 3, 2, 1]}

# diagonal patterns of XX, YY, ZZ in the magic basis; rows of the linear
# system mapping (h0, hx, hy, hz) to the four interaction phases
_PATTERN = np.array(
    [
        [1.0, 1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, -1.0],
    ]
)

# a reduced coordinate within _CLASS_TOL of 0 or +-pi/4 is moved onto that
# value, which moves the matrix by about as much, well inside _VERIFY_TOL; the
# up-to-diagonal split drives its smallest coordinate below _TWIST_TOL
_CLASS_TOL = 1e-10
_TWIST_TOL = 1e-13
_VERIFY_TOL = 1e-9
_ROOT_MAX_ITER = 100


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-1j * theta / 2.0), cmath.exp(1j * theta / 2.0)])


def to_su4(u: np.ndarray) -> np.ndarray:
    """Rescale a 4x4 unitary to determinant one."""
    det = np.linalg.det(u)
    return u * cmath.exp(-1j * cmath.phase(det) / 4.0)


def _gamma(u_su4: np.ndarray) -> np.ndarray:
    m = MAGIC_DAG @ u_su4 @ MAGIC
    return m @ m.T


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between a and b after aligning global phases."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    flat = np.argmax(np.abs(b))
    idx = np.unravel_index(flat, b.shape)
    if abs(b[idx]) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = a[idx] / b[idx]
    if abs(phase) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase /= abs(phase)
    return float(np.max(np.abs(a - phase * b)))


def _centered(m: np.ndarray) -> np.ndarray:
    # removing the mean keeps eigh's eigenvector accuracy relative to the
    # internal splitting rather than to the absolute eigenvalue scale
    m = (m + m.T) / 2.0
    return m - (np.trace(m) / len(m)) * np.eye(len(m))


def _joint_diagonalize(a: np.ndarray, b: np.ndarray, _depth: int = 0) -> np.ndarray:
    """Common orthonormal eigenbasis of commuting real symmetric a and b.

    Always splits on the matrix with the wider spectrum: clustering its
    eigenvalues at a threshold proportional to its own spread keeps the
    cross-cluster error at rounding level, and the splittings that sit below
    that threshold are resolved recursively from the centered restrictions,
    where they reappear at full relative precision.
    """
    n = a.shape[0]
    if n == 1:
        return np.eye(1)
    wa = np.linalg.eigvalsh(a)
    wb = np.linalg.eigvalsh(b)
    if wb[-1] - wb[0] > wa[-1] - wa[0]:
        a, b = b, a
        wa = wb
    spread = wa[-1] - wa[0]
    w, p = np.linalg.eigh(a)
    if spread < 1e-13 or _depth > 12:
        # both matrices are scalar on this block; any orthonormal basis works
        return p
    tol = spread / (4.0 * n)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] < tol:
            j += 1
        if j - i > 1:
            cols = p[:, i:j]
            sub_a = _centered(cols.T @ a @ cols)
            sub_b = _centered(cols.T @ b @ cols)
            rot = _joint_diagonalize(sub_a, sub_b, _depth + 1)
            p[:, i:j] = cols @ rot
        i = j
    return p


def _orth_diagonalize(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal P and complex eigenvalues with P^T g P diagonal.

    g must be complex symmetric unitary (its real and imaginary parts then
    commute), which holds for every gamma matrix handled here.
    """
    a = (g + g.T).real / 2.0
    b = (g + g.T).imag / 2.0
    p = _joint_diagonalize(a, b)
    eig = np.diag(p.T @ g @ p).copy()
    return p, eig


def _tensor_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) with a (x) b == m, for m an exact tensor product."""
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u_, s_, vh_ = np.linalg.svd(r)
    if s_[1] > 1e-6:
        raise SynthesisError("matrix is not a one-qubit tensor product")
    a = (u_[:, 0] * np.sqrt(s_[0])).reshape(2, 2)
    b = (vh_[0] * np.sqrt(s_[0])).reshape(2, 2)
    return a, b


def kak_decompose(
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cartan decomposition U = phase * L1 @ exp(i sum h_a (sigma_a x sigma_a)) @ L2.

    Returns (L1, h, L2, phase) with h = (hx, hy, hz) and L1, L2 one-qubit
    tensor products.
    """
    u_su4 = to_su4(np.asarray(u, dtype=complex))
    m = MAGIC_DAG @ u_su4 @ MAGIC
    p, eig = _orth_diagonalize(m @ m.T)
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    d = np.exp(1j * np.angle(eig) / 2.0)
    r = (p.T @ m) / d[:, None]
    if np.linalg.det(r).real < 0:
        r[0, :] = -r[0, :]
        d[0] = -d[0]
    if np.max(np.abs(r.imag)) > 1e-6:
        raise SynthesisError("magic-basis bidiagonalization failed")
    l1 = MAGIC @ p @ MAGIC_DAG
    l2 = MAGIC @ r.real @ MAGIC_DAG
    coeffs = np.linalg.solve(_PATTERN, np.angle(d))
    phase = cmath.exp(1j * coeffs[0])
    return l1, coeffs[1:], l2, phase


def _reduce(l1: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates reduced into [-pi/4, pi/4], left factor absorbing the rest.

    exp(i k pi/2 PP) = (i PP)^k is local and commutes with the interaction.
    """
    k = np.round(h / (math.pi / 2.0)).astype(int)
    l1 = l1 * 1j ** int(k.sum())
    for axis, turns in zip(_AXES, k):
        if turns % 2:
            l1 = l1 @ axis
    return l1, h - k * (math.pi / 2.0)


def _swap_axes(l1, r, l2, i: int, j: int):
    """Same matrix with coordinates i and j exchanged, via a local frame."""
    if i == j:
        return l1, r, l2
    cc = _AXIS_SWAP[(min(i, j), max(i, j))]
    r = r.copy()
    r[[i, j]] = r[[j, i]]
    return l1 @ cc, r, cc.conj().T @ l2


def _interior_gates(hx: float, hy: float, hz: float) -> list:
    """Three-CNOT realization of exp(i(hx XX + hy YY + hz ZZ)).

    Conjugating by CNOT(1,2) turns the interaction into a rotation on qubit 1
    multiplexed by qubit 2 plus a z-rotation on qubit 2; the trailing
    CZ-CNOT pair merges into a single CNOT with one-qubit corrections.
    """
    u_angle, v_angle, c_angle = -2.0 * hx, 2.0 * hy, -2.0 * hz
    return [
        _G_MERGE_DAG_2,
        _H_2,
        _CX,
        _H_2,
        _S_1,
        OneQubitGate(2, _rz(c_angle) @ _G_MERGE),
        OneQubitGate(1, _rx(v_angle)),
        _H_2,
        _CX,
        _H_2,
        OneQubitGate(1, _rx(u_angle)),
        _CX,
    ]


def _kak_gates(l1: np.ndarray, r: np.ndarray, l2: np.ndarray) -> list:
    """Fewest-CNOT gates for L1 exp(i r.(XX, YY, ZZ)) L2, r reduced."""
    zero = np.abs(r) <= _CLASS_TOL
    if zero.all():
        a, b = _tensor_split(l1 @ l2)
        return [OneQubitGate(1, a), OneQubitGate(2, b)]
    if zero.sum() == 2 and abs(math.pi / 4.0 - np.max(np.abs(r))) <= _CLASS_TOL:
        # exp(i r ZZ) with r = +-pi/4 is (P x P) CZ up to phase
        l1, r, l2 = _swap_axes(l1, r, l2, int(np.argmin(zero)), 2)
        p = np.diag([1.0, -1j * np.sign(r[2])])
        l1 = l1 @ np.kron(p, p @ _H)
        l2 = np.kron(np.eye(2), _H) @ l2
        interior = [_CX]
    elif zero.any():
        # CNOT(1,2) conjugation turns Rx x Rz into exp(i(r0 XX + r2 ZZ))
        l1, r, l2 = _swap_axes(l1, r, l2, 1 if zero[1] else int(np.argmax(zero)), 1)
        interior = [
            _CX,
            OneQubitGate(1, _rx(-2.0 * r[0])),
            OneQubitGate(2, _rz(-2.0 * r[2])),
            _CX,
        ]
    else:
        interior = _interior_gates(*r)
    a1, a2 = _tensor_split(l1)
    b1, b2 = _tensor_split(l2)
    return [
        OneQubitGate(1, b1),
        OneQubitGate(2, b2),
        *interior,
        OneQubitGate(1, a1),
        OneQubitGate(2, a2),
    ]


def _gates_matrix(gates: list) -> np.ndarray:
    """4x4 matrix of gates on qubits (1, 2), folded in gate order."""
    m = np.eye(4, dtype=complex)
    for g in gates:
        if isinstance(g, Cnot):
            m = m[_CNOT_ROWS[g.control]]
        elif g.target == 1:
            m = (g.matrix @ m.reshape(2, 8)).reshape(4, 4)
        else:
            m = (g.matrix @ m.reshape(2, 2, 4)).reshape(4, 4)
    return m


def _verify(matrix: np.ndarray, target: np.ndarray) -> None:
    if phase_aligned_distance(matrix, target) > _VERIFY_TOL:
        raise SynthesisError("two-qubit synthesis failed to verify")


def synth_2q_unitary(u: np.ndarray) -> Circuit:
    """Circuit over {1q rotations, CNOT} equal to u up to global phase.

    Uses at most 3 CNOTs; tensor products need 0, the CNOT class needs 1 and
    unitaries with a vanishing Cartan coordinate need 2.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 matrix, got {u.shape}")
    require_unitary(u, what="two-qubit unitary")
    l1, h, l2, _ = kak_decompose(u)
    l1, r = _reduce(l1, h)
    gates = _kak_gates(l1, r, l2)
    _verify(_gates_matrix(gates), u)
    return Circuit(2, tuple(gates))


def _twisted(u_su4: np.ndarray, t: float) -> np.ndarray:
    return u_su4 @ np.diag([1.0, 1.0, cmath.exp(-1j * t), cmath.exp(1j * t)])


def _two_cnot_twist(u_su4: np.ndarray):
    """Twist t and the reduced KAK (L1, r, L2) of u Delta(t)^dag with min |r| ~ 0.

    The class condition -Re(phase^2) prod sin(2 h_a) is proportional to
    Im tr gamma, a zero-mean sinusoid in t.  Its closed-form root from two
    gamma traces is exact on generic inputs but loses accuracy near a
    special stratum, where the trace goes as a product of small coordinates;
    there the root is refined on the factored form, whose factors the KAK
    coordinates give to full relative precision.
    """
    g0 = np.trace(_gamma(u_su4))
    g1 = np.trace(_gamma(_twisted(u_su4, math.pi / 2.0)))
    q14 = g0 / 4.0 + g1 / 4j
    q23 = g1 / 4j - g0 / 4.0
    t0 = math.atan2(-(q14.imag - q23.imag), q14.real + q23.real)

    def at(t: float):
        l1, h, l2, phase = kak_decompose(_twisted(u_su4, t))
        cond = -(phase * phase).real * float(np.prod(np.sin(2.0 * h)))
        l1, r = _reduce(l1, h)
        return float(np.min(np.abs(r))), t, cond, (l1, r, l2)

    def smallest(point):
        return point[0]

    best = at(t0)
    if best[0] > _TWIST_TOL:
        # f(t + pi) = -f(t), so t0 and one of t0 +- pi/2 bracket a root
        end = at(t0 + math.pi / 2.0)
        a, fa = t0, best[2]
        b, fb = end[1:3] if fa * end[2] <= 0 else (t0 - math.pi / 2.0, -end[2])
        best = min(best, end, key=smallest)
        side = 0
        for _ in range(_ROOT_MAX_ITER):  # Illinois regula falsi
            if best[0] <= _TWIST_TOL or fa == fb:
                break
            t = (a * fb - b * fa) / (fb - fa)
            if t in (a, b):
                break
            point = at(t)
            best = min(best, point, key=smallest)
            if point[2] * fb > 0:
                b, fb = t, point[2]
                if side == -1:
                    fa /= 2.0
                side = -1
            else:
                a, fa = t, point[2]
                if side == 1:
                    fb /= 2.0
                side = 1
    return best[1], best[3]


def two_qubit_up_to_diagonal(u: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """Split u into a circuit of at most 2 CNOTs and a trailing diagonal.

    Returns (circuit, delta) with u == matrix(circuit) @ diag(delta) up to
    global phase.  The diagonal has the form (1, 1, e^{it}, e^{-it}), with
    the twist t chosen so that u diag(delta)^dag has a vanishing Cartan
    coordinate; the circuit comes from that product's decomposition.
    """
    u = np.asarray(u, dtype=complex)
    t, (l1, r, l2) = _two_cnot_twist(to_su4(u))
    r[np.argmin(np.abs(r))] = 0.0
    gates = _kak_gates(l1, r, l2)
    delta = np.array([1.0, 1.0, cmath.exp(1j * t), cmath.exp(-1j * t)])
    _verify(_gates_matrix(gates) * delta[None, :], u)
    return Circuit(2, tuple(gates)), delta
