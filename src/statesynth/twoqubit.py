"""Two-qubit unitary synthesis with at most three CNOTs.

Every two-qubit block (a leaf) goes through one Cartan decomposition
U = phase * (A1 x A2) exp(i(hx XX + hy YY + hz ZZ)) (B1 x B2), built from a
real orthogonal diagonalization of the magic-basis (Bell-basis) image.  The
coordinates h, reduced modulo pi/2 into [-pi/4, pi/4], fix the CNOT count of
the circuit built from the same factors: none when all vanish, one for a
single +-pi/4, two when any vanishes and three otherwise.

Leaves are synthesized as one stack, in three stages:

1. the twist chain, serial: a leaf realized up to a diagonal takes the
   closed-form twist, and its diagonal multiplies the leaf it is pushed into;
2. one stacked Cartan decomposition of every leaf, from numpy's stacked
   det/eigvalsh/eigh/solve; only leaves with clustered eigenvalues go through
   the recursive joint diagonalization.  A twist that leaves the smallest
   coordinate above _TWIST_TOL is refined, and the chain restarts after that
   leaf;
3. emit and check: one stacked SVD splits every local factor, the gates are
   built on their final qubits, every one-qubit matrix passes one stacked
   unitarity check, and every leaf's emitted gate list is folded into its 4x4
   matrix and compared with the leaf at 1e-9.  The fold is stacked over the
   leaves whose gate lists have the same layout; nothing is simulated.

The public functions are one-leaf stacks.
"""

import cmath
import functools
import math

import numpy as np

from .circuit import Circuit, Cnot, OneQubitGate, _rebuilt_1q, _require_unitary_stack
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

# CNOT @ m permutes the rows of m; keyed by the control qubit
_CNOT_ROWS = {1: [0, 1, 3, 2], 2: [0, 3, 2, 1]}

_EYE4 = np.eye(4, dtype=complex)
_NO_DIAGONAL = np.ones(4)

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


def _phase_aligned_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-norm distance between a[i] and b[i] after aligning global phases."""
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    rows = np.arange(len(b))
    flat = np.argmax(np.abs(b), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = a[rows, flat] / b[rows, flat]
        # no phase is aligned against a vanishing pivot or a vanishing ratio
        aligned = (np.abs(b[rows, flat]) >= 1e-12) & (np.abs(phase) >= 1e-12)
        phase = np.where(aligned, phase / np.abs(phase), 1.0)
    return np.max(np.abs(a - phase[:, None] * b), axis=1)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between a and b after aligning global phases."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(_phase_aligned_distances(a[None], b[None])[0])


def _centered(m: np.ndarray) -> np.ndarray:
    # removing the mean keeps eigh's eigenvector accuracy relative to the
    # internal splitting rather than to the absolute eigenvalue scale
    m = (m + m.T) / 2.0
    return m - (np.trace(m) / len(m)) * np.eye(len(m))


def _joint_diagonalize(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
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
    w, p = np.linalg.eigh(a)
    return _split_clusters(a, b, w, p, wa[-1] - wa[0], depth)


def _split_clusters(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, p: np.ndarray, spread: float, depth: int
) -> np.ndarray:
    """Eigenbasis p of a (eigenvalues w, spread ``spread``) resolved by b.

    Within each cluster of w, closer than spread / (4n), the basis is rotated
    to diagonalize b as well; p is updated in place and returned.
    """
    n = len(w)
    if spread < 1e-13 or depth > 12:
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
            rot = _joint_diagonalize(sub_a, sub_b, depth + 1)
            p[:, i:j] = cols @ rot
        i = j
    return p


def _orth_bases(g: np.ndarray) -> np.ndarray:
    """Real orthogonal P[i] with P[i]^T g[i] P[i] diagonal, for a (N, 4, 4) stack.

    Each g[i] must be complex symmetric unitary (its real and imaginary parts
    then commute), which holds for every gamma matrix handled here.  The
    stack takes the eigenbasis of whichever part has the wider spectrum; a
    leaf where that spectrum clusters goes through _split_clusters.
    """
    sym = g + g.transpose(0, 2, 1)
    a = sym.real / 2.0
    b = sym.imag / 2.0
    wa = np.linalg.eigvalsh(a)
    wb = np.linalg.eigvalsh(b)
    spread_a = wa[:, -1] - wa[:, 0]
    spread_b = wb[:, -1] - wb[:, 0]
    wider_b = (spread_b > spread_a)[:, None, None]
    spread = np.where(wider_b[:, 0, 0], spread_b, spread_a)
    wide = np.where(wider_b, b, a)
    w, p = np.linalg.eigh(wide)
    # the cluster threshold of _split_clusters, for n = 4
    clustered = (w[:, 1:] - w[:, :-1] < (spread / (4.0 * 4))[:, None]).any(axis=1)
    for i in clustered.nonzero()[0]:
        _split_clusters(wide[i], np.where(wider_b[i], a[i], b[i]), w[i], p[i], spread[i], 0)
    return p


def _kak_stack(xs: np.ndarray):
    """Cartan decompositions of a (N, 4, 4) stack of unitaries.

    Returns (L1, h, L2, phases, failed), with L1[i] exp(i h[i].(XX, YY, ZZ))
    L2[i] * phases[i] == xs[i] as in :func:`kak_decompose`; ``failed`` flags
    the leaves whose magic-basis bidiagonalization failed.
    """
    dets = np.linalg.det(xs)
    scale = np.array([cmath.exp(-1j * cmath.phase(d) / 4.0) for d in dets.tolist()])
    m = MAGIC_DAG @ (xs * scale[:, None, None]) @ MAGIC
    g = m @ m.transpose(0, 2, 1)
    p = _orth_bases(g)
    eig = np.diagonal(p.transpose(0, 2, 1) @ g @ p, axis1=1, axis2=2).copy()
    flip = np.linalg.det(p) < 0
    p[flip, :, 0] = -p[flip, :, 0]
    d = np.exp(1j * np.angle(eig) / 2.0)
    r = (p.transpose(0, 2, 1) @ m) / d[:, :, None]
    flip = np.linalg.det(r).real < 0
    r[flip, 0, :] = -r[flip, 0, :]
    d[flip, 0] = -d[flip, 0]
    failed = np.max(np.abs(r.imag), axis=(1, 2)) > 1e-6
    l1 = MAGIC @ p @ MAGIC_DAG
    l2 = MAGIC @ r.real @ MAGIC_DAG
    coeffs = np.linalg.solve(_PATTERN, np.angle(d)[:, :, None])[:, :, 0]
    phases = [cmath.exp(1j * c) for c in coeffs[:, 0].tolist()]
    return l1, coeffs[:, 1:], l2, phases, failed


def kak_decompose(
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cartan decomposition U = phase * L1 @ exp(i sum h_a (sigma_a x sigma_a)) @ L2.

    Returns (L1, h, L2, phase) with h = (hx, hy, hz) and L1, L2 one-qubit
    tensor products.
    """
    l1, h, l2, phases, failed = _kak_stack(np.asarray(u, dtype=complex)[None])
    if failed[0]:
        raise SynthesisError("magic-basis bidiagonalization failed")
    return l1[0], h[0], l2[0], phases[0]


def _tensor_split(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) with a[i] (x) b[i] == ms[i], for a stack of exact tensor products."""
    r = ms.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u_, s_, vh_ = np.linalg.svd(r)
    if np.any(s_[:, 1] > 1e-6):
        raise SynthesisError("matrix is not a one-qubit tensor product")
    root = np.sqrt(s_[:, :1])
    a = (u_[:, :, 0] * root).reshape(-1, 2, 2)
    b = (vh_[:, 0] * root).reshape(-1, 2, 2)
    return a, b


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


@functools.cache
def _fixed_gates(offset: int) -> tuple:
    """CNOT(1, 2), H on 2, S on 1 and G_merge^dag on 2, on qubits offset+1, offset+2."""
    q1, q2 = offset + 1, offset + 2
    return (
        Cnot(q1, q2),
        OneQubitGate(q2, _H),
        OneQubitGate(q1, _S),
        OneQubitGate(q2, _G_MERGE.conj().T),
    )


def _interior_gates(hx: float, hy: float, hz: float, offset: int) -> list:
    """Three-CNOT realization of exp(i(hx XX + hy YY + hz ZZ)).

    Conjugating by CNOT(1,2) turns the interaction into a rotation on qubit 1
    multiplexed by qubit 2 plus a z-rotation on qubit 2; the trailing
    CZ-CNOT pair merges into a single CNOT with one-qubit corrections.  The
    rotations are checked with the rest of the stack.
    """
    cx, h_2, s_1, g_merge_dag_2 = _fixed_gates(offset)
    u_angle, v_angle, c_angle = -2.0 * hx, 2.0 * hy, -2.0 * hz
    return [
        g_merge_dag_2,
        h_2,
        cx,
        h_2,
        s_1,
        _rebuilt_1q(offset + 2, _rz(c_angle) @ _G_MERGE),
        _rebuilt_1q(offset + 1, _rx(v_angle)),
        h_2,
        cx,
        h_2,
        _rebuilt_1q(offset + 1, _rx(u_angle)),
        cx,
    ]


def _kak_frames(l1: np.ndarray, r: np.ndarray, l2: np.ndarray, offset: int):
    """Fewest-CNOT layout of L1 exp(i r.(XX, YY, ZZ)) L2, r reduced.

    Returns (frames, interior): the local tensor products to split, right
    frame first (L1 L2 alone when the interior is empty), and the interior
    gates on qubits offset+1, offset+2.
    """
    cx = _fixed_gates(offset)[0]
    zero = np.abs(r) <= _CLASS_TOL
    if zero.all():
        return [l1 @ l2], []
    if zero.sum() == 2 and abs(math.pi / 4.0 - np.max(np.abs(r))) <= _CLASS_TOL:
        # exp(i r ZZ) with r = +-pi/4 is (P x P) CZ up to phase
        l1, r, l2 = _swap_axes(l1, r, l2, int(np.argmin(zero)), 2)
        p = np.diag([1.0, -1j * np.sign(r[2])])
        l1 = l1 @ np.kron(p, p @ _H)
        l2 = np.kron(np.eye(2), _H) @ l2
        interior = [cx]
    elif zero.any():
        # CNOT(1,2) conjugation turns Rx x Rz into exp(i(r0 XX + r2 ZZ))
        l1, r, l2 = _swap_axes(l1, r, l2, 1 if zero[1] else int(np.argmax(zero)), 1)
        interior = [
            cx,
            _rebuilt_1q(offset + 1, _rx(-2.0 * r[0])),
            _rebuilt_1q(offset + 2, _rz(-2.0 * r[2])),
            cx,
        ]
    else:
        interior = _interior_gates(*r, offset)
    return [l2, l1], interior


def _kak_gates(factors: list, interior: list, offset: int) -> list:
    """A leaf's gates on qubits offset+1, offset+2.

    ``factors`` holds the one-qubit factor pair of each frame of
    :func:`_kak_frames`, right frame first; the matrices are checked with the
    rest of the stack.
    """
    (b1, b2), *left = factors
    gates = [_rebuilt_1q(offset + 1, b1), _rebuilt_1q(offset + 2, b2), *interior]
    for a1, a2 in left:
        gates += [_rebuilt_1q(offset + 1, a1), _rebuilt_1q(offset + 2, a2)]
    return gates


def _check_leaves(leaves: list) -> None:
    """Check every one-qubit matrix, then fold every leaf's gates against it.

    The leaves are grouped by the layout of their gate lists (gate kind and
    qubit, position by position); each group is folded as one stack.
    """
    groups: dict[tuple, list] = {}
    for leaf in leaves:
        # a CNOT is coded by its control, a one-qubit gate by minus its target
        off = leaf.offset
        layout = tuple(g.control - off if type(g) is Cnot else off - g.target for g in leaf.gates)
        groups.setdefault(layout, []).append(leaf)
    columns = {
        layout: [
            None if code > 0 else np.array([g.matrix for g in column])
            for code, column in zip(layout, zip(*[leaf.gates for leaf in group]))
        ]
        for layout, group in groups.items()
    }
    _require_unitary_stack(
        np.concatenate([mats for stacks in columns.values() for mats in stacks if mats is not None])
    )
    for layout, group in groups.items():
        m = np.broadcast_to(_EYE4, (len(group), 4, 4))
        for code, mats in zip(layout, columns[layout]):
            if code > 0:
                m = m[:, _CNOT_ROWS[code]]
            elif code == -1:
                m = (mats @ m.reshape(-1, 2, 8)).reshape(-1, 4, 4)
            else:
                m = (mats[:, None] @ m.reshape(-1, 2, 2, 4)).reshape(-1, 4, 4)
        deltas = np.array([_NO_DIAGONAL if leaf.delta is None else leaf.delta for leaf in group])
        targets = np.array([leaf.target for leaf in group])
        if not np.all(_phase_aligned_distances(m * deltas[:, None, :], targets) <= _VERIFY_TOL):
            raise SynthesisError("two-qubit synthesis failed to verify")


def _twist_diagonal(t: float) -> np.ndarray:
    return np.diag([1.0, 1.0, cmath.exp(-1j * t), cmath.exp(1j * t)])


_QUARTER_TURN = _twist_diagonal(math.pi / 2.0)


def _twisted(u_su4: np.ndarray, t: float) -> np.ndarray:
    return u_su4 @ _twist_diagonal(t)


def _closed_form_twist(u_su4: np.ndarray) -> float:
    """Twist t for which u Delta(t)^dag has a vanishing Cartan coordinate.

    The class condition -Re(phase^2) prod sin(2 h_a) is proportional to
    Im tr gamma, a zero-mean sinusoid in t; its root follows from two gamma
    traces.  The root is exact on generic inputs but loses accuracy near a
    special stratum, where the trace goes as a product of small coordinates;
    there :func:`_refined_twist` takes over.
    """
    g0 = np.trace(_gamma(u_su4))
    g1 = np.trace(_gamma(u_su4 @ _QUARTER_TURN))
    q14 = g0 / 4.0 + g1 / 4j
    q23 = g1 / 4j - g0 / 4.0
    return math.atan2(-(q14.imag - q23.imag), q14.real + q23.real)


def _twist_point(t: float, kak) -> tuple:
    """(min |r|, t, class condition, reduced KAK) for the KAK of u Delta(t)^dag."""
    l1, h, l2, phase = kak
    cond = -(phase * phase).real * float(np.prod(np.sin(2.0 * h)))
    l1, r = _reduce(l1, h)
    return float(np.min(np.abs(r))), t, cond, (l1, r, l2)


def _refined_twist(u_su4: np.ndarray, t0: float, kak0):
    """Twist and reduced KAK (L1, r, L2) from Illinois regula falsi.

    Refines the closed-form twist t0, whose KAK is kak0, on the factored class
    condition, whose factors the KAK coordinates give to full relative
    precision.
    """

    def at(t: float):
        return _twist_point(t, kak_decompose(_twisted(u_su4, t)))

    def smallest(point):
        return point[0]

    best = _twist_point(t0, kak0)
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


class _Leaf:
    """A two-qubit block of a stack, on qubits offset+1, offset+2.

    A twisted leaf is realized up to a trailing diagonal ``delta``, which
    multiplies ``prev`` (when given) from the left; ``target`` is the matrix
    the gates must realize: ``matrix`` with the diagonal of the leaf pushed
    into it, if any.
    """

    __slots__ = ("matrix", "offset", "twisted", "prev", "target", "delta", "su4", "twist", "gates")

    def __init__(self, matrix: np.ndarray, offset: int, twisted: bool = False):
        self.matrix = matrix
        self.target = matrix
        self.offset = offset
        self.twisted = twisted
        self.prev = None
        self.delta = None

    def set_twist(self, t: float) -> None:
        self.twist = t
        self.delta = np.array([1.0, 1.0, cmath.exp(1j * t), cmath.exp(-1j * t)])
        if self.prev is not None:
            self.prev.target = np.diag(self.delta) @ self.prev.matrix


def _synth_leaves(leaves: list) -> None:
    """Set the gates (and, if twisted, the diagonal) of every leaf of a stack.

    ``leaves`` come in chain order: a twisted leaf before its ``prev``.  The
    chain fixes every twist, one stacked KAK decomposes every leaf, and the
    gates are emitted and checked as one stack.  A twist that needs refining
    restarts the chain after its leaf.
    """
    kaks: list = []
    while len(kaks) < len(leaves):
        rest = leaves[len(kaks):]
        xs = []
        for leaf in rest:
            if leaf.twisted:
                leaf.su4 = to_su4(leaf.target)
                leaf.set_twist(_closed_form_twist(leaf.su4))
                xs.append(_twisted(leaf.su4, leaf.twist))
            else:
                xs.append(leaf.target)
        l1s, hs, l2s, phases, failed = _kak_stack(np.array(xs))
        for i, leaf in enumerate(rest):
            if failed[i]:
                raise SynthesisError("magic-basis bidiagonalization failed")
            l1, r = _reduce(l1s[i], hs[i])
            if leaf.twisted and np.min(np.abs(r)) > _TWIST_TOL:
                kak = (l1s[i], hs[i], l2s[i], phases[i])
                t, reduced = _refined_twist(leaf.su4, leaf.twist, kak)
                leaf.set_twist(t)
                kaks.append(reduced)
                break  # the leaves after it in the chain saw the unrefined diagonal
            kaks.append((l1, r, l2s[i]))
    frames, interiors = [], []
    for leaf, (l1, r, l2) in zip(leaves, kaks):
        if leaf.twisted:
            r[np.argmin(np.abs(r))] = 0.0
        local, interior = _kak_frames(l1, r, l2, leaf.offset)
        frames.append(local)
        interiors.append(interior)
    a, b = _tensor_split(np.array([m for local in frames for m in local]))
    j = 0
    for leaf, local, interior in zip(leaves, frames, interiors):
        factors = [(a[i], b[i]) for i in range(j, j + len(local))]
        j += len(local)
        leaf.gates = _kak_gates(factors, interior, leaf.offset)
    _check_leaves(leaves)


def synth_2q_unitary(u: np.ndarray) -> Circuit:
    """Circuit over {1q rotations, CNOT} equal to u up to global phase.

    Uses at most 3 CNOTs; tensor products need 0, the CNOT class needs 1 and
    unitaries with a vanishing Cartan coordinate need 2.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 matrix, got {u.shape}")
    require_unitary(u, what="two-qubit unitary")
    leaf = _Leaf(u, 0)
    _synth_leaves([leaf])
    return Circuit(2, tuple(leaf.gates))


def two_qubit_up_to_diagonal(u: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """Split u into a circuit of at most 2 CNOTs and a trailing diagonal.

    Returns (circuit, delta) with u == matrix(circuit) @ diag(delta) up to
    global phase.  The diagonal has the form (1, 1, e^{it}, e^{-it}), with
    the twist t chosen so that u diag(delta)^dag has a vanishing Cartan
    coordinate; the circuit comes from that product's decomposition.
    """
    leaf = _Leaf(np.asarray(u, dtype=complex), 0, twisted=True)
    _synth_leaves([leaf])
    return Circuit(2, tuple(leaf.gates)), leaf.delta
