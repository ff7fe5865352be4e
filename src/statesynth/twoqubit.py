"""Two-qubit unitary synthesis with at most three CNOTs.

Every two-qubit block (a leaf) goes through one Cartan decomposition
U = phase * (A1 x A2) exp(i(hx XX + hy YY + hz ZZ)) (B1 x B2), built from a
real orthogonal diagonalization of the magic-basis (Bell-basis) image.  The
coordinates h, reduced modulo pi/2 into [-pi/4, pi/4], fix the CNOT count of
the circuit built from the same factors: none when all vanish, one for a
single +-pi/4, two when any vanishes and three otherwise.

Leaves are synthesized as one stack, in three stages:

1. the twist chain, serial: a leaf realized up to a diagonal is rescaled to
   SU(4) and takes the closed-form twist, and its diagonal multiplies the leaf
   it is pushed into; nothing else runs per leaf;
2. one stacked Cartan decomposition of every leaf u Delta(t)^dag, formed as
   one stacked product after the chain, from numpy's stacked
   det/eigvalsh/eigh/solve.  Where an eigenvalue spectrum clusters, one
   recursive routine resolves the clusters of each size, across the stack,
   as one stack; a cluster of two ends at one stacked 2x2 eigh.  The
   coordinates are reduced as one stack, and a twist that leaves the
   smallest coordinate above _TWIST_TOL is refined, after which the chain
   restarts after that leaf;
3. layout, emission and checks: the leaves are laid out by CNOT class as
   one stack (grouped by class and by the axes exchanged), and one stacked
   SVD splits every local factor.  Each class's one-qubit matrices are
   written as one (N, slots, 2, 2) stack, right frame, interior and left
   frame, in the order of its row of _LAYOUTS, the one table of leaf gate
   orders; a leaf's ops are that row on its final qubits.  Every matrix
   passes one stacked unitarity check, and each class stack is folded by the
   same row into 4x4 matrices and compared with its leaves at 1e-9.  Nothing
   is simulated and no gate object is made.

The public functions check their input and are one-leaf stacks.
"""

import cmath
import functools
import math

import numpy as np

from .circuit import Circuit, _from_arrays, _require_unitary_stack
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
_G_MERGE_DAG = _G_MERGE.conj().T

# CNOT @ m permutes the rows of m; keyed by the control qubit
_CNOT_ROWS = {1: np.array([0, 1, 3, 2]), 2: np.array([0, 3, 2, 1])}

_EYE4 = np.eye(4, dtype=complex)
_DIAG = np.arange(4)
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
    """Symmetric part of m, or of each matrix of a stack, minus its mean eigenvalue."""
    # removing the mean keeps eigh's eigenvector accuracy relative to the
    # internal splitting rather than to the absolute eigenvalue scale
    m = (m + np.swapaxes(m, -1, -2)) / 2.0
    dim = m.shape[-1]
    trace = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return m - (trace / dim) * np.eye(dim)


def _joint_bases(parts: np.ndarray) -> np.ndarray:
    """Common orthonormal eigenbases P[i] of the pairs parts[:, i], for a (2, N, d, d) stack.

    The two parts of each pair must be commuting real symmetric matrices.
    Each pair takes the eigenbasis of its part with the wider spectrum:
    clustering those eigenvalues at a threshold proportional to their own
    spread keeps the cross-cluster error at rounding level.  The splittings
    below that threshold are resolved from the centered restrictions of both
    parts to each cluster, where they reappear at full relative precision;
    the clusters of one size, across the stack, recurse as one stack.  A
    cluster's d - 1 gaps sum to less than the spread, so it is smaller than
    its block; a centered 2x2 pair never clusters, so a 2x2 block ends at
    its eigenbasis.
    """
    w_parts = np.linalg.eigvalsh(parts)
    spread_a, spread_b = w_parts[..., -1] - w_parts[..., 0]
    wider_b = spread_b > spread_a
    # [0]: the part with the wider spectrum, [1]: the other part
    wide_other = np.where(wider_b[:, None, None], parts[::-1], parts)
    w, p = np.linalg.eigh(wide_other[0])
    dim = w.shape[-1]
    if dim == 2:
        return p
    # links[i, j]: w[i, j] and w[i, j + 1] share a cluster; on a spread below
    # 1e-13 both parts are scalar, any basis works, and no gap is below 0
    spread = np.where(wider_b, spread_b, spread_a)
    tol = np.where(spread >= 1e-13, spread / (4.0 * dim), 0.0)
    links = w[:, 1:] - w[:, :-1] < tol[:, None]
    if not links.any():
        return p
    # each run of links opens at a +1 step and closes at a -1 step of the padded links
    padded = np.zeros((len(w), dim + 1), dtype=np.int8)
    padded[:, 1:dim] = links
    steps = padded[:, 1:] - padded[:, :-1]
    leaf, start = (steps == 1).nonzero()
    sizes = (steps == -1).nonzero()[1] - start + 1
    rows = np.arange(dim)[:, None]
    for size in set(sizes.tolist()):
        sel = sizes == size
        at = (leaf[sel, None, None], rows, start[sel, None, None] + np.arange(size))
        cols = p[at]
        sub = _centered(cols.transpose(0, 2, 1) @ wide_other[:, leaf[sel]] @ cols)
        p[at] = cols @ _joint_bases(sub)
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
    # g is complex symmetric unitary, so its real and imaginary parts commute
    sym = g + g.transpose(0, 2, 1)
    p = _joint_bases(np.array((sym.real, sym.imag)) / 2.0)
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


def _require_2q_unitary(u) -> np.ndarray:
    """u as a complex 4x4 unitary, or the typed error of a bad two-qubit input."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 matrix, got {u.shape}")
    return require_unitary(u, what="two-qubit unitary")


def _kak_one(u: np.ndarray) -> tuple:
    """:func:`kak_decompose` of a checked 4x4 unitary, as a stack of one."""
    l1, h, l2, phases, failed = _kak_stack(u[None])
    if failed[0]:
        raise SynthesisError("magic-basis bidiagonalization failed")
    return l1[0], h[0], l2[0], phases[0]


def kak_decompose(
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cartan decomposition U = phase * L1 @ exp(i sum h_a (sigma_a x sigma_a)) @ L2.

    Returns (L1, h, L2, phase) with h = (hx, hy, hz) and L1, L2 one-qubit
    tensor products.
    """
    return _kak_one(_require_2q_unitary(u))


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
    """Coordinates of a (N, 3) stack reduced into [-pi/4, pi/4], left factors absorbing the rest.

    exp(i k pi/2 PP) = (i PP)^k is local and commutes with the interaction.
    """
    k = np.round(h / (math.pi / 2.0)).astype(int)
    turns = k.tolist()
    l1 = l1 * np.array([1j ** sum(leaf) for leaf in turns])[:, None, None]
    for a, axis in enumerate(_AXES):
        odd = [i for i, leaf in enumerate(turns) if leaf[a] % 2]
        if odd:
            l1[odd] = l1[odd] @ axis
    return l1, h - k * (math.pi / 2.0)


def _swap_axes(l1, r, l2, sel, i: int, j: int) -> None:
    """Exchange coordinates i < j of the leaves ``sel`` in place, via a local frame."""
    cc = _AXIS_SWAP[(i, j)]
    l1[sel] = l1[sel] @ cc
    r[sel[:, None], [i, j]] = r[sel[:, None], [j, i]]
    l2[sel] = cc.conj().T @ l2[sel]


# the gate layout of a leaf with 0, 1, 2 or 3 CNOTs, position by position: a
# CNOT is coded by its control, a one-qubit gate by minus its target, both
# counted from the leaf offset; leaves are emitted and checked by this table
_LAYOUTS = (
    (-1, -2),
    (-1, -2, 1, -1, -2),
    (-1, -2, 1, -1, -2, 1, -1, -2),
    (-1, -2, -2, -2, 1, -2, -1, -2, -1, -2, 1, -2, -1, 1, -1, -2),
)


def _kak_frames(l1: np.ndarray, r: np.ndarray, l2: np.ndarray) -> list[int]:
    """Fewest-CNOT layout of L1 exp(i r.(XX, YY, ZZ)) L2, for a stack with r reduced.

    Returns the CNOT count of each leaf, and moves, in place, the leaf's
    coordinates onto the axes its interior realizes (:func:`_class_mats`), its
    frames absorbing the change; a leaf with no CNOT gets the whole local
    product L1 L2 in l2.  The frames are changed as one stack per axis
    exchange and per class.
    """
    cnots = []
    swaps: dict[tuple, list] = {}
    for i, coords in enumerate(np.abs(r).tolist()):
        zero = [c <= _CLASS_TOL for c in coords]
        moved = None
        if all(zero):
            cnots.append(0)
        elif sum(zero) == 2 and abs(math.pi / 4.0 - max(coords)) <= _CLASS_TOL:
            # exp(i r ZZ) with r = +-pi/4 is (P x P) CZ up to phase
            cnots.append(1)
            moved, onto = zero.index(False), 2
        elif any(zero):
            # CNOT(1,2) conjugation turns Rx x Rz into exp(i(r0 XX + r2 ZZ))
            cnots.append(2)
            moved, onto = 1 if zero[1] else zero.index(True), 1
        else:
            cnots.append(3)
        if moved is not None and moved != onto:
            swaps.setdefault((min(moved, onto), max(moved, onto)), []).append(i)
    for (i, j), sel in swaps.items():
        _swap_axes(l1, r, l2, np.array(sel), i, j)
    one = [i for i, c in enumerate(cnots) if c == 1]
    if one:
        turns = [np.kron(p, p @ _H) for p in (np.diag([1.0, -1j * s]) for s in np.sign(r[one, 2]))]
        l1[one] = l1[one] @ np.array(turns)
        l2[one] = np.kron(np.eye(2), _H) @ l2[one]
    none = [i for i, c in enumerate(cnots) if c == 0]
    if none:
        l2[none] = l1[none] @ l2[none]
    return cnots


@functools.cache
def _leaf_ops(cnots: int, offset: int) -> np.ndarray:
    """The ops of every leaf with ``cnots`` CNOTs at ``offset``, read off its
    _LAYOUTS row; read-only, as it is shared."""
    ops = np.array(
        [(offset + code, offset + 3 - code) if code > 0 else (offset - code, 0)
         for code in _LAYOUTS[cnots]],
        dtype=np.intp,
    )
    ops.flags.writeable = False
    return ops


def _class_mats(cnots: int, coords: list, right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The one-qubit matrices of the leaves of one CNOT class, as one
    (N, slots, 2, 2) stack in the order of the class's _LAYOUTS row.

    ``right`` and ``left`` hold the factors, on the leaf's first and second
    qubit, of each leaf's right and left frame, as (N, 2, 2, 2) stacks
    (``left`` is unused without CNOTs); the interior between them realizes
    exp(i r.(XX, YY, ZZ)), r in ``coords`` as :func:`_kak_frames` left it.
    With three CNOTs, conjugating by CNOT(1,2) turns the interaction into a
    rotation on qubit 1 multiplexed by qubit 2 plus a z-rotation on qubit 2;
    the trailing CZ-CNOT pair merges into a single CNOT with one-qubit
    corrections, G_MERGE^dag, H and S in every leaf.  The matrices are
    checked with the rest of the stack.
    """
    slots = sum(code < 0 for code in _LAYOUTS[cnots])
    stack = np.empty((len(coords), slots, 2, 2), dtype=complex)
    stack[:, :2] = right
    if cnots:
        stack[:, -2:] = left
    if cnots == 2:
        for mats, (hx, _, hz) in zip(stack, coords):
            mats[2] = _rx(-2.0 * hx)
            mats[3] = _rz(-2.0 * hz)
    elif cnots == 3:
        stack[:, [2, 3, 4, 5, 8, 9]] = _G_MERGE_DAG, _H, _H, _S, _H, _H
        for mats, (hx, hy, hz) in zip(stack, coords):
            mats[6] = _rz(-2.0 * hz) @ _G_MERGE
            mats[7] = _rx(2.0 * hy)
            mats[10] = _rx(-2.0 * hx)
    return stack


def _check_leaves(leaves: list, *, stacks: dict) -> None:
    """Check every one-qubit matrix, then fold every leaf's matrices against it.

    ``stacks`` maps each CNOT class to the matrices :func:`_class_mats`
    emitted for its leaves, in leaf order.  Each must hold one row per leaf
    of the class and one matrix per one-qubit slot of its layout.  Each
    class is folded by its _LAYOUTS row as one stack.
    """
    groups: dict[int, list] = {}
    for leaf in leaves:
        groups.setdefault(leaf.cnots, []).append(leaf)
    for cnots, group in groups.items():
        if stacks[cnots].shape[:2] != (len(group), sum(code < 0 for code in _LAYOUTS[cnots])):
            raise SynthesisError("two-qubit synthesis failed to verify")
    _require_unitary_stack(np.concatenate([stacks[cnots].reshape(-1, 2, 2) for cnots in groups]))
    for cnots, group in groups.items():
        mats = stacks[cnots]
        m = np.array([_EYE4] * len(group))
        j = 0
        for code in _LAYOUTS[cnots]:
            if code > 0:
                m = m[:, _CNOT_ROWS[code]]
                continue
            if code == -1:
                m = (mats[:, j] @ m.reshape(-1, 2, 8)).reshape(-1, 4, 4)
            else:
                m = (mats[:, j, None] @ m.reshape(-1, 2, 2, 4)).reshape(-1, 4, 4)
            j += 1
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
    Im tr gamma, a zero-mean sinusoid in t; its root follows from the gamma
    traces at t = 0 and t = pi/2, taken as one stack.  The root is exact on
    generic inputs but loses accuracy near a special stratum, where the trace
    goes as a product of small coordinates; there :func:`_refined_twist`
    takes over.
    """
    m = MAGIC_DAG @ np.array([u_su4, u_su4 @ _QUARTER_TURN]) @ MAGIC
    g0, g1 = np.trace(m @ m.transpose(0, 2, 1), axis1=1, axis2=2)
    q14 = g0 / 4.0 + g1 / 4j
    q23 = g1 / 4j - g0 / 4.0
    return math.atan2(-(q14.imag - q23.imag), q14.real + q23.real)


def _twist_point(t: float, kak) -> tuple:
    """(min |r|, t, class condition, reduced KAK stack of one) for the KAK of u Delta(t)^dag."""
    l1, h, l2, phase = kak
    cond = -(phase * phase).real * float(np.prod(np.sin(2.0 * h)))
    l1, r = _reduce(l1[None], h[None])
    return float(np.min(np.abs(r))), t, cond, (l1, r, l2[None])


def _refined_twist(u_su4: np.ndarray, t0: float, kak0):
    """Twist and reduced KAK (L1, r, L2), as stacks of one, from Illinois regula falsi.

    Refines the closed-form twist t0, whose KAK is kak0, on the factored class
    condition, whose factors the KAK coordinates give to full relative
    precision.
    """

    def at(t: float):
        return _twist_point(t, _kak_one(_twisted(u_su4, t)))

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
    into it, if any.  ``cnots`` is the CNOT count of its gates, and ``ops``
    and ``mats`` are its array form (see ``circuit``).
    """

    __slots__ = (
        "matrix", "offset", "twisted", "prev", "target", "delta", "su4", "twist", "cnots", "ops",
        "mats",
    )

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


def _kak_chain(leaves: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twist every twisted leaf of a stack and return its reduced KAK (L1, r, L2).

    The chain is serial: each twisted leaf, in chain order, is rescaled to
    SU(4), takes the closed-form twist, and pushes its diagonal into ``prev``.
    Then every u Delta(t)^dag is formed and decomposed as one stack.  A twist
    that leaves the smallest coordinate above _TWIST_TOL is refined, and the
    chain restarts after its leaf.
    """
    parts = []
    done = 0
    while done < len(leaves):
        rest = leaves[done:]
        twisted = [i for i, leaf in enumerate(rest) if leaf.twisted]
        for i in twisted:
            leaf = rest[i]
            leaf.su4 = to_su4(leaf.target)
            leaf.set_twist(_closed_form_twist(leaf.su4))
        xs = np.array([leaf.su4 if leaf.twisted else leaf.target for leaf in rest])
        if twisted:
            # Delta(t)^dag = diag(1, 1, e^-it, e^it): each delta with its last two entries exchanged
            diagonals = np.zeros((len(twisted), 4, 4), dtype=complex)
            diagonals[:, _DIAG, _DIAG] = np.array([rest[i].delta for i in twisted])[:, [0, 1, 3, 2]]
            xs[twisted] = xs[twisted] @ diagonals
        l1, h, l2, phases, failed = _kak_stack(xs)
        l1_reduced, r = _reduce(l1, h)
        stop = len(rest)
        if twisted:
            refine = np.min(np.abs(r[twisted]), axis=1) > _TWIST_TOL
            if refine.any():
                stop = twisted[int(refine.argmax())]
        if failed[: stop + 1].any():
            raise SynthesisError("magic-basis bidiagonalization failed")
        parts.append((l1_reduced[:stop], r[:stop], l2[:stop]))
        if stop < len(rest):
            leaf = rest[stop]
            kak = (l1[stop], h[stop], l2[stop], phases[stop])
            t, reduced = _refined_twist(leaf.su4, leaf.twist, kak)
            leaf.set_twist(t)
            parts.append(reduced)
            stop += 1  # the leaves after it in the chain saw the unrefined diagonal
        done += stop
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(stacks) for stacks in zip(*parts))


def _synth_leaves(leaves: list) -> None:
    """Set the array form (and, if twisted, the diagonal) of every leaf of a stack.

    ``leaves`` come in chain order: a twisted leaf before its ``prev``.  The
    chain fixes every twist and one stacked KAK decomposes every leaf
    (:func:`_kak_chain`); the leaves are laid out by CNOT class, and each
    class's matrices are emitted and checked as one stack.
    """
    l1, r, l2 = _kak_chain(leaves)
    twisted = [i for i, leaf in enumerate(leaves) if leaf.twisted]
    if twisted:
        r[twisted, np.argmin(np.abs(r[twisted]), axis=1)] = 0.0
    cnots = _kak_frames(l1, r, l2)
    # right frames of every leaf (the whole local product without CNOTs), then left frames
    entangled = [i for i, c in enumerate(cnots) if c]
    factors = np.stack(_tensor_split(np.concatenate((l2, l1[entangled]))), axis=1)
    left_of = np.zeros(len(leaves), dtype=np.intp)
    left_of[entangled] = np.arange(len(leaves), len(factors))
    classes: dict[int, list] = {}
    for i, (leaf, c) in enumerate(zip(leaves, cnots)):
        leaf.cnots = c
        classes.setdefault(c, []).append(i)
    coords = r.tolist()
    stacks = {
        c: _class_mats(c, [coords[i] for i in idx], factors[idx], factors[left_of[idx]])
        for c, idx in classes.items()
    }
    _check_leaves(leaves, stacks=stacks)
    for c, idx in classes.items():
        for i, mats in zip(idx, stacks[c]):
            leaf = leaves[i]
            leaf.ops, leaf.mats = _leaf_ops(c, leaf.offset), mats


def synth_2q_unitary(u: np.ndarray) -> Circuit:
    """Circuit over {1q rotations, CNOT} equal to u up to global phase.

    Uses at most 3 CNOTs; tensor products need 0, the CNOT class needs 1 and
    unitaries with a vanishing Cartan coordinate need 2.
    """
    leaf = _Leaf(_require_2q_unitary(u), 0)
    _synth_leaves([leaf])
    return _from_arrays(2, leaf.ops, leaf.mats)


def two_qubit_up_to_diagonal(u: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """Split u into a circuit of at most 2 CNOTs and a trailing diagonal.

    Returns (circuit, delta) with u == matrix(circuit) @ diag(delta) up to
    global phase.  The diagonal has the form (1, 1, e^{it}, e^{-it}), with
    the twist t chosen so that u diag(delta)^dag has a vanishing Cartan
    coordinate; the circuit comes from that product's decomposition.
    """
    leaf = _Leaf(_require_2q_unitary(u), 0, twisted=True)
    _synth_leaves([leaf])
    return _from_arrays(2, leaf.ops, leaf.mats), leaf.delta
