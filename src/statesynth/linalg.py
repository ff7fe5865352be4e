"""Dense complex factorizations: SVD, unitary eigendecomposition, cosine-sine.

Each routine factors one square or rectangular complex matrix of dimension at
most ``MAX_DIM`` and guarantees entrywise reconstruction of the input from the
returned factors.  The synthesis checks the same limit once, at its entry, and
factors whole levels of its cosine-sine tree as stacks; these single-matrix
routines are its fallback for the matrices whose own stacked factors fail
their check (see ``synthesis._MIN_GAP``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BadDimensionError, NonFiniteError, NotUnitaryError, OddDimensionError

# Tolerance ladder: factors we construct satisfy 1e-10; inputs are accepted
# when their residuals stay below 1e-8.
CONSTRUCTION_TOL = 1e-10
INPUT_TOL = 1e-8

# The one size limit: no factored matrix is larger than 256x256, so no
# synthesized block has more than 8 qubits and no state more than 16.
MAX_DIM = 256


def require_max_dim(dim: int, what: str = "matrix") -> None:
    if dim > MAX_DIM:
        raise BadDimensionError(f"{what} dimension {dim} exceeds the {MAX_DIM} limit")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dag U - I."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {u.shape}")
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def require_unitary(u: np.ndarray, tol: float = INPUT_TOL, what: str = "matrix") -> np.ndarray:
    u = require_finite(u, what)
    defect = unitarity_defect(u)
    if defect > tol:
        raise NotUnitaryError(f"{what} is not unitary: residual {defect:.3e} > {tol:.1e}")
    return u


@dataclass(frozen=True)
class SvdResult:
    """A = U diag(sigma) V^dag with descending non-negative sigma."""

    u: np.ndarray
    singular_values: np.ndarray
    v_dagger: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.u.shape[0]
        n = self.v_dagger.shape[0]
        sigma = np.zeros((m, n))
        k = len(self.singular_values)
        sigma[:k, :k] = np.diag(self.singular_values)
        return self.u @ sigma @ self.v_dagger


def svd(a: np.ndarray) -> SvdResult:
    """Full singular value decomposition of a rectangular complex matrix."""
    a = require_finite(a)
    if a.ndim != 2:
        raise BadDimensionError(f"expected a matrix, got ndim {a.ndim}")
    require_max_dim(max(a.shape))
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SvdResult(u=u, singular_values=s, v_dagger=vh)


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary with an orthonormal eigenvector basis.

    Returns (eigenvalues, eigenvectors); column j of the eigenvector matrix
    belongs to eigenvalue j.  Uses the complex Schur form, which is diagonal
    for normal matrices, so degenerate eigenvalues still get orthonormal
    vectors.
    """
    u = require_unitary(u, what="eigendecomposition input")
    require_max_dim(u.shape[0])
    t, z = sla.schur(u, output="complex")
    return np.diag(t).copy(), z


@dataclass(frozen=True)
class CsdResult:
    """Cosine-sine factors of a 2m x 2m unitary.

    The input equals [[L0,0],[0,L1]] @ [[C,-S],[S,C]] @ [[R0,0],[0,R1]] with
    C = diag(cos theta), S = diag(sin theta) and theta in [0, pi/2].
    """

    l0: np.ndarray
    l1: np.ndarray
    theta: np.ndarray
    r0: np.ndarray
    r1: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = len(self.theta)
        c = np.diag(np.cos(self.theta))
        s = np.diag(np.sin(self.theta))
        left = np.block([[self.l0, np.zeros((m, m))], [np.zeros((m, m)), self.l1]])
        mid = np.block([[c, -s], [s, c]])
        right = np.block([[self.r0, np.zeros((m, m))], [np.zeros((m, m)), self.r1]])
        return left @ mid @ right


def cosine_sine(u: np.ndarray) -> CsdResult:
    """Cosine-sine decomposition of a unitary of even dimension."""
    u = require_unitary(u, what="cosine-sine input")
    dim = u.shape[0]
    if dim % 2 != 0:
        raise OddDimensionError(f"cosine-sine needs an even dimension, got {dim}")
    require_max_dim(dim)
    m = dim // 2
    (l0, l1), theta, (r0, r1) = sla.cossin(u, p=m, q=m, separate=True)
    return CsdResult(l0=l0, l1=l1, theta=np.asarray(theta), r0=r0, r1=r1)
