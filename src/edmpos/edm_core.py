"""Distance-matrix construction, factorization, and membership tests.

Working frame convention: raw anchor coordinates (meters) are translated so
their centroid sits at the origin and multiplied by a small scale factor so
that all linear algebra runs on O(1) numbers.  Distance-matrix entries are
squared distances in that scaled frame.  Outputs that represent physical
positions are mapped back to meters by undoing the scale and the translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadShape, NotAnEdm, SingularGeometry

DEFAULT_RANK_TOL = 1e-9
DEFAULT_SCALE = 1e-7


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SatelliteConfig:
    """Centered, scaled anchor coordinates plus the bookkeeping to undo both.

    P is (n, r) with column sums ~0.  ``centroid`` stays in meters so a
    recovered position can be translated back: world = centered/scale + centroid.
    Q, R are the reduced QR factors of P, computed once at construction for
    every position solve on this geometry; rank_deficient flags an R whose
    diagonal is numerically singular, which position recovery refuses.
    """

    P: np.ndarray
    centroid: np.ndarray
    n: int
    r: int
    scale: float
    Q: np.ndarray = field(init=False, repr=False, compare=False)
    R: np.ndarray = field(init=False, repr=False, compare=False)
    rank_deficient: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        Q, R = np.linalg.qr(self.P)
        rdiag = np.abs(np.diag(R))
        deficient = not rdiag.size or rdiag.min() <= 1e-12 * max(rdiag.max(), 1e-300)
        object.__setattr__(self, "Q", _readonly(Q))
        object.__setattr__(self, "R", _readonly(R))
        object.__setattr__(self, "rank_deficient", bool(deficient))


def center_configuration(
    raw_points: np.ndarray,
    scale: float = DEFAULT_SCALE,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SatelliteConfig:
    """Center raw anchor coordinates (meters) and scale them to an O(1) frame.

    Raises BadShape if fewer than r+1 points are given and SingularGeometry
    if the centered points do not span all r dimensions.
    """
    raw = np.asarray(raw_points, dtype=float)
    if raw.ndim != 2:
        raise BadShape(f"expected a 2-D point array, got shape {raw.shape}")
    n, r = raw.shape
    if n < r + 1:
        raise BadShape(f"need at least r+1={r + 1} points to span {r} dimensions, got {n}")
    if not (scale > 0.0):
        raise BadShape(f"scale must be positive, got {scale}")
    centroid = raw.mean(axis=0)
    P = scale * (raw - centroid)
    svals = np.linalg.svd(P, compute_uv=False)
    if svals[0] == 0.0 or svals[r - 1] <= rank_tol * svals[0]:
        raise SingularGeometry(
            f"centered points span fewer than {r} dimensions "
            f"(singular values {svals.tolist()})"
        )
    return SatelliteConfig(
        P=_readonly(P), centroid=_readonly(centroid), n=n, r=r, scale=float(scale)
    )


def build_edm(config: SatelliteConfig) -> np.ndarray:
    """Matrix of pairwise squared distances between the configured anchors."""
    P = config.P
    diff = P[:, None, :] - P[None, :, :]
    D = np.einsum("ijk,ijk->ij", diff, diff)
    # symmetric with exact zero diagonal by construction
    return D


@lru_cache(maxsize=None)
def build_v_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector.

    Built from the Householder reflection that sends ones/sqrt(n) to the first
    standard basis vector; the trailing n-1 columns of that reflection are the
    basis.  Deterministic, and [ones/sqrt(n), V] is exactly orthogonal.
    """
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    u = np.full(n, 1.0 / np.sqrt(n))
    v = u.copy()
    v[0] -= 1.0
    H = np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v)
    V = H[:, 1:].copy()
    return _readonly(V)


def gram_from_edm(D: np.ndarray) -> np.ndarray:
    """Centered Gram matrix of a squared-distance matrix: -J D J / 2."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * (J @ D @ J)
    return 0.5 * (B + B.T)


def edm_from_gram(B: np.ndarray) -> np.ndarray:
    """Squared-distance matrix of a Gram matrix: diag*1' + 1*diag' - 2B."""
    B = np.asarray(B, dtype=float)
    b = np.diag(B)
    return b[:, None] + b[None, :] - 2.0 * B


@dataclass(frozen=True)
class EdmClass:
    """Membership verdict: a distance matrix of a specific embedding dimension, or not one.

    ``witness`` carries the most negative test eigenvalue when the matrix is
    rejected.
    """

    is_edm: bool
    dim: int | None = None
    witness: float | None = None

    @classmethod
    def edm_of_dim(cls, k: int) -> "EdmClass":
        return cls(is_edm=True, dim=int(k))

    @classmethod
    def not_edm(cls, witness: float) -> "EdmClass":
        return cls(is_edm=False, witness=float(witness))

    def __str__(self) -> str:
        if self.is_edm:
            return f"EdmOfDim({self.dim})"
        return f"NotEdm(witness={self.witness:.3e})"


@dataclass(frozen=True)
class EdmBundle:
    """Factorization of one squared-distance matrix, reused by every downstream step.

    Fields:
        D: the (n, n) squared-distance matrix itself.
        V: orthonormal complement basis of the ones vector, (n, n-1).
        X: projected Gram matrix -V' D V / 2, (n-1, n-1), PSD of rank r.
        B: centered Gram matrix V X V', (n, n).
        b: diagonal of B.
        Bdag: Moore-Penrose pseudoinverse of B.
        Z: orthonormal basis of the null space of [P 1]', (n, n-1-r); empty
           when n = r + 1.
        r: embedding dimension (rank of X).
        W, delta: eigenvectors/eigenvalues of X above the rank cut, descending.
        U: eigenvectors of X at the rank cut (null block).
        rank_tol: relative eigenvalue cut used to split (W, delta) from U.
        P_eigen: centered eigen realization (V W) sqrt(delta), (n, r); its
            Gram matrix is B.
    """

    D: np.ndarray
    V: np.ndarray
    X: np.ndarray
    B: np.ndarray
    b: np.ndarray
    Bdag: np.ndarray
    Z: np.ndarray
    r: int
    W: np.ndarray
    delta: np.ndarray
    U: np.ndarray
    rank_tol: float
    P_eigen: np.ndarray

    @property
    def n(self) -> int:
        return self.D.shape[0]


def _check_hollow_symmetric(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {D.shape}")
    scale = max(float(np.abs(D).max()), 1.0)
    if float(np.abs(D - D.T).max()) > 1e-12 * scale:
        raise BadShape("matrix is not symmetric")
    if float(np.abs(np.diag(D)).max()) > 1e-12 * scale:
        raise BadShape("matrix diagonal is not zero")
    return 0.5 * (D + D.T)


def factor_edm(
    D: np.ndarray,
    V: np.ndarray | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> EdmBundle:
    """Factor a squared-distance matrix into the bundle used by the solvers.

    Raises NotAnEdm when the projected Gram matrix has an eigenvalue below
    -rank_tol * max(|eigenvalues|, 1).
    """
    D = _check_hollow_symmetric(D)
    n = D.shape[0]
    if V is None:
        V = build_v_basis(n)
    X = -0.5 * (V.T @ D @ V)
    X = 0.5 * (X + X.T)
    evals, evecs = np.linalg.eigh(X)
    thr = rank_tol * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    if evals[0] < -thr:
        raise NotAnEdm(
            f"projected Gram matrix has eigenvalue {evals[0]:.6e} below -{thr:.1e}",
            witness=float(evals[0]),
        )
    # descending order; everything above the cut is signal, the rest is null space
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    r = int(np.count_nonzero(evals > thr))
    W = evecs[:, :r].copy()
    delta = evals[:r].copy()
    U = evecs[:, r:].copy()
    B = V @ X @ V.T
    B = 0.5 * (B + B.T)
    b = np.diag(B).copy()
    VW = V @ W
    Bdag = (VW / delta) @ VW.T if r else np.zeros((n, n))
    Bdag = 0.5 * (Bdag + Bdag.T)
    Z = V @ U
    return EdmBundle(
        D=_readonly(D),
        V=V,
        X=_readonly(X),
        B=_readonly(B),
        b=_readonly(b),
        Bdag=_readonly(Bdag),
        Z=_readonly(Z),
        r=r,
        W=_readonly(W),
        delta=_readonly(delta),
        U=_readonly(U),
        rank_tol=float(rank_tol),
        P_eigen=_readonly(VW * np.sqrt(delta)),
    )


def eigen_configuration(bundle: EdmBundle) -> np.ndarray:
    """A centered point configuration realizing the bundle's distance matrix.

    Returns the (n, r) matrix V W sqrt(delta): its Gram matrix is exactly B.
    Any other centered realization differs from it by a rotation/reflection.
    """
    return bundle.P_eigen


def _classify_eigs(evals: np.ndarray, rank_tol: float) -> EdmClass:
    thr = rank_tol * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    lo = float(evals.min(initial=0.0))
    if lo < -thr:
        return EdmClass.not_edm(lo)
    return EdmClass.edm_of_dim(int(np.count_nonzero(evals > thr)))


def classify_edm(
    D: np.ndarray,
    rank_tol: float = DEFAULT_RANK_TOL,
    V: np.ndarray | None = None,
) -> EdmClass:
    """Decide whether D is a squared-distance matrix and of which dimension.

    The test matrix is -V' D V: D is a distance matrix exactly when that
    matrix is positive semidefinite, and the embedding dimension is its rank.
    """
    D = _check_hollow_symmetric(D)
    if V is None:
        V = build_v_basis(D.shape[0])
    M = -(V.T @ D @ V)
    M = 0.5 * (M + M.T)
    return _classify_eigs(np.linalg.eigh(M)[0], rank_tol)


def augmented_edm_check(
    bundle: EdmBundle,
    y: np.ndarray,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> EdmClass:
    """Classify the distance matrix extended by one point at squared distances y.

    The candidate row/column y joins bundle.D as [[0, y'], [y, D]].  That
    extension is a distance matrix of dimension k exactly when
    y*1' + 1*y' - D is positive semidefinite with rank k (it is twice the
    Gram matrix of the anchors relative to the new point).
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    if y.shape != (n,):
        raise BadShape(f"expected a length-{n} vector, got shape {y.shape}")
    M = y[:, None] + y[None, :] - bundle.D
    M = 0.5 * (M + M.T)
    return _classify_eigs(np.linalg.eigh(M)[0], rank_tol)
