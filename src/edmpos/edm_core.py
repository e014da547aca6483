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

# rank cut: a Gram eigenvalue (sigma^2 of the centred anchors) counts if > this * max(lambda_max, 1)
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
    P_pinv is the (r, n) position operator, the pseudoinverse of P, taken
    from the same SVD that decided the rank (see factor_anchors), so every
    position solve on this geometry is one matrix-vector product.
    """

    P: np.ndarray
    centroid: np.ndarray
    n: int
    r: int
    scale: float
    P_pinv: np.ndarray = field(repr=False, compare=False)


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

    With V the orthonormal complement basis of the ones vector, X = -V' D V / 2
    is the projected Gram matrix and B = V X V' the centered Gram matrix.
    Two routes build it: factor_anchors from one SVD V'P = U S W' of the
    centred anchors (X = U S^2 U'), and factor_edm from an eigh of X for a
    distance matrix given directly.  The two agree on delta, b, P_eigen P_eigen'
    and Z Z' to round-off; the columns of P_eigen are fixed only up to sign
    and those of Z up to a rotation.

    Fields:
        D: the (n, n) squared-distance matrix itself.
        b: diagonal of B, the squared norms of the centred anchors.
        Z: orthonormal basis of the null space of [P 1]', (n, n-1-r); empty
           when n = r + 1.  V times the eigenvectors of X (or the left
           singular vectors of V'P) for the values at or below the rank cut.
        r: embedding dimension (rank of X).
        delta: eigenvalues of X above the rank cut, descending (S**2 on the
            SVD route).
        P_eigen: centered eigen realization (V W) sqrt(delta), (n, r), with W
            the eigenvectors of X for delta (V U_r S on the SVD route); its
            Gram matrix is B.
        E: the (n, n) measurement operator [P_eigen'; Z'; 1'].  The columns
            of P_eigen / sqrt(delta), Z and 1 / sqrt(n) form an orthonormal
            basis, so for a difference z = y - b the single product E z holds
            every number the consistency test, the secular equation and the
            position read: w = P_eigen' z, the Gale coordinates Z' z and 1'z.
        delta_sq: delta**2 as Python floats, the weights of the pseudoinverse
            quadratic form z' B^+ z = sum_i w_i**2 / delta_i**2.
        b_norm: |b|, the floor reference of the Gale residual.
    """

    D: np.ndarray
    b: np.ndarray
    Z: np.ndarray
    r: int
    delta: np.ndarray
    P_eigen: np.ndarray
    E: np.ndarray
    delta_sq: tuple[float, ...]
    b_norm: float

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


def factor_anchors(
    raw_points: np.ndarray, scale: float = DEFAULT_SCALE
) -> tuple[SatelliteConfig, EdmBundle]:
    """Center and scale raw anchor coordinates (meters) and factor them once.

    With V = build_v_basis(n), one full SVD V'P = U S W' of the centred,
    scaled anchors P gives everything: the rank decision on S**2, the
    position operator P_pinv = W S^-1 (V U_r)', and the bundle with
    delta = S**2, P_eigen = V U_r S and the Gale basis Z = V U_{r:} (the
    trailing left singular vectors, which is why the SVD is of V'P rather
    than of P).  b is the squared row norms of P and D = build_edm(config).

    Raises BadShape if the points have no coordinates, fewer than r+1 points
    are given or a coordinate is not finite, and SingularGeometry if
    S[r-1]**2 <= DEFAULT_RANK_TOL * max(S[0]**2, 1), the cut factor_edm
    applies to its eigenvalues, so every accepted configuration has a bundle
    of rank r.
    """
    raw = np.asarray(raw_points, dtype=float)
    if raw.ndim != 2 or raw.shape[1] < 1:
        raise BadShape(f"expected a 2-D point array of r >= 1 columns, got shape {raw.shape}")
    n, r = raw.shape
    if n < r + 1:
        raise BadShape(f"need at least r+1={r + 1} points to span {r} dimensions, got {n}")
    if not (scale > 0.0):
        raise BadShape(f"scale must be positive, got {scale}")
    if not np.isfinite(raw).all():
        raise BadShape("anchor coordinates must be finite")
    centroid = raw.mean(axis=0)
    P = scale * (raw - centroid)
    V = build_v_basis(n)
    U, svals, Wt = np.linalg.svd(V.T @ P)
    if svals[r - 1] ** 2 <= DEFAULT_RANK_TOL * max(svals[0] ** 2, 1.0):
        raise SingularGeometry(
            f"centered points span fewer than {r} dimensions "
            f"(singular values {svals.tolist()})"
        )
    VU = V @ U
    P_pinv = (Wt.T / svals) @ VU[:, :r].T
    config = SatelliteConfig(P=_readonly(P), centroid=_readonly(centroid), n=n, r=r,
                             scale=float(scale), P_pinv=_readonly(P_pinv))
    b = np.einsum("ij,ij->i", P, P)
    return config, _finish_bundle(build_edm(config), b, VU[:, r:], svals**2, VU[:, :r] * svals)


def factor_edm(D: np.ndarray) -> EdmBundle:
    """Factor a squared-distance matrix into the bundle used by the solvers.

    This is the route for a distance matrix given directly, as in the paper's
    setting; anchor coordinates go through factor_anchors, which reaches the
    same bundle from one SVD.  Raises NotAnEdm when the projected Gram matrix
    has an eigenvalue below -DEFAULT_RANK_TOL * max(|eigenvalues|, 1).
    """
    D = _check_hollow_symmetric(D)
    n = D.shape[0]
    V = build_v_basis(n)
    X = -0.5 * (V.T @ D @ V)
    X = 0.5 * (X + X.T)
    evals, evecs = np.linalg.eigh(X)
    thr = DEFAULT_RANK_TOL * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    if evals[0] < -thr:
        raise NotAnEdm(
            f"projected Gram matrix has eigenvalue {evals[0]:.6e} below -{thr:.1e}",
            witness=float(evals[0]),
        )
    # descending order; everything above the cut is signal, the rest is null space
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    r = int(np.count_nonzero(evals > thr))
    delta = evals[:r].copy()
    B = V @ X @ V.T
    B = 0.5 * (B + B.T)
    b = np.diag(B).copy()
    P_eigen = (V @ evecs[:, :r]) * np.sqrt(delta)
    return _finish_bundle(D, b, V @ evecs[:, r:], delta, P_eigen)


def _finish_bundle(
    D: np.ndarray, b: np.ndarray, Z: np.ndarray, delta: np.ndarray, P_eigen: np.ndarray
) -> EdmBundle:
    """Assemble either route's parts, adding the operator E, delta_sq and b_norm."""
    n, r = P_eigen.shape
    return EdmBundle(
        D=_readonly(D),
        b=_readonly(b),
        Z=_readonly(Z),
        r=r,
        delta=_readonly(delta),
        P_eigen=_readonly(P_eigen),
        E=_readonly(np.vstack([P_eigen.T, Z.T, np.ones((1, n))])),
        delta_sq=tuple(d * d for d in delta.tolist()),
        b_norm=float(np.linalg.norm(b)),
    )


def _classify_eigs(evals: np.ndarray) -> EdmClass:
    thr = DEFAULT_RANK_TOL * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    lo = float(evals.min(initial=0.0))
    if lo < -thr:
        return EdmClass.not_edm(lo)
    return EdmClass.edm_of_dim(int(np.count_nonzero(evals > thr)))


def classify_edm(D: np.ndarray) -> EdmClass:
    """Decide whether D is a squared-distance matrix and of which dimension.

    The test matrix is -V' D V: D is a distance matrix exactly when that
    matrix is positive semidefinite, and the embedding dimension is its rank.
    """
    D = _check_hollow_symmetric(D)
    V = build_v_basis(D.shape[0])
    M = -(V.T @ D @ V)
    M = 0.5 * (M + M.T)
    return _classify_eigs(np.linalg.eigh(M)[0])


def augmented_edm_check(bundle: EdmBundle, y: np.ndarray) -> EdmClass:
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
    return _classify_eigs(np.linalg.eigh(M)[0])
