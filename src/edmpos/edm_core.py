"""Distance-matrix construction, factorization, and membership tests.

Working frame convention: raw anchor coordinates (meters) are translated so
their centroid sits at the origin and multiplied by a small scale factor so
that all linear algebra runs on O(1) numbers.  Distance-matrix entries are
squared distances in that scaled frame.  Outputs that represent physical
positions are mapped back to meters by undoing the scale and the translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BadShape, SingularGeometry

# rank cut: a Gram eigenvalue (sigma^2 of the centred anchors) counts if > this * max(lambda_max, 1)
DEFAULT_RANK_TOL = 1e-9
DEFAULT_SCALE = 1e-7


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D float vector, bit for bit: it is sqrt(v.dot(v))."""
    return math.sqrt(v.dot(v))


@dataclass(frozen=True)
class SatelliteConfig:
    """Centered, scaled anchor coordinates plus the bookkeeping to undo both.

    P is (n, r) with column sums ~0.  ``centroid`` stays in meters so a
    recovered position can be translated back: world = centered/scale + centroid.
    P_pinv is the (r, n) position operator, the pseudoinverse of P, taken
    from the same SVD that decided the rank and refined by one Newton-Schulz
    step (see factor_anchors), so every position solve on this geometry is
    one matrix-vector product.  A configuration from AnchorStack.lane
    holds read-only views into that stack's arrays.
    """

    P: np.ndarray
    centroid: np.ndarray
    n: int
    r: int
    scale: float
    P_pinv: np.ndarray = field(repr=False, compare=False)


def _squared_distances(P: np.ndarray) -> np.ndarray:
    """(B, n, n) squared distances between the rows of each (n, r) lane of P."""
    diff = P[:, :, None, :] - P[:, None, :, :]
    # symmetric with exact zero diagonal by construction
    return np.einsum("bijk,bijk->bij", diff, diff)


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
    """Factorization of one anchor geometry, reused by every downstream step.

    With V the orthonormal complement basis of the ones vector, D the
    anchors' squared-distance matrix, X = -V' D V / 2 is the projected Gram
    matrix and B = V X V' the centered Gram matrix.  factor_anchors builds
    the bundle from one SVD V'P = U S W' of the centred anchors, so
    X = U S^2 U'.

    Fields:
        b: diagonal of B, the squared norms of the centred anchors.
        Z: orthonormal basis of the null space of [P 1]', (n, n-1-r); empty
           when n = r + 1.  V times the trailing left singular vectors of V'P.
        r: embedding dimension (rank of X).
        delta: S**2, the eigenvalues of X above the rank cut, descending.
        P_eigen: centered eigen realization V U_r S, (n, r); its Gram matrix
            is B.
        E: the (n, n) measurement operator [P_eigen'; Z'; 1'].  The columns
            of P_eigen / sqrt(delta), Z and 1 / sqrt(n) form an orthonormal
            basis, so for a difference z = y - b the single product E z holds
            every number the consistency test, the secular equation and the
            position read: w = P_eigen' z, the Gale coordinates Z' z and 1'z.
            P_eigen, Z and E are read-only views of one buffer, [P_eigen Z 1],
            of which E is the transpose.
        delta_sq: delta**2 as Python floats, the weights of the pseudoinverse
            quadratic form z' B^+ z = sum_i w_i**2 / delta_i**2.
        b_norm: |b|, the floor reference of the Gale residual.
        points: the (n, r) centred anchors P that D is built from.

    D itself is lazy: only the eigenvalue oracle reads it, so it is built
    from points, read-only, the first time it is read.
    """

    b: np.ndarray
    Z: np.ndarray
    r: int
    delta: np.ndarray
    P_eigen: np.ndarray
    E: np.ndarray
    delta_sq: tuple[float, ...]
    b_norm: float
    points: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def D(self) -> np.ndarray:
        return _readonly(_squared_distances(self.points[None])[0])

    @property
    def n(self) -> int:
        return self.b.shape[0]


def factor_anchors(
    raw_points: np.ndarray, scale: float = DEFAULT_SCALE
) -> tuple[SatelliteConfig, EdmBundle]:
    """Center and scale raw anchor coordinates (meters) and factor them once.

    With V = build_v_basis(n), one full SVD V'P = U S W' of the centred,
    scaled anchors P gives everything: the rank decision on S**2, the
    position operator P_pinv = W S^-1 (V U_r)', and the bundle with
    delta = S**2, P_eigen = V U_r S and the Gale basis Z = V U_{r:} (the
    trailing left singular vectors, which is why the SVD is of V'P rather
    than of P).  b is the squared row norms of P; D is built from P on
    first read.  P_pinv then takes one Newton-Schulz step,
    X <- 2X - X P X: the SVD's product carries round-off that puts some
    exact four-anchor fixes over 1e-6 m from the truth, and the step cuts
    the largest entry of P_pinv P - I about fourfold at n = 4.

    This is the one-lane case of factor_anchor_stack.  Raises BadShape if
    the points have no coordinates, fewer than r+1 points are given or a
    coordinate is not finite, and SingularGeometry if
    S[r-1]**2 <= DEFAULT_RANK_TOL * max(S[0]**2, 1), so every accepted
    configuration has a bundle of rank r.
    """
    raw = np.asarray(raw_points, dtype=float)
    if raw.ndim != 2:
        raise BadShape(f"expected a 2-D point array of r >= 1 columns, got shape {raw.shape}")
    lane = factor_anchor_stack(raw[None], scale).lane(0)
    if isinstance(lane, Exception):
        raise lane
    return lane


class AnchorStack(NamedTuple):
    """What factor_anchor_stack makes of B anchor sets: read-only (B, ...) stacks.

    Row k of each stack belongs to anchor set k: its centroid (meters), the
    centred, scaled anchors P, the position operator P_pinv, and the bundle
    arrays b, delta, P_eigen, Z and E (see EdmBundle); P_eigen, Z and E are
    views of one (B, n, n) buffer, [P_eigen Z 1].  ok[k] is False when
    the set failed the rank cut; a rejected row is finite and meaningless.
    A zero-filled set, which run_batch factors for a row that drew no
    geometry, is such a rejected row, not an error.  No per-lane object
    exists until lane(k) builds it.
    """

    centroid: np.ndarray
    P: np.ndarray
    P_pinv: np.ndarray
    b: np.ndarray
    delta: np.ndarray
    P_eigen: np.ndarray
    Z: np.ndarray
    E: np.ndarray
    ok: list[bool]
    scale: float

    def lane(self, k: int) -> tuple[SatelliteConfig, EdmBundle] | SingularGeometry:
        """Anchor set k as factor_anchors returns it, or the SingularGeometry it would raise.

        The objects' arrays are read-only views of row k of the stacks.
        """
        _, n, r = self.P.shape
        if not self.ok[k]:
            return SingularGeometry(
                f"centered points span fewer than {r} dimensions "
                f"(singular values {np.sqrt(self.delta[k]).tolist()})"
            )
        b, delta, P = self.b[k], self.delta[k], self.P[k]
        config = SatelliteConfig(P=P, centroid=self.centroid[k], n=n, r=r, scale=self.scale,
                                 P_pinv=self.P_pinv[k])
        bundle = EdmBundle(b=b, Z=self.Z[k], r=r, delta=delta, P_eigen=self.P_eigen[k],
                           E=self.E[k], delta_sq=tuple([d * d for d in delta.tolist()]),
                           b_norm=_norm(b), points=P)
        return config, bundle


def factor_anchor_stack(raw_points: np.ndarray, scale: float = DEFAULT_SCALE) -> AnchorStack:
    """factor_anchors for a (B, n, r) stack of anchor sets, with one stacked SVD.

    Returns the stacked arrays alone; lane(k) of the result is bitwise what
    factor_anchors(raw_points[k]) returns, or the SingularGeometry it would
    raise.  A shape, scale or non-finite coordinate raises BadShape for the
    whole stack.
    """
    raw = np.asarray(raw_points, dtype=float)
    if raw.ndim != 3 or raw.shape[2] < 1:
        raise BadShape(f"expected a 2-D point array of r >= 1 columns, got shape {raw.shape[1:]}")
    lanes, n, r = raw.shape
    if n < r + 1:
        raise BadShape(f"need at least r+1={r + 1} points to span {r} dimensions, got {n}")
    if not (scale > 0.0):
        raise BadShape(f"scale must be positive, got {scale}")
    if not np.isfinite(raw).all():
        raise BadShape("anchor coordinates must be finite")
    # the bits of raw.mean(axis=1), without mean's call overhead
    centroid = raw.sum(axis=1, keepdims=True) / n
    P = scale * (raw - centroid)
    centroid = centroid[:, 0]
    V = build_v_basis(n)
    U, svals, Wt = np.linalg.svd(V.T @ P)
    delta = svals**2
    ok = [d[r - 1] > DEFAULT_RANK_TOL * max(d[0], 1.0) for d in delta.tolist()]
    VU = V @ U
    # a rejected lane divides by ones instead, so its discarded operator stays finite
    s_div = svals if all(ok) else np.where(np.array(ok)[:, None], svals, 1.0)
    P_pinv = (Wt.transpose(0, 2, 1) / s_div[:, None, :]) @ VU[:, :, :r].transpose(0, 2, 1)
    P_pinv = 2.0 * P_pinv - P_pinv @ P @ P_pinv
    b = np.einsum("bij,bij->bi", P, P)
    # one buffer M = [VU_r S, VU_{r:}, 1] = [P_eigen Z 1], filled in place; E is
    # its transpose, the layout that sets how every E @ z sums
    M = np.empty((lanes, n, n))
    np.multiply(VU[..., :r], svals[:, None, :], out=M[..., :r])
    M[..., r:-1] = VU[..., r:]
    M[..., -1] = 1.0
    for a in (centroid, P, P_pinv, b, delta, M):
        a.setflags(write=False)
    return AnchorStack(centroid=centroid, P=P, P_pinv=P_pinv, b=b, delta=delta,
                       P_eigen=M[..., :r], Z=M[..., r:-1], E=M.transpose(0, 2, 1), ok=ok,
                       scale=float(scale))


def _classify_eigs(evals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify each row of a (B, n) stack of test-matrix eigenvalues, as (B,) arrays.

    Returns (edm, dim, low): row k is a distance matrix of dimension dim[k]
    where edm[k] is True, and otherwise its lowest eigenvalue low[k] is the
    witness.  _edm_classes makes EdmClass objects of the same decision.
    """
    thr = DEFAULT_RANK_TOL * np.maximum(np.abs(evals).max(axis=1, initial=0.0), 1.0)
    low = evals.min(axis=1, initial=0.0)
    dims = np.count_nonzero(evals > thr[:, None], axis=1)
    return ~(low < -thr), dims, low


def _edm_classes(evals: np.ndarray) -> list[EdmClass]:
    """_classify_eigs' verdict on each row of a (B, n) eigenvalue stack, as EdmClass objects."""
    edm, dims, low = _classify_eigs(evals)
    return [EdmClass.edm_of_dim(k) if ok else EdmClass.not_edm(w)
            for ok, k, w in zip(edm.tolist(), dims.tolist(), low.tolist())]


def augmented_edm_check(bundle: EdmBundle, y: np.ndarray) -> EdmClass:
    """Classify the distance matrix extended by one point at squared distances y.

    The candidate row/column y joins bundle.D as [[0, y'], [y, D]].  That
    extension is a distance matrix of dimension k exactly when
    y*1' + 1*y' - D is positive semidefinite with rank k (it is twice the
    Gram matrix of the anchors relative to the new point).  This is the
    one-lane case of _augmented_eigs and _edm_classes.
    """
    y = np.asarray(y, dtype=float)
    n = bundle.n
    if y.shape != (n,):
        raise BadShape(f"expected a length-{n} vector, got shape {y.shape}")
    return _edm_classes(_augmented_eigs(bundle.D[None], y[None]))[0]


def _augmented_eigs(D: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (B, n) eigenvalues of the test matrices Y[k]*1' + 1*Y[k]' - D[k], from one eigvalsh.

    _classify_eigs reads the oracle's verdicts off them as arrays, which is
    how run_batch scores its rows without an EdmClass per row.
    """
    M = Y[:, :, None] + Y[:, None, :] - D
    M = 0.5 * (M + M.transpose(0, 2, 1))
    return np.linalg.eigvalsh(M)
