"""Measurement self-consistency tests built on the quadratic inconsistency functional.

The functional kappa(y) = (4/n) 1'(y - b) - (y - b)' Bdag (y - b) vanishes
exactly on squared-distance vectors that extend the anchor geometry without
raising its dimension.  Its sign separates the two failure modes: positive
means the extension needs one extra dimension, negative means it is not a
distance matrix at all.

Every quantity here is read off one product with the bundle's measurement
operator E (see EdmBundle): for z = y - b, E z stacks w = P_eigen' z, the
Gale coordinates Z' z and 1'z.  Because Bdag = P_eigen diag(1/delta^2)
P_eigen', the quadratic form is sum_i w_i^2 / delta_i^2, so kappa needs no
n x n pseudoinverse, and the Gale residual is |Z'z| from the same product:
the length of the part of z outside span[P 1], which no choice of the
orthonormal basis Z changes.
eigen_coordinates returns those numbers once per vector; kappa and
self_consistency_test for an arbitrary vector, and the solvers for the
measurement and for their feasible vector, all read them from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .edm_core import EdmBundle, _readonly
from .errors import BadShape

DEFAULT_KAPPA_TOL = 1e-8
DEFAULT_GALE_TOL = 1e-8
GALE_NORM_FLOOR = 1e-6
# largest scaled range accepted (4.5e22 m at the default scale): beyond it
# the eps * rho**2 round-off in a squared range exceeds rho itself, and the
# sums of squares downstream head for overflow
MAX_SCALED_RANGE = 1.0 / np.finfo(float).eps


@dataclass(frozen=True)
class Measurement:
    """Measured pseudoranges: meters as reported, squared in the scaled frame.

    dm[i] = (scale * raw_ranges[i])**2, always non-negative, with
    scale * raw_ranges[i] <= MAX_SCALED_RANGE.
    """

    dm: np.ndarray
    raw_ranges: np.ndarray
    n: int

    @classmethod
    def from_ranges(cls, ranges_m: np.ndarray, scale: float) -> "Measurement":
        dm = squared_ranges(ranges_m, scale)
        raw = _readonly(np.array(ranges_m, dtype=float))
        return cls(dm=dm, raw_ranges=raw, n=raw.shape[0])


def squared_ranges(ranges_m: np.ndarray, scale: float) -> np.ndarray:
    """Measurement.dm of a 1-D range vector in meters: screened, squared, read-only."""
    raw = np.asarray(ranges_m, dtype=float)
    if raw.ndim != 1:
        raise BadShape(f"expected a 1-D range vector, got shape {raw.shape}")
    # a NaN fails both comparisons, a negative range the first, and an
    # infinite range or one above MAX_SCALED_RANGE the second
    lo = np.minimum.reduce(raw, initial=math.inf)
    hi = scale * float(np.maximum.reduce(raw, initial=0.0))
    if not (lo >= 0.0 and hi <= MAX_SCALED_RANGE):
        raise ValueError(f"pseudoranges must lie in [0, {MAX_SCALED_RANGE / scale:.2e}] m")
    return _readonly((scale * raw) ** 2)


def as_vector(y, n: int | None = None) -> np.ndarray:
    """Accept a Measurement or an array of scaled squared ranges; return the vector."""
    vec = y.dm if isinstance(y, Measurement) else np.asarray(y, dtype=float)
    if vec.ndim != 1:
        raise BadShape(f"expected a 1-D vector, got shape {vec.shape}")
    if n is not None and vec.shape[0] != n:
        raise BadShape(f"expected length {n}, got {vec.shape[0]}")
    return vec


class Verdict(enum.Enum):
    SELF_CONSISTENT = "self-consistent"
    FAULTY_POSITIVE = "faulty-positive"
    FAULTY_NEGATIVE = "faulty-negative"
    GALE_INFEASIBLE = "gale-infeasible"


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of a consistency test.

    kappa and gale_residual are in scaled units; band is the absolute
    threshold |kappa| was compared against; borderline flags values within a
    decade of that threshold, where the tag should be treated with caution.
    """

    kappa: float
    gale_residual: float
    tag: Verdict
    band: float
    borderline: bool

    def to_dict(self) -> dict:
        return {
            "tag": self.tag.value,
            "kappa": self.kappa,
            "gale_residual": self.gale_residual,
            "band": self.band,
            "borderline": self.borderline,
        }


class EigenCoordinates(NamedTuple):
    """A difference z = y - b read through the bundle's measurement operator.

    w holds P_eigen' z (r entries) and total 1'z, both from the one product
    E z; norm is |z|.  kappa and gale_residual are the verdict's two numbers
    for this z.
    """

    z: np.ndarray
    w: list[float]
    total: float
    norm: float
    kappa: float
    gale_residual: float


def _gale_of(null_coords: list[float], norm: float, bundle: EdmBundle) -> float:
    # floor the normalization at a fraction of |b|: when y lands on b (a
    # receiver at the anchor centroid) the difference is pure round-off and a
    # z-relative residual would read structural infeasibility into noise
    ref = max(norm, GALE_NORM_FLOOR * bundle.b_norm)
    # the squares summed left to right, as solver_general._gale_block sums
    # them, so that both solve kernels compare the same bits
    squares = 0.0
    for ci in null_coords:
        squares += ci * ci
    return math.sqrt(squares) / ref if ref > 0.0 else 0.0


def eigen_coordinates(vec: np.ndarray, bundle: EdmBundle) -> EigenCoordinates:
    """Coordinates of z = vec - b from one product with bundle.E.

    vec must already be a float vector of length bundle.n (see as_vector).
    """
    z = vec - bundle.b
    c = (bundle.E @ z).tolist()
    r = bundle.r
    w = c[:r]
    quad = 0.0
    for wi, d2 in zip(w, bundle.delta_sq):
        quad += wi * wi / d2
    total = c[-1]
    # sqrt(z @ z) is what np.linalg.norm computes for a vector, bit for bit
    norm = math.sqrt(z @ z)
    return EigenCoordinates(
        z=z,
        w=w,
        total=total,
        norm=norm,
        kappa=(4.0 / bundle.n) * total - quad,
        gale_residual=_gale_of(c[r:-1], norm, bundle),
    )


def kappa(y, bundle: EdmBundle) -> float:
    """Inconsistency functional of a squared-range vector against the anchor bundle."""
    return eigen_coordinates(as_vector(y, bundle.n), bundle).kappa


def kappa_band(y, tol: float = DEFAULT_KAPPA_TOL) -> float:
    """Absolute tolerance band for kappa, relative to the measurement magnitude."""
    vec = as_vector(y)
    # the sum over n is the float np.mean computes, without its dispatch layers
    return tol * max(1.0, float(np.add.reduce(np.abs(vec))) / vec.shape[0])


def _tag_by_sign(k: float, band: float) -> Verdict:
    if abs(k) <= band:
        return Verdict.SELF_CONSISTENT
    return Verdict.FAULTY_POSITIVE if k > 0.0 else Verdict.FAULTY_NEGATIVE


def _is_borderline(k: float, band: float) -> bool:
    return 0.1 * band < abs(k) < 10.0 * band


def self_consistency_test(
    y, bundle: EdmBundle, tol: float = DEFAULT_KAPPA_TOL
) -> ConsistencyVerdict:
    """General consistency test for any anchor count.

    With more than r+1 anchors the measurement must first be orthogonal to
    the null directions Z; a violation dominates any kappa reading because
    kappa is blind to those directions.  The remaining classification is by
    the sign of kappa within its tolerance band.
    """
    vec = as_vector(y, bundle.n)
    return verdict_of(vec, eigen_coordinates(vec, bundle), tol)


def verdict_of(
    vec: np.ndarray, coords: EigenCoordinates, tol: float = DEFAULT_KAPPA_TOL
) -> ConsistencyVerdict:
    """The verdict on vec from its already computed eigen coordinates."""
    k = coords.kappa
    band = kappa_band(vec, tol)
    infeasible = coords.gale_residual > DEFAULT_GALE_TOL
    return ConsistencyVerdict(
        kappa=k,
        gale_residual=coords.gale_residual,
        tag=Verdict.GALE_INFEASIBLE if infeasible else _tag_by_sign(k, band),
        band=band,
        borderline=not infeasible and _is_borderline(k, band),
    )


def clock_bias_estimate(dm, bundle: EdmBundle) -> float:
    """Constant additive offset on the squared ranges, recovered as kappa/4.

    Valid for the four-anchor case: a shared offset delta shifts kappa by
    exactly 4*delta and an offset-free measurement has kappa zero.  Returned
    in scaled squared units; divide by scale**2 for square meters.
    """
    if bundle.n != 4 or bundle.r != 3:
        raise BadShape(f"requires 4 anchors spanning 3 dimensions, got n={bundle.n}, r={bundle.r}")
    return kappa(dm, bundle) / 4.0
