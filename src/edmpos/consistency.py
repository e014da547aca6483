"""Measurement self-consistency tests built on the quadratic inconsistency functional.

The functional kappa(y) = (4/n) 1'(y - b) - (y - b)' Bdag (y - b) vanishes
exactly on squared-distance vectors that extend the anchor geometry without
raising its dimension.  Its sign separates the two failure modes: positive
means the extension needs one extra dimension, negative means it is not a
distance matrix at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .edm_core import EdmBundle
from .errors import BadShape

DEFAULT_KAPPA_TOL = 1e-8
DEFAULT_GALE_TOL = 1e-8
GALE_NORM_FLOOR = 1e-6


@dataclass(frozen=True)
class Measurement:
    """Measured pseudoranges: meters as reported, squared in the scaled frame.

    dm[i] = (scale * raw_ranges[i])**2, always non-negative.
    """

    dm: np.ndarray
    raw_ranges: np.ndarray
    n: int

    @classmethod
    def from_ranges(cls, ranges_m: np.ndarray, scale: float) -> "Measurement":
        raw = np.asarray(ranges_m, dtype=float)
        if raw.ndim != 1:
            raise BadShape(f"expected a 1-D range vector, got shape {raw.shape}")
        if np.any(raw < 0.0):
            raise ValueError("pseudoranges must be non-negative")
        dm = (scale * raw) ** 2
        dm.setflags(write=False)
        raw = raw.copy()
        raw.setflags(write=False)
        return cls(dm=dm, raw_ranges=raw, n=raw.shape[0])


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


def _kappa_of_diff(z: np.ndarray, bundle: EdmBundle) -> float:
    return float((4.0 / bundle.n) * z.sum() - z @ (bundle.Bdag @ z))


def kappa(y, bundle: EdmBundle) -> float:
    """Inconsistency functional of a squared-range vector against the anchor bundle."""
    return _kappa_of_diff(as_vector(y, bundle.n) - bundle.b, bundle)


def gale_residual(z: np.ndarray, bundle: EdmBundle) -> float:
    """Relative null-space residual of a difference z = +-(y - b).

    max|Z'z| over |z|, with |z| floored at GALE_NORM_FLOOR * |b|.  Shared by
    the consistency verdict and position recovery so the two agree on which
    vectors are realizable.  Zero when n = r + 1 leaves no null directions.
    """
    if bundle.Z.shape[1] == 0:
        return 0.0
    # floor the normalization at a fraction of |b|: when y lands on b (a
    # receiver at the anchor centroid) the difference is pure round-off and a
    # z-relative residual would read structural infeasibility into noise
    ref = max(float(np.linalg.norm(z)), GALE_NORM_FLOOR * float(np.linalg.norm(bundle.b)))
    return float(np.abs(bundle.Z.T @ z).max()) / ref if ref > 0.0 else 0.0


def kappa_band(y, tol: float = DEFAULT_KAPPA_TOL) -> float:
    """Absolute tolerance band for kappa, relative to the measurement magnitude."""
    vec = as_vector(y)
    return tol * max(1.0, float(np.abs(vec).mean()))


def _tag_by_sign(k: float, band: float) -> Verdict:
    if abs(k) <= band:
        return Verdict.SELF_CONSISTENT
    return Verdict.FAULTY_POSITIVE if k > 0.0 else Verdict.FAULTY_NEGATIVE


def _is_borderline(k: float, band: float) -> bool:
    return 0.1 * band < abs(k) < 10.0 * band


def classify_n4(y, bundle: EdmBundle, tol: float = DEFAULT_KAPPA_TOL) -> ConsistencyVerdict:
    """Three-way verdict for the minimal four-anchor, three-dimension case.

    Sign of kappa decides: zero (within band) means the measurement extends
    the geometry in three dimensions, positive means the extension needs a
    fourth dimension, negative means no extension exists.  With n = r + 1
    there are no null directions, so this is the general test restricted to
    that shape.
    """
    if bundle.n != 4 or bundle.r != 3:
        raise BadShape(f"requires 4 anchors spanning 3 dimensions, got n={bundle.n}, r={bundle.r}")
    return self_consistency_test(y, bundle, tol)


def self_consistency_test(
    y,
    bundle: EdmBundle,
    tol: float = DEFAULT_KAPPA_TOL,
    gale_tol: float = DEFAULT_GALE_TOL,
) -> ConsistencyVerdict:
    """General consistency test for any anchor count.

    With more than r+1 anchors the measurement must first be orthogonal to
    the null directions Z; a violation dominates any kappa reading because
    kappa is blind to those directions.  The remaining classification is by
    the sign of kappa within its tolerance band.
    """
    vec = as_vector(y, bundle.n)
    z = vec - bundle.b
    k = _kappa_of_diff(z, bundle)
    band = kappa_band(vec, tol)
    gale_res = gale_residual(z, bundle)
    if gale_res > gale_tol:
        return ConsistencyVerdict(
            kappa=k,
            gale_residual=gale_res,
            tag=Verdict.GALE_INFEASIBLE,
            band=band,
            borderline=False,
        )
    return ConsistencyVerdict(
        kappa=k,
        gale_residual=gale_res,
        tag=_tag_by_sign(k, band),
        band=band,
        borderline=_is_borderline(k, band),
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
