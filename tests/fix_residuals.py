"""Range residuals of a position fix, for the tests that check fixes against measurements."""

from dataclasses import dataclass

import numpy as np

from edmpos.consistency import as_vector
from edmpos.edm_core import SatelliteConfig
from edmpos.position import PositionFix


@dataclass(frozen=True)
class ResidualReport:
    """Discrepancy between a fix and a reference squared-range vector."""

    max_abs_scaled: float
    range_residuals_m: np.ndarray
    rms_range_m: float


def verify_fix(fix: PositionFix, y_ref, config: SatelliteConfig) -> ResidualReport:
    """Recompute squared ranges at the fix and compare against a reference vector.

    Pass the solver's feasible vector to confirm the fix reproduces it, or the
    raw measurement to see per-anchor range errors in meters.
    """
    y = as_vector(y_ref, config.n)
    diff = config.P - fix.q_centered
    y_hat = np.einsum("ij,ij->i", diff, diff)
    ranges_hat = np.sqrt(y_hat) / config.scale
    ranges_ref = np.sqrt(np.maximum(y, 0.0)) / config.scale
    resid = ranges_hat - ranges_ref
    return ResidualReport(
        max_abs_scaled=float(np.abs(y_hat - y).max()),
        range_residuals_m=resid,
        rms_range_m=float(np.sqrt(np.mean(resid**2))),
    )
