"""Solver output record shared by every solve path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import ConsistencyVerdict
from .position import PositionFix


@dataclass(frozen=True)
class SolveReport:
    """What one solve produced and how it got there.

    y_star is the feasible squared-range vector (scaled units); q is the
    recovered receiver in meters and fix the position record it came from,
    both set by every route.  lambda_star/bracket/secular_residual are
    populated by the secular paths and left None by the descent and oracle
    paths.  verdict describes the input measurement, not y_star.
    """

    y_star: np.ndarray
    kappa_residual: float
    iterations: int
    method: str
    verdict: ConsistencyVerdict
    q: np.ndarray
    fix: PositionFix
    objective: float
    lambda_star: float | None = None
    secular_residual: float | None = None
    bracket: tuple[float, float] | None = None
    converged: bool = True
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "lambda_star": self.lambda_star,
            "bracket": list(self.bracket) if self.bracket is not None else None,
            "secular_residual": self.secular_residual,
            "kappa_residual": self.kappa_residual,
            "objective": self.objective,
            "y_star": np.asarray(self.y_star).tolist(),
            "q_m": np.asarray(self.q).tolist(),
            "verdict": self.verdict.to_dict(),
            "fix": self.fix.to_dict(),
        }
