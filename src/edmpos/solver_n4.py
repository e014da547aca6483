"""Closed-form projection for the minimal four-anchor case.

The measurement is projected onto the set of squared-range vectors that
extend the anchor geometry in three dimensions.  In the eigenbasis of the
Gram pseudoinverse the projection reduces to one scalar secular equation in
the multiplier; its root is bracketed by the sign of the inconsistency
functional and polished with safeguarded Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import (
    DEFAULT_KAPPA_TOL,
    as_vector,
    classify_n4,
    kappa,
)
from .edm_core import EdmBundle, SatelliteConfig
from .errors import DegenerateCoefficient, NoConvergence, PoleEvaluation
from .position import recover_position
from .report import SolveReport
from .rootfind import find_root_increasing
from .solver_general import DEFAULT_SECULAR_TOL, DEGENERACY_RTOL, POLE_GUARD, nlp_oracle


@dataclass(frozen=True)
class SecularProblemN4:
    """Spectral data of the four-anchor projection.

    mu: eigenvalues of the Gram pseudoinverse, descending, mu[3] = 0 exactly.
    S: the matching orthonormal eigenvectors; S[:, 3] is ones/2 exactly.
        Both are the bundle's ``n4_basis``, shared by every measurement.
    c: transformed right-hand side; c[3] = 1 exactly.
    kappa_dm: inconsistency of the measurement.
    h: level constant kappa_dm + sum(c_i^2 / mu_i) used for tolerance scaling.
    degenerate: True when the measurement has no component on the top
    eigenvalue group, which breaks the bracket argument for the root.
    """

    mu: np.ndarray
    S: np.ndarray
    c: np.ndarray
    kappa_dm: float
    h: float
    degenerate: bool


def build_secular_n4(dm, bundle: EdmBundle) -> SecularProblemN4:
    """Assemble the secular problem from the measurement and anchor bundle."""
    mu, S = bundle.n4_basis
    y = as_vector(dm, 4)
    z = y - bundle.b
    c = -mu * (S.T @ z)
    c[3] = 1.0
    kappa_dm = kappa(y, bundle)
    h = kappa_dm + float(np.sum(c[:3] ** 2 / mu[:3]))
    # degeneracy is judged on the whole top eigenvalue group: with repeated
    # eigenvalues the individual coefficients are basis-dependent but the
    # group mass is not
    top = mu[:3] >= mu[0] * (1.0 - 1e-9)
    top_mass = float(np.linalg.norm(c[:3][top]))
    degenerate = top_mass <= DEGENERACY_RTOL * float(np.linalg.norm(c))
    return SecularProblemN4(
        mu=mu, S=S, c=c, kappa_dm=kappa_dm, h=h, degenerate=degenerate
    )


def eval_g(sp: SecularProblemN4, lam: float) -> float:
    """Secular function, zero at the optimal multiplier.

    Evaluated in a form whose terms all vanish at lam = 0, so g(0) equals
    -kappa_dm exactly in floating point.
    """
    t = 1.0 - lam * sp.mu[:3]
    if np.any(np.abs(t) < POLE_GUARD):
        raise PoleEvaluation(f"multiplier {lam} is within {POLE_GUARD} of a pole")
    terms = sp.c[:3] ** 2 * lam * (2.0 - lam * sp.mu[:3]) / t**2
    return float(terms.sum() + 2.0 * lam - sp.kappa_dm)


def eval_g_prime(sp: SecularProblemN4, lam: float) -> float:
    t = 1.0 - lam * sp.mu[:3]
    if np.any(np.abs(t) < POLE_GUARD):
        raise PoleEvaluation(f"multiplier {lam} is within {POLE_GUARD} of a pole")
    return float(2.0 * np.sum(sp.c[:3] ** 2 / t**3) + 2.0)


def multiplier_bracket(sp: SecularProblemN4) -> tuple[float, float]:
    """Open interval guaranteed to contain the secular root."""
    if sp.kappa_dm > 0.0:
        return (0.0, 1.0 / sp.mu[0])
    return (sp.kappa_dm / 2.0, 0.0)


def _feasible_point(sp: SecularProblemN4, lam: float, y: np.ndarray) -> np.ndarray:
    d = 1.0 - lam * sp.mu
    x = -lam * sp.c / d
    return sp.S @ x + y


def solve_n4(
    dm,
    bundle: EdmBundle,
    tol: float = DEFAULT_SECULAR_TOL,
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    config: SatelliteConfig | None = None,
    max_iter: int = 200,
) -> SolveReport:
    """Project a four-anchor measurement onto the feasible set and recover the point.

    A measurement already inside the kappa tolerance band is returned as its
    own projection.  A measurement with no component on the dominant secular
    direction cannot be bracketed; it falls back to the numerical oracle when
    a configuration is supplied and raises DegenerateCoefficient otherwise.
    """
    y = as_vector(dm, 4)
    verdict = classify_n4(y, bundle, kappa_tol)
    if abs(verdict.kappa) <= verdict.band:
        y_star = y.copy()
        fix = recover_position(y_star, bundle, config) if config is not None else None
        return SolveReport(
            y_star=y_star,
            kappa_residual=verdict.kappa,
            iterations=0,
            method="secular-n4",
            verdict=verdict,
            lambda_star=0.0,
            secular_residual=abs(verdict.kappa),
            bracket=None,
            q=fix.q_world if fix is not None else None,
            fix=fix,
            objective=0.0,
        )

    sp = build_secular_n4(y, bundle)
    if sp.degenerate:
        if config is None:
            raise DegenerateCoefficient(
                "measurement has no component on the dominant secular direction "
                "and no configuration was supplied for the oracle fallback"
            )
        report = nlp_oracle(y, config, bundle=bundle)
        return SolveReport(
            y_star=report.y_star,
            kappa_residual=report.kappa_residual,
            iterations=report.iterations,
            method="nlp-oracle[degenerate-fallback]",
            verdict=verdict,
            q=report.q,
            fix=report.fix,
            objective=report.objective,
            converged=report.converged,
        )

    lo, hi = multiplier_bracket(sp)
    result = find_root_increasing(
        lambda lam: eval_g(sp, lam),
        lambda lam: eval_g_prime(sp, lam),
        lo,
        hi,
        ftol=tol * max(1.0, abs(sp.h)),
        xtol=1e-15 / sp.mu[0],
        max_iter=max_iter,
    )
    lam = result.root
    if not lam < 1.0 / sp.mu[0]:
        raise NoConvergence(f"multiplier {lam} violates the curvature bound {1.0 / sp.mu[0]}")
    y_star = _feasible_point(sp, lam, y)
    fix = recover_position(y_star, bundle, config) if config is not None else None
    return SolveReport(
        y_star=y_star,
        kappa_residual=kappa(y_star, bundle),
        iterations=result.iterations,
        method="secular-n4",
        verdict=verdict,
        lambda_star=lam,
        secular_residual=abs(result.f_root),
        bracket=result.bracket,
        q=fix.q_world if fix is not None else None,
        fix=fix,
        objective=float(np.sum((y_star - y) ** 2)),
    )
