"""Projection solvers for four or more anchors, plus the independent numerical oracle.

Feasible squared-range vectors have the form y = P x + s * 1 + b with
|x|^2 = 4 s, where P is any centered realization of the anchor geometry.  The
solvers here work in the eigenbasis realization carried by the bundle, where
the quadratic form is diagonal.  Three routes to the same projection:

* solve_qcqp: constrained formulation reduced to a scalar secular equation;
* solve_unconstrained: the constraint substituted in, leaving a smooth
  quartic minimized by damped Newton steps;
* nlp_oracle: direct least-squares fit of a receiver point, multi-started.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .consistency import (
    DEFAULT_KAPPA_TOL,
    as_vector,
    kappa,
    self_consistency_test,
)
from .edm_core import EdmBundle, SatelliteConfig, build_edm, factor_edm
from .errors import DegenerateCoefficient, NoConvergence, PoleEvaluation, SingularGeometry
from .position import recover_position
from .report import SolveReport
from .rootfind import find_root_increasing

DEFAULT_SECULAR_TOL = 1e-13
DEFAULT_GRAD_TOL = 1e-14
# relative distance to a pole below which the secular functions refuse to
# evaluate; relative to each pole, because the root finder's first probe sits
# 1e-12 * nu[-1] below the nearest one whatever the scale of nu
POLE_GUARD = 1e-14
DEGENERACY_RTOL = 1e-12

# multi-start constants for the oracle: one centroid start plus 8 directions
# at a tenth of the anchor bounding-box diagonal, drawn from a fixed stream
ORACLE_STARTS = 8
ORACLE_RADIUS_FACTOR = 0.1
ORACLE_SEED = 1723


@dataclass(frozen=True)
class SecularProblemGen:
    """Spectral data of the general projection in the eigenbasis realization.

    nu: eigenvalues of the quadratic form P'P, descending, all positive; the
        eigenbasis realization diagonalizes that form.
    w: transformed right-hand side.
    hprime: linear level (4/n) 1'(dm - b).
    kappa_dm: inconsistency of the measurement.
    n: anchor count.
    P_eigen: the (n, r) eigenbasis realization used to map x back to y.
    degenerate: True when w has no mass on the smallest eigenvalue group,
    which removes the pole that anchors the positive-side bracket.
    """

    nu: np.ndarray
    w: np.ndarray
    hprime: float
    kappa_dm: float
    n: int
    P_eigen: np.ndarray
    degenerate: bool


def build_secular_general(dm, bundle: EdmBundle) -> SecularProblemGen:
    """Assemble the general secular problem from the measurement and bundle."""
    y = as_vector(dm, bundle.n)
    if bundle.r == 0:
        raise SingularGeometry("anchor geometry has rank zero")
    nu = bundle.delta.copy()
    if nu[-1] <= bundle.rank_tol * nu[0]:
        raise SingularGeometry("quadratic form is numerically singular")
    P_eigen = bundle.P_eigen
    z = y - bundle.b
    w = P_eigen.T @ z
    hprime = (4.0 / bundle.n) * float(z.sum())
    kappa_dm = kappa(y, bundle)
    bottom = nu <= nu[-1] * (1.0 + 1e-9)
    bottom_mass = float(np.linalg.norm(w[bottom]))
    # anchor the degeneracy test on the measurement scale |z|, not just |w|:
    # when z lies entirely in the null space plus offset directions, w is pure
    # round-off and a w-relative test would miss it
    ref = max(float(np.linalg.norm(w)), float(np.linalg.norm(z)))
    degenerate = bottom_mass <= DEGENERACY_RTOL * ref
    return SecularProblemGen(
        nu=nu,
        w=w,
        hprime=hprime,
        kappa_dm=kappa_dm,
        n=bundle.n,
        P_eigen=P_eigen,
        degenerate=degenerate,
    )


def eval_f(sp: SecularProblemGen, lam: float) -> float:
    """Secular function, zero at the optimal multiplier.

    Evaluated in a form whose terms all vanish at lam = 0, so f(0) equals
    -kappa_dm exactly in floating point.
    """
    t = sp.nu - lam
    if np.any(np.abs(t) < POLE_GUARD * sp.nu):
        raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
    terms = sp.w**2 * lam * (2.0 * sp.nu - lam) / (sp.nu**2 * t**2)
    return float(terms.sum() + (8.0 / sp.n) * lam - sp.kappa_dm)


def eval_f_prime(sp: SecularProblemGen, lam: float) -> float:
    t = sp.nu - lam
    if np.any(np.abs(t) < POLE_GUARD * sp.nu):
        raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
    return float(2.0 * np.sum(sp.w**2 / t**3) + 8.0 / sp.n)


def multiplier_bracket(sp: SecularProblemGen) -> tuple[float, float]:
    """Open interval guaranteed to contain the secular root."""
    if sp.kappa_dm > 0.0:
        return (0.0, float(sp.nu[-1]))
    return (sp.n * sp.kappa_dm / 8.0, 0.0)


def solve_qcqp(
    dm,
    bundle: EdmBundle,
    tol: float = DEFAULT_SECULAR_TOL,
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    config: SatelliteConfig | None = None,
    max_iter: int = 200,
) -> SolveReport:
    """Project a measurement onto the feasible set via the secular equation.

    If the measurement violates the null-space condition the projection is
    still well defined (the infeasible component is simply dropped) and the
    report carries the infeasibility in its verdict.  A measurement inside
    the kappa band skips root finding and uses multiplier zero directly.
    """
    y = as_vector(dm, bundle.n)
    verdict = self_consistency_test(y, bundle, kappa_tol)
    sp = build_secular_general(y, bundle)

    if abs(sp.kappa_dm) <= verdict.band:
        lam = 0.0
        iterations = 0
        bracket = None
        # every term of eval_f carries a factor lam, so f(0) is -kappa_dm bitwise
        secular_residual = abs(sp.kappa_dm)
    else:
        if sp.degenerate:
            if config is None:
                raise DegenerateCoefficient(
                    "measurement has no component on the smallest eigenvalue group "
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
            lambda lam: eval_f(sp, lam),
            lambda lam: eval_f_prime(sp, lam),
            lo,
            hi,
            ftol=tol * max(1.0, abs(sp.hprime)),
            xtol=1e-15 * float(sp.nu[-1]),
            max_iter=max_iter,
        )
        lam = result.root
        iterations = result.iterations
        bracket = result.bracket
        secular_residual = abs(result.f_root)
        if not lam < sp.nu[-1]:
            raise NoConvergence(
                f"multiplier {lam} violates the curvature bound {sp.nu[-1]}"
            )

    x = sp.w / (sp.nu - lam)
    # 1'(dm - b) = hprime * n / 4
    s = (sp.hprime * sp.n / 4.0 - 2.0 * lam) / sp.n
    y_star = sp.P_eigen @ x + s + bundle.b
    fix = recover_position(y_star, bundle, config) if config is not None else None
    return SolveReport(
        y_star=y_star,
        kappa_residual=kappa(y_star, bundle),
        iterations=iterations,
        method="secular-gen",
        verdict=verdict,
        lambda_star=lam,
        secular_residual=secular_residual,
        bracket=bracket,
        q=fix.q_world if fix is not None else None,
        fix=fix,
        objective=float(np.sum((y_star - y) ** 2)),
    )


@dataclass(frozen=True)
class UnconstrainedState:
    """Iterate of the quartic descent: coordinates, induced offset, value, gradient."""

    x: np.ndarray
    s: float
    objective: float
    gradient_norm: float


def _quartic_pieces(sp: SecularProblemGen):
    # F(x) = n (x'x)^2 / 16 + sum(nu x^2) + (x'x) beta / 2 - 2 w'x  with
    # beta = 1'(b - dm); minimizing F is the constrained projection with the
    # constraint substituted in
    beta = -sp.hprime * sp.n / 4.0
    n = sp.n

    def value(x):
        xx = float(x @ x)
        return n * xx**2 / 16.0 + float(np.sum(sp.nu * x**2)) + 0.5 * xx * beta - 2.0 * float(sp.w @ x)

    def grad(x):
        xx = float(x @ x)
        return (n * xx / 4.0 + beta) * x + 2.0 * sp.nu * x - 2.0 * sp.w

    def hess(x):
        xx = float(x @ x)
        H = np.diag(n * xx / 4.0 + beta + 2.0 * sp.nu)
        H += (n / 2.0) * np.outer(x, x)
        return H

    return value, grad, hess


def minimize_quartic(
    sp: SecularProblemGen,
    tol: float = DEFAULT_GRAD_TOL,
    max_iter: int = 200,
) -> tuple[UnconstrainedState, int, bool]:
    """Damped Newton descent on the substituted quartic.

    Newton systems are convexified by an eigenvalue shift when needed.  A step
    that shrinks the gradient norm is accepted outright; otherwise it is
    backtracked under an Armijo test on the value.  Gradient-based acceptance
    matters near the solution, where value differences sink below the
    round-off noise of the (cancelling) quartic terms while the gradient is
    still meaningful.  Returns the lowest-gradient iterate, the iteration
    count, and a convergence flag.
    """
    value, grad, hess = _quartic_pieces(sp)
    x = sp.w / sp.nu  # multiplier-zero solution; exact for a consistent measurement
    gtol = tol * max(1.0, 2.0 * float(np.linalg.norm(sp.w)))
    g = grad(x)
    gnorm = float(np.linalg.norm(g))
    best = (gnorm, x.copy())
    converged = gnorm <= gtol
    it = 0
    while not converged and it < max_iter:
        it += 1
        H = hess(x)
        emin = float(np.linalg.eigvalsh(H)[0])
        shift = 0.0 if emin > 1e-10 else -emin + max(1e-8, 1e-8 * abs(emin))
        p = np.linalg.solve(H + shift * np.eye(len(x)), -g)
        x_try = x + p
        g_try = grad(x_try)
        gnorm_try = float(np.linalg.norm(g_try))
        if gnorm_try < gnorm:
            x, g, gnorm = x_try, g_try, gnorm_try
        else:
            fx = value(x)
            slope = float(g @ p)
            if slope >= 0.0:  # safeguard; cannot happen with a positive definite system
                p = -g
                slope = -gnorm**2
            alpha = 1.0
            fnew = value(x + alpha * p)
            backtracks = 0
            while fnew > fx + 1e-4 * alpha * slope and backtracks < 60:
                alpha *= 0.5
                fnew = value(x + alpha * p)
                backtracks += 1
            if backtracks >= 60:
                break  # value differences are below evaluation noise; stop here
            x = x + alpha * p
            g = grad(x)
            gnorm = float(np.linalg.norm(g))
        if gnorm < best[0]:
            best = (gnorm, x.copy())
        if gnorm <= gtol:
            converged = True
    gnorm, x = best
    s = float(x @ x) / 4.0
    return UnconstrainedState(x=x, s=s, objective=value(x), gradient_norm=gnorm), it, converged


def solve_unconstrained(
    dm,
    bundle: EdmBundle,
    tol: float = DEFAULT_GRAD_TOL,
    max_iter: int = 200,
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    config: SatelliteConfig | None = None,
) -> SolveReport:
    """Project a measurement by minimizing the substituted quartic directly.

    Independent of the secular route: no multiplier, no bracket.  When the
    descent stalls the best iterate is still reported, flagged unconverged.
    """
    y = as_vector(dm, bundle.n)
    verdict = self_consistency_test(y, bundle, kappa_tol)
    sp = build_secular_general(y, bundle)
    state, iterations, converged = minimize_quartic(sp, tol, max_iter)
    y_star = sp.P_eigen @ state.x + state.s + bundle.b
    fix = recover_position(y_star, bundle, config) if config is not None else None
    return SolveReport(
        y_star=y_star,
        kappa_residual=kappa(y_star, bundle),
        iterations=iterations,
        method="unconstrained",
        verdict=verdict,
        q=fix.q_world if fix is not None else None,
        fix=fix,
        objective=float(np.sum((y_star - y) ** 2)),
        converged=converged,
    )


def _polish(q: np.ndarray, P: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton steps on the fit objective to clear the least-squares stopping slack."""
    def pieces(q):
        diff = P - q
        res = np.einsum("ij,ij->i", diff, diff) - y
        g = 4.0 * ((q - P) * res[:, None]).sum(axis=0)
        J = 2.0 * (q - P)
        H = 2.0 * (J.T @ J) + 4.0 * res.sum() * np.eye(len(q))
        return res, g, H

    res, g, H = pieces(q)
    fval = float(res @ res)
    for _ in range(8):
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        cand = q + step
        res_c, g_c, H_c = pieces(cand)
        f_c = float(res_c @ res_c)
        # accept only strict improvement in value or gradient; stationary slack
        # is what we are removing, so stop as soon as Newton stops helping
        if f_c > fval and np.linalg.norm(g_c) >= np.linalg.norm(g):
            break
        q, g, H, fval = cand, g_c, H_c, f_c
        if np.linalg.norm(g) <= 1e-15 * max(1.0, fval):
            break
    return q


def nlp_oracle(
    dm,
    config: SatelliteConfig,
    tol: float = 1e-15,
    max_iter: int = 100,
    *,
    bundle: EdmBundle | None = None,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> SolveReport:
    """Fit a receiver point to the measurement by damped least squares.

    Minimizes sum_i (|p_i - q|^2 - dm_i)^2 over q with analytic Jacobian,
    restarted from the centroid and eight perturbed points; the best local
    minimum wins, ties going to the earliest start.  Serves as the
    independent check on the closed-form routes.
    """
    if bundle is None:
        bundle = factor_edm(build_edm(config))
    y = as_vector(dm, config.n)
    verdict = self_consistency_test(y, bundle, kappa_tol)
    P = config.P

    def residuals(q):
        diff = P - q
        return np.einsum("ij,ij->i", diff, diff) - y

    def jacobian(q):
        return 2.0 * (q - P)

    rng = np.random.default_rng(ORACLE_SEED)
    radius = ORACLE_RADIUS_FACTOR * float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
    starts = [np.zeros(config.r)]
    for _ in range(ORACLE_STARTS):
        direction = rng.normal(size=config.r)
        direction /= np.linalg.norm(direction)
        starts.append(radius * direction)

    best = None
    total_nfev = 0
    any_converged = False
    for q0 in starts:
        result = least_squares(
            residuals,
            q0,
            jac=jacobian,
            method="lm",
            ftol=tol,
            xtol=tol,
            gtol=tol,
            max_nfev=max_iter * (config.r + 1),
        )
        total_nfev += result.nfev
        if result.status > 0:
            any_converged = True
        cost = 2.0 * result.cost
        if best is None or cost < best[0]:
            best = (cost, result.x)
    q_best = _polish(best[1], P, y)
    diff = P - q_best
    y_star = np.einsum("ij,ij->i", diff, diff)
    objective = float(np.sum((y_star - y) ** 2))
    fix = recover_position(y_star, bundle, config)
    return SolveReport(
        y_star=y_star,
        kappa_residual=kappa(y_star, bundle),
        iterations=total_nfev,
        method="nlp-oracle",
        verdict=verdict,
        q=fix.q_world,
        fix=fix,
        objective=objective,
        converged=any_converged,
    )
