"""Projection solvers for four or more anchors, plus the independent numerical oracle.

Feasible squared-range vectors have the form y = P x + s * 1 + b with
|x|^2 = 4 s, where P is any centered realization of the anchor geometry.  The
solvers here work in the eigenbasis realization carried by the bundle, where
the quadratic form is diagonal.  Three routes to the same projection:

* solve_qcqp: constrained formulation reduced to a scalar secular equation;
* solve_unconstrained: the constraint substituted in, leaving a smooth
  quartic minimized by damped Newton steps;
* nlp_oracle: direct least-squares fit of a receiver point, multi-started.

Each measurement is read once through the bundle's measurement operator E
(consistency.eigen_coordinates): z = y - b goes in, and w = P_eigen' z, the
Gale coordinates Z' z and 1'z come out of one matrix-vector product.  The
verdict, the degeneracy test and the secular data are all built from those
numbers.  The closed-form routes then end in closed form too: with the
coordinates x and offset s of the projection, y_star = P_eigen x + s + b.
One more product with E on the float y_star - b gives the reported
kappa_residual, the Gale residual of the y_star actually returned, which
position.position_from_coordinates checks against DEFAULT_GALE_TOL, and
the offset 1'(y_star - b) that centres y_star - b for the receiver
q = -P_pinv u / 2.

The secular root is found by Newton steps from lam = 0, where f = -kappa is
already known.  f is increasing and convex on either bracket, so the
iterates fall monotonically onto the root when kappa < 0, and overshoot it
once and then fall back when kappa > 0: a noisy solve takes one or two
evaluations of f.  A degenerate measurement (w has no mass on the smallest
pole) goes to nlp_oracle only when kappa > 0, where it has lost the pole
that bounds its bracket; when kappa < 0 it takes the ordinary root.

The secular functions run on Python floats: the secular problem stores each
pole's nu_i, w_i^2 and guard once per measurement, and eval_f and
eval_f_prime are scalar loops over those r poles (r = 3 in practice), where
each numpy call costs far more in dispatch than the arithmetic it does.  The
loops keep the term order of the numpy array form they replaced, which sums a
short vector left to right and squares an element as t * t, so eval_f gives
the same floats.  solve_qcqp_block runs solve_qcqp's steps once over many
measurements, each on its own geometry, paying the dispatch once per step
instead of once per measurement.  Every float it compares is solve_qcqp's, so
it hands a lane to solve_qcqp only where solve_qcqp would call nlp_oracle or
raise, or where the root needs more than BLOCK_MAX_EVALS evaluations of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .consistency import (
    DEFAULT_GALE_TOL,
    DEFAULT_KAPPA_TOL,
    GALE_NORM_FLOOR,
    EigenCoordinates,
    Verdict,
    as_vector,
    eigen_coordinates,
    self_consistency_test,
    verdict_of,
)
from .edm_core import AnchorStack, EdmBundle, SatelliteConfig
from .errors import NoConvergence, PoleEvaluation
from .position import position_from_coordinates
from .report import SolveReport
from .rootfind import find_root_increasing

DEFAULT_SECULAR_TOL = 1e-13
DEFAULT_GRAD_TOL = 1e-14
QUARTIC_MAX_ITER = 200
# relative distance to a pole below which the secular functions refuse to
# evaluate; relative to each pole, so that it means the same at every scale of
# nu.  The root finder never evaluates the pole nu[-1] that closes the
# kappa > 0 bracket, and lands this close to it only if the root does
POLE_GUARD = 1e-14
DEGENERACY_RTOL = 1e-12
# poles within this relative distance of the smallest form its bottom group
BOTTOM_GROUP_RTOL = 1e-9
# the root finder's xtol, relative to the smallest pole
ROOT_XTOL = 1e-15
# solve_qcqp_block hands a lane to solve_qcqp once it has taken this many
# evaluations of f without converging; a noisy solve takes one to three
BLOCK_MAX_EVALS = 8

# multi-start constants for the oracle: one centroid start plus 8 directions
# at a tenth of the anchor bounding-box diagonal, drawn from a fixed stream
ORACLE_STARTS = 8
ORACLE_RADIUS_FACTOR = 0.1
ORACLE_SEED = 1723
# least_squares' ftol, xtol and gtol, and its evaluation budget per start
# in units of r + 1
ORACLE_TOL = 1e-15
ORACLE_MAX_ITER = 100


@dataclass(frozen=True)
class SecularProblemGen:
    """Spectral data of the general projection in the eigenbasis realization.

    nu: eigenvalues of the quadratic form P'P, descending, all positive; the
        eigenbasis realization diagonalizes that form.
    w: transformed right-hand side.
    hprime: linear level (4/n) 1'(dm - b).
    kappa_dm: inconsistency of the measurement.
    n: anchor count.
    degenerate: True when w has no mass on the smallest eigenvalue group,
    which removes the pole that anchors the positive-side bracket; the
    negative-side bracket holds no pole and does not need it.
    poles: (nu_i, w_i**2, POLE_GUARD * nu_i) for each pole, as Python floats,
        which is all eval_f and eval_f_prime read of the arrays.
    """

    nu: np.ndarray
    w: np.ndarray
    hprime: float
    kappa_dm: float
    n: int
    degenerate: bool
    poles: tuple[tuple[float, float, float], ...]


def _secular_problem(coords: EigenCoordinates, bundle: EdmBundle) -> SecularProblemGen:
    nu = bundle.delta
    nus = nu.tolist()
    bottom_edge = nus[-1] * (1.0 + BOTTOM_GROUP_RTOL)
    mass = bottom_mass = 0.0
    poles = []
    for nui, wi in zip(nus, coords.w):
        w2 = wi * wi
        mass += w2
        if nui <= bottom_edge:
            bottom_mass += w2
        poles.append((nui, w2, POLE_GUARD * nui))
    # anchor the degeneracy test on the measurement scale |z|, not just |w|:
    # when z lies entirely in the null space plus offset directions, w is pure
    # round-off and a w-relative test would miss it
    ref = max(math.sqrt(mass), coords.norm)
    n = bundle.n
    return SecularProblemGen(
        nu=nu,
        w=np.array(coords.w),
        hprime=(4.0 / n) * coords.total,
        kappa_dm=coords.kappa,
        n=n,
        degenerate=math.sqrt(bottom_mass) <= DEGENERACY_RTOL * ref,
        poles=tuple(poles),
    )


def eval_f(sp: SecularProblemGen, lam: float) -> float:
    """Secular function, zero at the optimal multiplier.

    Evaluated in a form whose terms all vanish at lam = 0, so f(0) equals
    -kappa_dm exactly in floating point.
    """
    total = 0.0
    for nu, w2, guard in sp.poles:
        t = nu - lam
        if abs(t) < guard:
            raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
        total += w2 * lam * (2.0 * nu - lam) / (nu * nu * (t * t))
    return float(total + (8.0 / sp.n) * lam - sp.kappa_dm)


def eval_f_prime(sp: SecularProblemGen, lam: float) -> float:
    total = 0.0
    for nu, w2, guard in sp.poles:
        t = nu - lam
        if abs(t) < guard:
            raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
        # t * t * t, not t**3: numpy's power and Python's differ in the last
        # bit, and solve_qcqp_block must take the same Newton steps
        total += w2 / (t * t * t)
    return float(2.0 * total + 8.0 / sp.n)


def multiplier_bracket(sp: SecularProblemGen) -> tuple[float, float]:
    """Open interval guaranteed to contain the secular root."""
    if sp.kappa_dm > 0.0:
        return (0.0, float(sp.nu[-1]))
    return (sp.n * sp.kappa_dm / 8.0, 0.0)


def _report(y_star, y, bundle: EdmBundle, config: SatelliteConfig, **fields) -> SolveReport:
    """The tail every route shares: position, residual kappa and objective of y_star.

    One product with E on y_star - b gives its kappa, its Gale residual and
    the offset that centres it for the receiver.
    """
    coords = eigen_coordinates(y_star, bundle)
    fix = position_from_coordinates(coords, bundle, config)
    d = y_star - y
    return SolveReport(
        y_star=y_star,
        kappa_residual=coords.kappa,
        q=fix.q_world,
        fix=fix,
        # the float np.sum(d**2) gives, without its dispatch layers
        objective=float(np.add.reduce(d * d)),
        **fields,
    )


def solve_qcqp(
    dm,
    bundle: EdmBundle,
    tol: float = DEFAULT_SECULAR_TOL,
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    config: SatelliteConfig,
    label: str = "",
) -> SolveReport:
    """Project a measurement onto the feasible set via the secular equation.

    If the measurement violates the null-space condition the projection is
    still well defined (the infeasible component is simply dropped) and the
    report carries the infeasibility in its verdict.  A measurement inside
    the kappa band skips root finding and uses multiplier zero directly.
    Otherwise Newton steps start from multiplier zero; only a degenerate
    measurement with kappa > 0 goes to nlp_oracle.  With kappa < 0 a pure
    offset's root lies on the bracket end lam = n kappa / 8 itself.
    """
    y = as_vector(dm, bundle.n)
    coords = eigen_coordinates(y, bundle)
    verdict = verdict_of(y, coords, kappa_tol)
    sp = _secular_problem(coords, bundle)

    if abs(sp.kappa_dm) <= verdict.band:
        lam = 0.0
        iterations = 0
        bracket = None
        # every term of eval_f carries a factor lam, so f(0) is -kappa_dm bitwise
        secular_residual = abs(sp.kappa_dm)
    elif sp.degenerate and sp.kappa_dm > 0.0:
        return replace(
            nlp_oracle(y, config, bundle=bundle, label=label),
            method="nlp-oracle[degenerate-fallback]",
            verdict=verdict,
        )
    else:
        lo, hi = multiplier_bracket(sp)
        # start at lam = 0, where f = -kappa_dm bitwise: an end of either bracket
        result = find_root_increasing(
            lambda lam: eval_f(sp, lam),
            lambda lam: eval_f_prime(sp, lam),
            lo,
            hi,
            0.0,
            -sp.kappa_dm,
            ftol=tol * max(1.0, abs(sp.hprime)),
            xtol=ROOT_XTOL * float(sp.nu[-1]),
        )
        lam = result.root
        iterations = result.iterations
        bracket = (lo, hi)
        secular_residual = abs(result.f_root)
        if not lam < sp.nu[-1]:
            raise NoConvergence(
                f"multiplier {lam} violates the curvature bound {sp.nu[-1]}"
            )

    x = sp.w / (sp.nu - lam)
    # 1'(dm - b) = hprime * n / 4
    s = (sp.hprime * sp.n / 4.0 - 2.0 * lam) / sp.n
    return _report(
        bundle.P_eigen @ x + s + bundle.b, y, bundle, config,
        iterations=iterations,
        method="secular-gen",
        verdict=verdict,
        label=label,
        lambda_star=lam,
        secular_residual=secular_residual,
        bracket=bracket,
    )


class SecularBlock(NamedTuple):
    """solve_qcqp's results for the B lanes of one solve_qcqp_block call.

    Where plain[j] is True, lane j's kappa, tag, lam, iterations, y_star and
    q (the fix's q_centered) are bitwise what solve_qcqp reports for it, with
    method "secular-gen".  A lane that is not plain must go to solve_qcqp,
    which solves it or raises; its entries here mean nothing.
    """

    plain: np.ndarray
    kappa: np.ndarray
    tag: list[Verdict]
    lam: np.ndarray
    iterations: np.ndarray
    y_star: np.ndarray
    q: np.ndarray


_TAGS = tuple(Verdict)


def solve_qcqp_block(
    Y: np.ndarray,
    stack: AnchorStack,
    lanes: list[int],
    tol: float = DEFAULT_SECULAR_TOL,
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
) -> SecularBlock:
    """solve_qcqp for B measurements at once: row j of Y on geometry stack.lane(lanes[j]).

    lanes lists B of the stack's lane numbers, none of them a rejected lane.
    Each step of solve_qcqp runs once over (B, ...) arrays, with the same
    floating-point operations in the same order: the products with E,
    P_eigen and P_pinv are stacked matmuls, which give the per-lane
    products' bits, and sums over the r poles and over the Gale coordinates
    run left to right.  The root finder is find_root_increasing's Newton
    iteration from lam = 0, masked lane by lane.  So kappa, its band and the
    Gale residuals carry solve_qcqp's bits, and every threshold decides a
    lane as solve_qcqp decides it.

    A lane is not plain only where solve_qcqp would call nlp_oracle (a
    degenerate measurement with kappa > 0) or raise (a pole guard hit, a
    bracket that closes without a sign change, a root past the curvature
    bound, a y_star whose Gale residual exceeds DEFAULT_GALE_TOL), or where
    the root is not found in BLOCK_MAX_EVALS evaluations.
    """
    E, b, nu, P_eigen, P_pinv = (
        a[lanes] for a in (stack.E, stack.b, stack.delta, stack.P_eigen, stack.P_pinv))
    n = Y.shape[1]
    r = nu.shape[1]
    b_norm = np.sqrt(_products(b[:, None, :], b)[:, 0])
    z = Y - b
    c = _products(E, z)
    norm = np.sqrt(_products(z[:, None, :], z)[:, 0])
    w, total = c[:, :r], c[:, -1]
    w2 = w * w
    quad = _pole_sum(w2 / (nu * nu))
    # the degeneracy test of _secular_problem: the mass of w on the bottom pole group
    bottom = _pole_sum(np.where(nu <= nu[:, -1:] * (1.0 + BOTTOM_GROUP_RTOL), w2, 0.0))
    degenerate = np.sqrt(bottom) <= DEGENERACY_RTOL * np.maximum(np.sqrt(_pole_sum(w2)), norm)
    hprime = (4.0 / n) * total
    kappa = hprime - quad
    band = _band_block(Y, kappa_tol)
    gale = _gale_block(c[:, r:-1], norm, b_norm)
    short = np.abs(kappa) <= band
    hand = ~short & degenerate & (kappa > 0.0)
    lam = np.zeros(kappa.shape)
    iterations = np.zeros(kappa.shape, dtype=int)
    rows = np.flatnonzero(~short & ~hand)
    if rows.size:
        root, evals, found = _secular_roots(nu[rows], w2[rows], kappa[rows], hprime[rows], n, tol)
        lam[rows], iterations[rows] = root, evals
        hand[rows[~found]] = True
    hand |= ~(lam < nu[:, -1])

    x = w / (nu - lam[:, None])
    s = (hprime * n / 4.0 - 2.0 * lam) / n
    y_star = _products(P_eigen, x) + s[:, None] + b
    # the tail of solve_qcqp's report: y_star's coordinates, its Gale check, q
    z = y_star - b
    c = _products(E, z)
    norm = np.sqrt(_products(z[:, None, :], z)[:, 0])
    hand |= _gale_block(c[:, r:-1], norm, b_norm) > DEFAULT_GALE_TOL
    q = -0.5 * _products(P_pinv, z - (c[:, -1] / n)[:, None])
    code = np.where(gale > DEFAULT_GALE_TOL, 3, np.where(short, 0, np.where(kappa > 0.0, 1, 2)))
    return SecularBlock(plain=~hand, kappa=kappa, tag=[_TAGS[k] for k in code.tolist()],
                        lam=lam, iterations=iterations, y_star=y_star, q=q)


def _products(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(B, m) rows A[j] @ v[j], as a stacked matmul: the bits of each lane's own product."""
    return (A @ v[:, :, None])[:, :, 0]


def _pole_sum(terms: np.ndarray) -> np.ndarray:
    """Sum a (B, m) array over its columns left to right from 0.0, as the scalar loops do."""
    total = 0.0
    for i in range(terms.shape[1]):
        total = total + terms[:, i]
    return total


def _band_block(Y: np.ndarray, kappa_tol: float) -> np.ndarray:
    """consistency.kappa_band for each row of Y, bit for bit."""
    return kappa_tol * np.maximum(1.0, np.add.reduce(np.abs(Y), axis=1) / Y.shape[1])


def _gale_block(null: np.ndarray, norm: np.ndarray, b_norm: np.ndarray) -> np.ndarray:
    """consistency._gale_of for each lane, bit for bit: the same squares in the same order."""
    ref = np.maximum(norm, GALE_NORM_FLOOR * b_norm)
    # a zero ref means z = 0, whose residual is 0 either way
    return np.sqrt(_pole_sum(null * null)) / np.where(ref > 0.0, ref, 1.0)


def _secular_roots(nu, w2, kappa, hprime, n: int, tol: float):
    """find_root_increasing on each lane's secular function from (0, -kappa), vectorised.

    The brackets, tolerances and step rule are solve_qcqp's and
    find_root_increasing's, lane by lane: a Newton step that leaves the
    bracket is replaced by its midpoint, or by lo itself when it reaches lo
    before f was seen negative.  Returns (root, evaluations, found); found
    is False for a lane that hit a pole guard, closed its bracket without a
    sign change, or did not converge in BLOCK_MAX_EVALS evaluations.
    """
    count = kappa.shape[0]
    root = np.zeros(count)
    evals_at = np.zeros(count, dtype=int)
    found = np.zeros(count, dtype=bool)
    positive = kappa > 0.0
    lo = np.where(positive, 0.0, n * kappa / 8.0)
    hi = np.where(positive, nu[:, -1], 0.0)
    # the lanes still iterating; _keep drops the others from every array
    it = SimpleNamespace(
        idx=np.arange(count), lo=lo, a=lo, b=hi, x=np.zeros(count), fx=-kappa,
        below=np.zeros(count, dtype=bool), above=np.zeros(count, dtype=bool), nu=nu, w2=w2,
        guard=POLE_GUARD * nu, kappa=kappa, ftol=tol * np.maximum(1.0, np.abs(hprime)),
        xtol=ROOT_XTOL * nu[:, -1])
    _keep(it, hi > lo)
    for evals in range(BLOCK_MAX_EVALS + 1):
        conv = np.abs(it.fx) <= it.ftol
        neg = it.fx < 0.0
        it.a = np.where(neg, it.x, it.a)
        it.b = np.where(neg, it.b, it.x)
        it.below = it.below | neg
        it.above = it.above | ~neg
        narrow = ~conv & (it.b - it.a <= it.xtol)
        done = conv | (narrow & it.below & it.above)
        if done.any():
            lanes = it.idx[done]
            root[lanes], evals_at[lanes], found[lanes] = it.x[done], evals, True
        going = ~(conv | narrow)
        if evals == BLOCK_MAX_EVALS or not going.any():
            break
        _keep(it, going)
        t = _pole_gaps(it)
        # f' >= 8/n > 0 inside the bracket, so every step is a number
        step = it.x - it.fx / (2.0 * _pole_sum(it.w2 / (t * t * t)) + 8.0 / n)
        it.x = np.where((it.a < step) & (step < it.b), step,
                        np.where((step <= it.a) & ~it.below, it.lo, 0.5 * (it.a + it.b)))
        t = _pole_gaps(it)
        x = it.x[:, None]
        it.fx = (_pole_sum(it.w2 * x * (2.0 * it.nu - x) / (it.nu * it.nu * (t * t)))
                 + (8.0 / n) * it.x - it.kappa)
    return root, evals_at, found


def _keep(lanes: SimpleNamespace, mask: np.ndarray) -> None:
    """Keep only the lanes where mask holds, in every array of lanes."""
    if not mask.all():
        vars(lanes).update({k: v[mask] for k, v in vars(lanes).items()})


def _pole_gaps(lanes: SimpleNamespace) -> np.ndarray:
    """nu - x for each lane and pole, after dropping the lanes eval_f would refuse (pole guard)."""
    t = lanes.nu - lanes.x[:, None]
    hit = np.abs(t) < lanes.guard
    if hit.any():
        clear = ~hit.any(axis=1)
        _keep(lanes, clear)
        t = t[clear]
    return t


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


def minimize_quartic(sp: SecularProblemGen) -> tuple[UnconstrainedState, int, bool]:
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
    gtol = DEFAULT_GRAD_TOL * max(1.0, 2.0 * float(np.linalg.norm(sp.w)))
    g = grad(x)
    gnorm = float(np.linalg.norm(g))
    best = (gnorm, x.copy())
    converged = gnorm <= gtol
    it = 0
    while not converged and it < QUARTIC_MAX_ITER:
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
    *,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    config: SatelliteConfig,
    label: str = "",
) -> SolveReport:
    """Project a measurement by minimizing the substituted quartic directly.

    Independent of the secular route: no multiplier, no bracket.  When the
    descent stalls the best iterate is still reported, flagged unconverged.
    """
    y = as_vector(dm, bundle.n)
    coords = eigen_coordinates(y, bundle)
    verdict = verdict_of(y, coords, kappa_tol)
    state, iterations, converged = minimize_quartic(_secular_problem(coords, bundle))
    return _report(
        bundle.P_eigen @ state.x + state.s + bundle.b, y, bundle, config,
        iterations=iterations,
        method="unconstrained",
        verdict=verdict,
        label=label,
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
    *,
    bundle: EdmBundle,
    kappa_tol: float = DEFAULT_KAPPA_TOL,
    label: str = "",
) -> SolveReport:
    """Fit a receiver point to the measurement by damped least squares.

    Minimizes sum_i (|p_i - q|^2 - dm_i)^2 over q with analytic Jacobian,
    restarted from the centroid and eight perturbed points; the best local
    minimum wins, ties going to the earliest start.  Serves as the
    independent check on the closed-form routes.  scipy is imported here, on
    the first call, so that importing edmpos does not pay for it.
    """
    from scipy.optimize import least_squares

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
            ftol=ORACLE_TOL,
            xtol=ORACLE_TOL,
            gtol=ORACLE_TOL,
            max_nfev=ORACLE_MAX_ITER * (config.r + 1),
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
    return _report(
        y_star, y, bundle, config,
        iterations=total_nfev,
        method="nlp-oracle",
        verdict=verdict,
        label=label,
        converged=any_converged,
    )
