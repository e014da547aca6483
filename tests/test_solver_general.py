"""General-n solvers: secular route, quartic descent, and the least-squares oracle."""

import numpy as np
import pytest
from scipy.optimize import brentq

from edmpos import solver_general
from edmpos.consistency import Verdict, eigen_coordinates, kappa, kappa_band
from edmpos.edm_core import augmented_edm_check, factor_anchors
from edmpos.errors import PoleEvaluation, SingularGeometry
from edmpos.harness import (
    GaussianSq,
    SingleFault,
    apply_noise,
    generate_scenario,
    prepare_scenario,
)
from edmpos.position import position_from_coordinates
from edmpos.solver_general import (
    DEFAULT_SECULAR_TOL,
    POLE_GUARD,
    _quartic_pieces,
    _secular_problem,
    eval_f,
    eval_f_prime,
    minimize_quartic,
    multiplier_bracket,
    nlp_oracle,
    solve_qcqp,
    solve_unconstrained,
)


def make_instance(rng, n, radius=2.66e7, scale=1e-7):
    while True:
        pts = rng.normal(size=(n, 3))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config, bundle = factor_anchors(pts, scale)
        except SingularGeometry:
            continue
        svals = np.linalg.svd(config.P, compute_uv=False)
        if (svals[0] / svals[-1]) ** 2 > 1e6:
            continue
        return config, bundle


def secular_problem(dm, bundle):
    """The secular problem solve_qcqp builds for the measurement dm."""
    return _secular_problem(eigen_coordinates(dm, bundle), bundle)


def exact_squares(config, q_centered):
    diff = config.P - q_centered
    return np.einsum("ij,ij->i", diff, diff)


def pseudo_inverse(bundle):
    """B^+ from the bundle's eigen realization: P_eigen diag(1/delta^2) P_eigen'."""
    Bdag = (bundle.P_eigen / bundle.delta**2) @ bundle.P_eigen.T
    return 0.5 * (Bdag + Bdag.T)


def eval_f_raw(sp, lam):
    """Secular function in its unreduced pole-sum form, the reference for eval_f."""
    t = sp.nu - lam
    return float(np.sum(sp.w**2 / t**2) + (8.0 / sp.n) * lam - sp.hprime)


def eval_f_array(sp, lam):
    """The numpy array form eval_f replaced: one expression over every pole at once."""
    t = sp.nu - lam
    if np.any(np.abs(t) < POLE_GUARD * sp.nu):
        raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
    terms = sp.w**2 * lam * (2.0 * sp.nu - lam) / (sp.nu**2 * t**2)
    return float(terms.sum() + (8.0 / sp.n) * lam - sp.kappa_dm)


def eval_f_prime_array(sp, lam):
    """The numpy array form eval_f_prime replaced."""
    t = sp.nu - lam
    if np.any(np.abs(t) < POLE_GUARD * sp.nu):
        raise PoleEvaluation(f"multiplier {lam} is too close to a pole")
    return float(2.0 * np.sum(sp.w**2 / t**3) + 8.0 / sp.n)


def scalar_kernel_instances():
    """Secular problems on generated geometries: r = 3 at n in {4, 5, 6, 12}, r = 2 at n in {3, 4, 6}.

    Measurements alternate 2 m Gaussian noise and a +-5e9 m^2 single fault,
    so both brackets (kappa < 0 and kappa > 0) are reached.
    """
    cases = [(n, 3, 80) for n in (4, 5, 6, 12)] + [(n, 2, 30) for n in (3, 4, 6)]
    for n, r, count in cases:
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence(4242, spawn_key=(n, r, i)))
            sc = generate_scenario(n, r, rng=rng)
            if i % 2:
                sign = 1.0 if i % 4 == 1 else -1.0
                model = SingleFault(int(rng.integers(n)), sign * 5e9)
            else:
                model = GaussianSq(2.0)
            sc = apply_noise(sc, model, rng=rng, clamp=True)
            _, bundle, meas = prepare_scenario(sc)
            yield secular_problem(meas.dm, bundle)


def test_scalar_kernel_matches_array_and_pole_sum_forms():
    """eval_f and eval_f_prime against the array form and the unreduced pole sum.

    Probes span the bracket, sit at 0, and sit 1e-12 * nu below the nearest
    pole, close to it but outside its guard.
    """
    checked = 0
    for sp in scalar_kernel_instances():
        assert len(sp.poles) == len(sp.nu)
        lo, hi = multiplier_bracket(sp)
        probes = [lo + f * (hi - lo) for f in (1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6)]
        probes += [0.0, float(sp.nu[-1]) * (1.0 - 1e-12), float(hi) - 1e-12 * float(sp.nu[-1])]
        for lam in probes:
            lam = float(lam)
            f = eval_f(sp, lam)
            assert f == pytest.approx(eval_f_array(sp, lam), rel=1e-12, abs=0.0)
            assert eval_f_prime(sp, lam) == pytest.approx(
                eval_f_prime_array(sp, lam), rel=1e-12, abs=0.0
            )
            t = sp.nu - lam
            scale = float(np.sum(sp.w**2 / t**2)) + abs(8.0 / sp.n * lam) + abs(sp.hprime)
            assert abs(f - eval_f_raw(sp, lam)) <= 1e-12 * scale
        checked += 1
    assert checked >= 300


def test_scalar_pole_guard_boundary():
    """The guard raises inside POLE_GUARD * nu of the nearest pole and not outside it."""
    for k, sp in enumerate(scalar_kernel_instances()):
        if k % 7:
            continue
        pole = float(sp.nu[-1])
        for fun, ref in ((eval_f, eval_f_array), (eval_f_prime, eval_f_prime_array)):
            for lam in (pole * (1.0 - 0.5e-14), pole, pole * (1.0 + 0.5e-14)):
                with pytest.raises(PoleEvaluation):
                    fun(sp, lam)
                with pytest.raises(PoleEvaluation):
                    ref(sp, lam)
            lam = pole * (1.0 - 2e-14)
            assert fun(sp, lam) == pytest.approx(ref(sp, lam), rel=1e-12, abs=0.0)


def faulty_measurement(rng, config, bundle, scale=0.2):
    while True:
        y = exact_squares(config, 0.64 * rng.normal(size=3))
        dm = y + rng.normal(scale=scale, size=bundle.n)
        if np.all(dm > 0.0) and abs(kappa(dm, bundle)) > 100.0 * kappa_band(dm):
            return dm


def test_build_at_gram_diagonal():
    rng = np.random.default_rng(3)
    _, bundle = make_instance(rng, 6)
    sp = secular_problem(bundle.b, bundle)
    assert np.abs(sp.w).max() <= 1e-12
    assert sp.hprime == 0.0
    assert sp.kappa_dm == 0.0
    assert sp.degenerate
    for lam in (0.1 * sp.nu[-1], 0.5 * sp.nu[-1]):
        assert eval_f(sp, lam) == pytest.approx(8.0 * lam / 6.0, rel=1e-9)


def test_constant_offset_collapses_to_centroid():
    """A pure offset has no geometric component; the projection lands on b."""
    rng = np.random.default_rng(5)
    _, bundle = make_instance(rng, 6)
    delta = 0.05 * bundle.delta[-1]  # keeps the root inside (0, nu_r)
    sp = secular_problem(bundle.b + delta * np.ones(6), bundle)
    assert np.abs(sp.w).max() <= 1e-10
    assert sp.hprime == pytest.approx(4.0 * delta, rel=1e-12)
    lam_star = sp.n * delta / 2.0
    assert abs(eval_f(sp, lam_star)) <= 1e-10
    x = sp.w / (sp.nu - lam_star)
    s = (sp.hprime * sp.n / 4.0 - 2.0 * lam_star) / sp.n
    y_star = bundle.P_eigen @ x + s + bundle.b
    assert np.abs(x).max() <= 1e-9
    assert abs(s) <= 1e-12
    assert np.abs(y_star - bundle.b).max() <= 1e-9


def test_reciprocal_eigenvalue_identity():
    rng = np.random.default_rng(7)
    for n in (5, 6, 9):
        config, bundle = make_instance(rng, n)
        nu_direct = np.sort(np.linalg.eigvalsh(config.P.T @ config.P))[::-1]
        assert np.allclose(bundle.delta, nu_direct, rtol=1e-9)
        mu = np.sort(np.linalg.eigvalsh(pseudo_inverse(bundle)))[::-1][:3]
        assert np.allclose(np.sort(mu), np.sort(1.0 / nu_direct), rtol=1e-9)


def test_f_at_zero_is_minus_kappa():
    rng = np.random.default_rng(11)
    for n in (5, 6, 8):
        config, bundle = make_instance(rng, n)
        dm = faulty_measurement(rng, config, bundle)
        sp = secular_problem(dm, bundle)
        assert eval_f(sp, 0.0) == -sp.kappa_dm
        assert abs(eval_f_raw(sp, 0.0) + sp.kappa_dm) <= 1e-10 * max(1.0, abs(sp.kappa_dm))


def test_pole_sum_identity():
    rng = np.random.default_rng(13)
    config, bundle = make_instance(rng, 7)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    z = dm - bundle.b
    quad = float(z @ pseudo_inverse(bundle) @ z)
    assert np.sum((sp.w / sp.nu) ** 2) == pytest.approx(quad, rel=1e-10)


def test_secular_function_matrix_route():
    """Both forms against a direct evaluation through the true coordinates."""
    rng = np.random.default_rng(17)
    config, bundle = make_instance(rng, 6)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    P = config.P
    z = dm - bundle.b
    G = P.T @ P
    lo, hi = multiplier_bracket(sp)
    for lam in rng.uniform(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), size=50):
        lam = float(lam)
        Pz = P.T @ z
        u = np.linalg.solve(G - lam * np.eye(3), Pz)
        direct = float(u @ u) + (8.0 / sp.n) * lam - sp.hprime
        assert abs(eval_f_raw(sp, lam) - direct) <= 1e-9 * max(1.0, abs(direct))
        assert abs(eval_f(sp, lam) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_secular_monotone_in_bracket():
    rng = np.random.default_rng(19)
    config, bundle = make_instance(rng, 6)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    lo = multiplier_bracket(sp)[0] if sp.kappa_dm < 0.0 else 0.0
    hi = (1.0 - 1e-6) * sp.nu[-1]
    grid = np.linspace(lo + 1e-9, hi, 1000)
    vals = np.array([eval_f(sp, float(t)) for t in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert all(eval_f_prime(sp, float(t)) > 0.0 for t in grid)


def test_pole_guard():
    rng = np.random.default_rng(23)
    config, bundle = make_instance(rng, 6)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    with pytest.raises(PoleEvaluation):
        eval_f(sp, float(sp.nu[-1]))


def test_small_bottom_eigenvalue_still_solves():
    """The guard is relative to the pole: a small nu[-1] with kappa > 0 still projects.

    With a guard of 1e-14 * max(nu, 1), the root finder's first probe at
    hi - 1e-12 * nu[-1] fell inside it whenever nu[-1] < 1e-2.
    """
    from edmpos.harness import GaussianSq, apply_noise, generate_scenario, prepare_scenario

    sc = apply_noise(generate_scenario(5, seed=303), GaussianSq(2.0), seed=303001)
    config, bundle, meas = prepare_scenario(sc)
    assert bundle.delta[-1] < 1e-2
    assert kappa(meas.dm, bundle) > kappa_band(meas.dm)
    report = solve_qcqp(meas.dm, bundle, config=config)
    ref = nlp_oracle(meas.dm, config, bundle=bundle)
    assert report.lambda_star < bundle.delta[-1]
    assert abs(report.objective - ref.objective) <= 1e-6 * ref.objective


def test_solve_clean_measurement():
    rng = np.random.default_rng(29)
    for n in (5, 6, 10):
        config, bundle = make_instance(rng, n)
        q = 0.64 * rng.normal(size=3)
        dm = exact_squares(config, q)
        report = solve_qcqp(dm, bundle, config=config)
        assert report.lambda_star == 0.0
        assert report.verdict.tag is Verdict.SELF_CONSISTENT
        assert np.linalg.norm(report.y_star - dm) <= 1e-9 * np.linalg.norm(dm)
        q_world = q / config.scale + config.centroid
        assert np.linalg.norm(report.q - q_world) <= 1e-6


def test_solve_faulty_contracts():
    rng = np.random.default_rng(31)
    for _ in range(200):
        config, bundle = make_instance(rng, 6)
        dm = faulty_measurement(rng, config, bundle)
        report = solve_qcqp(dm, bundle, config=config)
        sp = secular_problem(dm, bundle)
        lo, hi = multiplier_bracket(sp)
        lam = report.lambda_star
        assert lo < lam < hi
        assert lam < sp.nu[-1]
        assert report.secular_residual <= 1e-12 * max(1.0, abs(sp.hprime))
        # projection feasibility
        assert np.abs(bundle.Z.T @ (report.y_star - bundle.b)).max() <= 1e-9
        assert abs(kappa(report.y_star, bundle)) <= 1e-9
        check = augmented_edm_check(bundle, report.y_star)
        assert check.is_edm and check.dim == 3
        # the substituted constraint holds at the root
        x = sp.w / (sp.nu - lam)
        s = (sp.hprime * sp.n / 4.0 - 2.0 * lam) / sp.n
        assert abs(float(x @ x) - 4.0 * s) <= 1e-10


def test_quartic_gradient_matches_finite_differences():
    rng = np.random.default_rng(37)
    config, bundle = make_instance(rng, 6)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    value, grad, hess = _quartic_pieces(sp)
    h = 1e-6
    for _ in range(100):
        x = rng.normal(size=3)
        g = grad(x)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (value(x + step) - value(x - step)) / (2.0 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_quartic_hessian_matches_gradient_differences():
    rng = np.random.default_rng(41)
    config, bundle = make_instance(rng, 6)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    _, grad, hess = _quartic_pieces(sp)
    h = 1e-6
    for _ in range(10):
        x = rng.normal(size=3)
        H = hess(x)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (grad(x + step) - grad(x - step)) / (2.0 * h)
            assert np.abs(H[:, i] - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_minimize_quartic_at_gram_diagonal():
    rng = np.random.default_rng(43)
    _, bundle = make_instance(rng, 6)
    sp = secular_problem(bundle.b, bundle)
    state, iterations, converged = minimize_quartic(sp)
    assert converged and iterations == 0
    assert np.abs(state.x).max() <= 1e-12
    assert state.objective == pytest.approx(0.0, abs=1e-12)
    assert state.s == float(state.x @ state.x) / 4.0


def test_unconstrained_matches_secular():
    rng = np.random.default_rng(47)
    for _ in range(50):
        config, bundle = make_instance(rng, 6)
        dm = faulty_measurement(rng, config, bundle)
        a = solve_qcqp(dm, bundle, config=config)
        b = solve_unconstrained(dm, bundle, config=config)
        assert b.converged
        ref = max(1.0, float(np.linalg.norm(a.y_star)))
        assert np.linalg.norm(a.y_star - b.y_star) <= 1e-6 * ref
        assert b.objective == pytest.approx(a.objective, rel=1e-6)


def projection_n4_reference(dm, bundle, config):
    """Four-anchor projection in the eigenbasis of Bdag, root by brentq.

    An independent parametrization of the minimal case: with mu, S the
    eigenpairs of Bdag (mu[3] = 0 on the ones direction) and c = -mu S'(dm - b),
    c[3] = 1, the projection is dm + S x with x = -lam c / (1 - lam mu), where
    lam is the root of g = sum_i c_i^2 lam (2 - lam mu_i) / (1 - lam mu_i)^2
    + 2 lam - kappa on (kappa / 2, 0) or (0, 1 / mu[0]).  Returns (y, q_world).
    """
    evals, evecs = np.linalg.eigh(pseudo_inverse(bundle))
    mu, S = evals[::-1].copy(), evecs[:, ::-1].copy()
    mu[3] = 0.0
    S[:, 3] = 0.5
    c = -mu * (S.T @ (dm - bundle.b))
    c[3] = 1.0
    k = kappa(dm, bundle)

    def g(lam):
        t = 1.0 - lam * mu[:3]
        return float(np.sum(c[:3] ** 2 * lam * (2.0 - lam * mu[:3]) / t**2) + 2.0 * lam - k)

    if k > 0.0:
        hi = next(h for h in (1.0 - 10.0 ** -np.arange(1, 16)) / mu[0] if g(h) > 0.0)
        lam = brentq(g, 0.0, hi, xtol=1e-300, maxiter=500)
    else:
        lam = brentq(g, k / 2.0, 0.0, xtol=1e-300, maxiter=500)
    y = dm + S @ (-lam * c / (1.0 - lam * mu))
    return y, position_from_coordinates(eigen_coordinates(y, bundle), bundle, config).q_world


def secular_reference(dm, bundle, config):
    """Projection through the eigenpairs of P'P itself, root by brentq.

    Independent of the bundle's SVD factorization: with nu, V from eigh(P'P)
    and w = V'P'(dm - b), lam is the root of sum_i w_i^2 lam (2 nu_i - lam) /
    (nu_i^2 (nu_i - lam)^2) + 8 lam / n - kappa on (n kappa / 8, 0) or
    (0, nu_min), and the projection is P V x + s 1 + b with x = w / (nu - lam)
    and s = (1'(dm - b) - 2 lam) / n.
    """
    P = config.P
    nu, V = np.linalg.eigh(P.T @ P)
    z = dm - bundle.b
    w = V.T @ (P.T @ z)
    n = bundle.n
    k = kappa(dm, bundle)

    def f(lam):
        return float(np.sum(w**2 * lam * (2.0 * nu - lam) / (nu**2 * (nu - lam) ** 2))
                     + 8.0 * lam / n - k)

    if k > 0.0:
        hi = next(h for h in (1.0 - 10.0 ** -np.arange(1, 16)) * nu[0] if f(h) > 0.0)
        lam = brentq(f, 0.0, hi, xtol=1e-300, maxiter=500)
    else:
        lam = brentq(f, n * k / 8.0, 0.0, xtol=1e-300, maxiter=500)
    return P @ (V @ (w / (nu - lam))) + (z.sum() - 2.0 * lam) / n + bundle.b


@pytest.mark.parametrize("n", [4, 6, 12])
def test_newton_from_zero_is_monotone_and_matches_brentq(n, monkeypatch):
    """Newton from lam = 0 on 2 m noisy draws: monotone iterates, y* at the brentq root.

    f is increasing and convex on either bracket.  From f(0) = -kappa the
    iterates fall monotonically onto the root when kappa < 0.  When kappa > 0
    the first step overshoots the root and the rest fall back monotonically,
    never crossing it again.
    """
    seen = []

    def recording_eval_f(sp, lam):
        value = eval_f(sp, lam)
        seen.append((lam, value))
        return value

    monkeypatch.setattr(solver_general, "eval_f", recording_eval_f)
    signs = set()
    for i in range(40):
        sc = apply_noise(generate_scenario(n, seed=500 + i), GaussianSq(2.0), seed=900 + i)
        config, bundle, meas = prepare_scenario(sc)
        seen.clear()
        report = solve_qcqp(meas.dm, bundle, config=config)
        if report.bracket is None:  # inside the kappa band: multiplier zero
            continue
        sp = secular_problem(meas.dm, bundle)
        ftol = DEFAULT_SECULAR_TOL * max(1.0, abs(sp.hprime))
        assert len(seen) == report.iterations >= 1
        lams = [lam for lam, _ in seen]
        path = [0.0] + lams if sp.kappa_dm < 0.0 else lams
        assert all(later < earlier for earlier, later in zip(path, path[1:]))
        assert all(value >= -ftol for _, value in seen)
        signs.add(sp.kappa_dm > 0.0)
        ref = secular_reference(meas.dm, bundle, config)
        assert np.linalg.norm(report.y_star - ref) <= 1e-13 * np.linalg.norm(ref)
    assert signs == {False, True}


def test_cross_path_four_anchors():
    """The general secular route meets the Bdag-eigenbasis parametrization on n = 4."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        config, bundle = make_instance(rng, 4)
        dm = faulty_measurement(rng, config, bundle)
        a_y, a_q = projection_n4_reference(dm, bundle, config)
        b = solve_qcqp(dm, bundle, config=config)
        ref = max(1.0, float(np.linalg.norm(a_y)))
        assert np.linalg.norm(a_y - b.y_star) <= 1e-9 * ref
        assert np.linalg.norm(a_q - b.q) <= 1e-5


def test_nlp_oracle_recovers_exact_point():
    rng = np.random.default_rng(59)
    for n in (5, 7):
        config, bundle = make_instance(rng, n)
        q = 0.64 * rng.normal(size=3)
        dm = exact_squares(config, q)
        report = nlp_oracle(dm, config, bundle=bundle)
        assert report.converged
        q_world = q / config.scale + config.centroid
        assert np.linalg.norm(report.q - q_world) <= 1e-8 * max(1.0, np.linalg.norm(q_world))
        assert report.objective <= 1e-18


def test_nlp_oracle_beats_true_point_on_noisy_data():
    rng = np.random.default_rng(61)
    config, bundle = make_instance(rng, 6)
    q = 0.64 * rng.normal(size=3)
    dm = exact_squares(config, q) + rng.normal(scale=0.1, size=6)
    report = nlp_oracle(dm, config, bundle=bundle)
    cost_at_truth = float(np.sum((exact_squares(config, q) - dm) ** 2))
    assert report.objective <= cost_at_truth + 1e-12


def test_gale_violating_measurement_still_projects():
    rng = np.random.default_rng(67)
    config, bundle = make_instance(rng, 6)
    w = rng.normal(size=bundle.Z.shape[1])
    w /= np.linalg.norm(w)
    dm = bundle.b + bundle.Z @ w + 0.05 * np.ones(6)
    report = solve_qcqp(dm, bundle, config=config)
    assert report.verdict.tag is Verdict.GALE_INFEASIBLE
    assert np.abs(bundle.Z.T @ (report.y_star - bundle.b)).max() <= 1e-9
    assert abs(kappa(report.y_star, bundle)) <= 1e-9
    assert report.fix is not None


def test_degenerate_measurement_falls_back():
    rng = np.random.default_rng(71)
    config, bundle = make_instance(rng, 6)
    dm = bundle.b + 0.5 * np.ones(6)  # pure offset: no geometric component
    report = solve_qcqp(dm, bundle, config=config)
    assert report.method == "nlp-oracle[degenerate-fallback]"


@pytest.mark.parametrize("n", [4, 6, 12])
def test_negative_offset_takes_the_secular_root(n):
    """b - c 1 has kappa < 0 and no geometric component, so it is degenerate.

    Its bracket (n kappa / 8, 0) holds no pole, and its root is that bracket
    end itself: the ordinary secular solve reaches it in a step or two.
    """
    rng = np.random.default_rng(73 + n)
    config, bundle = make_instance(rng, n)
    dm = bundle.b - 0.5 * np.ones(n)
    sp = secular_problem(dm, bundle)
    assert sp.degenerate and sp.kappa_dm < 0.0
    report = solve_qcqp(dm, bundle, config=config)
    ref = nlp_oracle(dm, config, bundle=bundle)
    assert report.method == "secular-gen"
    assert report.iterations <= 2
    assert report.lambda_star == pytest.approx(n * sp.kappa_dm / 8.0, rel=1e-12)
    assert abs(report.objective - ref.objective) <= 1e-6 * ref.objective
