"""Four anchors through the general secular solver: n = r + 1, no Gale directions."""

import numpy as np
import pytest

from edmpos.consistency import Verdict, eigen_coordinates, kappa, kappa_band
from edmpos.edm_core import augmented_edm_check, factor_anchors
from edmpos.errors import PoleEvaluation, SingularGeometry
from edmpos.solver_general import (
    _secular_problem,
    eval_f,
    eval_f_prime,
    multiplier_bracket,
    nlp_oracle,
    solve_qcqp,
)


def make_instance(rng, radius=2.66e7, scale=1e-7):
    while True:
        pts = rng.normal(size=(4, 3))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config, bundle = factor_anchors(pts, scale)
        except SingularGeometry:
            continue
        svals = np.linalg.svd(config.P, compute_uv=False)
        if (svals[0] / svals[-1]) ** 2 > 1e6:
            continue  # same conditioning screen as the scenario generator
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


def faulty_measurement(rng, config, bundle):
    """Perturbed squares guaranteed to sit well outside the decision band."""
    while True:
        y = exact_squares(config, 0.64 * rng.normal(size=3))
        dm = y + rng.normal(scale=0.2, size=4)
        if np.all(dm > 0.0) and abs(kappa(dm, bundle)) > 100.0 * kappa_band(dm):
            return dm


def test_build_at_gram_diagonal():
    rng = np.random.default_rng(3)
    _, bundle = make_instance(rng)
    sp = secular_problem(bundle.b, bundle)
    assert np.abs(sp.w).max() <= 1e-12
    assert sp.hprime == 0.0
    assert sp.kappa_dm == 0.0
    assert sp.degenerate
    # the ones direction is apart from the geometric columns; only its term is left
    assert np.abs(bundle.P_eigen.sum(axis=0)).max() <= 1e-12 * np.abs(bundle.P_eigen).max()
    for lam in (0.1 * sp.nu[-1], 0.5 * sp.nu[-1]):
        assert eval_f(sp, lam) == pytest.approx(2.0 * lam, rel=1e-9)


def test_build_at_constant_offset():
    rng = np.random.default_rng(5)
    _, bundle = make_instance(rng)
    sp = secular_problem(bundle.b + 0.25 * np.ones(4), bundle)
    assert np.abs(sp.w).max() <= 1e-12
    assert sp.hprime == pytest.approx(1.0, rel=1e-12)
    assert sp.kappa_dm == pytest.approx(1.0, rel=1e-12)
    assert sp.degenerate


def test_build_spectral_data_well_formed():
    rng = np.random.default_rng(7)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    assert sp.nu[0] >= sp.nu[1] >= sp.nu[2] > 0.0
    G = bundle.P_eigen.T @ bundle.P_eigen
    assert np.abs(G - np.diag(sp.nu)).max() <= 1e-10 * sp.nu[0]
    assert np.abs(bundle.P_eigen.sum(axis=0)).max() <= 1e-10 * np.abs(bundle.P_eigen).max()
    assert not sp.degenerate
    # reciprocal relation against the Gram pseudoinverse
    mu = np.sort(np.linalg.eigvalsh(pseudo_inverse(bundle)))[::-1][:3]
    assert np.allclose(np.sort(mu), np.sort(1.0 / sp.nu), rtol=1e-9)


def test_secular_forms_agree():
    rng = np.random.default_rng(11)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    lo, hi = multiplier_bracket(sp)
    for lam in rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), size=100):
        a = eval_f(sp, float(lam))
        b = eval_f_raw(sp, float(lam))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_secular_matches_kkt_residual_path():
    """f along the stationary path equals the constraint residual |x|^2 - 4 s."""
    rng = np.random.default_rng(13)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    lo, hi = multiplier_bracket(sp)
    for lam in rng.uniform(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), size=20):
        lam = float(lam)
        x = sp.w / (sp.nu - lam)
        s = (sp.hprime * sp.n / 4.0 - 2.0 * lam) / sp.n
        direct = float(x @ x) - 4.0 * s
        assert abs(eval_f(sp, lam) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_secular_value_at_zero():
    rng = np.random.default_rng(17)
    for _ in range(20):
        config, bundle = make_instance(rng)
        dm = faulty_measurement(rng, config, bundle)
        sp = secular_problem(dm, bundle)
        assert eval_f(sp, 0.0) == -sp.kappa_dm


def test_secular_monotone_in_bracket():
    rng = np.random.default_rng(19)
    config, bundle = make_instance(rng)
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
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = secular_problem(dm, bundle)
    with pytest.raises(PoleEvaluation):
        eval_f(sp, float(sp.nu[-1]))


def test_solve_self_consistent_short_circuit():
    rng = np.random.default_rng(29)
    config, bundle = make_instance(rng)
    dm = exact_squares(config, 0.64 * rng.normal(size=3))
    report = solve_qcqp(dm, bundle, config=config)
    assert report.lambda_star == 0.0
    assert report.iterations == 0
    assert np.linalg.norm(report.y_star - dm) <= 1e-12 * np.linalg.norm(dm)
    assert report.verdict.tag is Verdict.SELF_CONSISTENT
    assert report.method == "secular-gen"


def test_solve_faulty_instances_meet_contracts():
    rng = np.random.default_rng(31)
    for _ in range(300):
        config, bundle = make_instance(rng)
        dm = faulty_measurement(rng, config, bundle)
        report = solve_qcqp(dm, bundle, config=config)
        sp = secular_problem(dm, bundle)
        lo, hi = multiplier_bracket(sp)
        lam = report.lambda_star
        assert lo < lam < hi
        assert lam < sp.nu[-1]
        assert report.secular_residual <= 1e-12 * max(1.0, abs(sp.hprime))
        # stationarity, reading x* and s* back from the returned vector
        x_star = bundle.P_eigen.T @ (report.y_star - bundle.b) / sp.nu
        resid = (sp.nu - lam) * x_star - sp.w
        assert np.abs(resid).max() <= 1e-10
        s_star = float(np.sum(report.y_star - bundle.b)) / 4.0
        assert abs(float(x_star @ x_star) - 4.0 * s_star) <= 1e-10
        assert abs(report.kappa_residual) <= 1e-9
        check = augmented_edm_check(bundle, report.y_star)
        assert check.is_edm and check.dim == 3


def test_solution_beats_sampled_feasible_points():
    rng = np.random.default_rng(37)
    config, bundle = make_instance(rng)
    dm = exact_squares(config, 0.64 * rng.normal(size=3)) + 0.3
    report = solve_qcqp(dm, bundle, config=config)
    best = float(np.sum((report.y_star - dm) ** 2))
    q_star = report.fix.q_centered
    for _ in range(500):
        q = q_star + rng.normal(scale=0.3, size=3)
        candidate = float(np.sum((exact_squares(config, q) - dm) ** 2))
        assert candidate >= best - 1e-12


def test_agreement_with_position_fit():
    rng = np.random.default_rng(41)
    for _ in range(20):
        config, bundle = make_instance(rng)
        ranges = np.sqrt(exact_squares(config, 0.64 * rng.normal(size=3)))
        noisy = ranges * (1.0 + rng.uniform(-0.01, 0.01, size=4))
        dm = noisy**2
        a = solve_qcqp(dm, bundle, config=config)
        b = nlp_oracle(dm, config, bundle=bundle)
        scale_ref = float(np.linalg.norm(a.y_star))
        assert np.linalg.norm(a.y_star - b.y_star) <= 1e-6 * scale_ref


def test_scale_equivariance():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(4, 3))
    pts = 2.66e7 * pts / np.linalg.norm(pts, axis=1)[:, None]
    q_world = 1e6 * rng.normal(size=3)
    ranges = np.linalg.norm(pts - q_world, axis=1) * (1.0 + rng.uniform(-0.005, 0.005, size=4))
    alpha = 2.0
    c1, b1 = factor_anchors(pts, 1e-7)
    c2, b2 = factor_anchors(pts, alpha * 1e-7)
    r1 = solve_qcqp((1e-7 * ranges) ** 2, b1, config=c1)
    r2 = solve_qcqp((alpha * 1e-7 * ranges) ** 2, b2, config=c2)
    assert np.allclose(r2.y_star, alpha**2 * r1.y_star, rtol=1e-9)
    assert np.allclose(r2.fix.q_centered, alpha * r1.fix.q_centered, rtol=1e-8)
    assert np.linalg.norm(r2.q - r1.q) <= 1e-5


def test_degenerate_direction_falls_back():
    rng = np.random.default_rng(47)
    config, bundle = make_instance(rng)
    dm = bundle.b + 0.25 * np.ones(4)  # no component on any geometric direction
    report = solve_qcqp(dm, bundle, config=config)
    assert report.method == "nlp-oracle[degenerate-fallback]"
    assert report.converged
