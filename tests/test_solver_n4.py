"""Four-anchor secular solver: dual-form evaluation, brackets, optimality."""

import numpy as np
import pytest

from edmpos.consistency import Verdict, kappa, kappa_band
from edmpos.edm_core import (
    augmented_edm_check,
    build_edm,
    center_configuration,
    factor_edm,
)
from edmpos.errors import BadShape, DegenerateCoefficient, PoleEvaluation
from edmpos.solver_general import nlp_oracle
from edmpos.solver_n4 import (
    build_secular_n4,
    eval_g,
    eval_g_prime,
    multiplier_bracket,
    solve_n4,
)


def make_instance(rng, radius=2.66e7, scale=1e-7):
    from edmpos.errors import SingularGeometry

    while True:
        pts = rng.normal(size=(4, 3))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config = center_configuration(pts, scale)
        except SingularGeometry:
            continue
        svals = np.linalg.svd(config.P, compute_uv=False)
        if (svals[0] / svals[-1]) ** 2 > 1e6:
            continue  # same conditioning screen as the scenario generator
        return config, factor_edm(build_edm(config))


def exact_squares(config, q_centered):
    diff = config.P - q_centered
    return np.einsum("ij,ij->i", diff, diff)


def eval_g_raw(sp, lam):
    """Secular function in its unreduced matrix form, the reference for eval_g."""
    u = sp.c / (1.0 - lam * sp.mu)
    return float(lam**2 * np.sum(sp.mu * u**2) + 2.0 * lam * np.sum(sp.c * u) - sp.kappa_dm)


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
    sp = build_secular_n4(bundle.b, bundle)
    assert np.array_equal(sp.c, np.array([0.0, 0.0, 0.0, 1.0]))
    assert sp.kappa_dm == 0.0
    assert sp.degenerate
    assert sp.mu[3] == 0.0
    assert np.array_equal(sp.S[:, 3], np.full(4, 0.5))


def test_build_at_constant_offset():
    rng = np.random.default_rng(5)
    _, bundle = make_instance(rng)
    sp = build_secular_n4(bundle.b + 0.25 * np.ones(4), bundle)
    assert np.abs(sp.c[:3]).max() <= 1e-12
    assert sp.c[3] == 1.0
    assert sp.kappa_dm == pytest.approx(1.0, rel=1e-12)
    assert sp.degenerate


def test_build_spectral_data_well_formed():
    rng = np.random.default_rng(7)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = build_secular_n4(dm, bundle)
    assert sp.mu[0] >= sp.mu[1] >= sp.mu[2] > 0.0
    assert np.abs(sp.S.T @ sp.S - np.eye(4)).max() <= 1e-10
    assert not sp.degenerate
    # reciprocal relation against the geometry matrix
    nu = np.sort(np.linalg.eigvalsh(config.P.T @ config.P))
    assert np.allclose(np.sort(sp.mu[:3]), 1.0 / nu[::-1], rtol=1e-9)


def test_secular_forms_agree():
    rng = np.random.default_rng(11)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = build_secular_n4(dm, bundle)
    lo, hi = multiplier_bracket(sp)
    for lam in rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), size=100):
        a = eval_g(sp, float(lam))
        b = eval_g_raw(sp, float(lam))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_secular_matches_kkt_residual_path():
    """g along the stationary path equals the quadratic form of the KKT point."""
    rng = np.random.default_rng(13)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = build_secular_n4(dm, bundle)
    lo, hi = multiplier_bracket(sp)
    for lam in rng.uniform(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), size=20):
        lam = float(lam)
        x = -lam * sp.c / (1.0 - lam * sp.mu)
        direct = x @ (sp.mu * x) - 2.0 * sp.c @ x - sp.kappa_dm
        assert abs(eval_g(sp, lam) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_secular_value_at_zero():
    rng = np.random.default_rng(17)
    for _ in range(20):
        config, bundle = make_instance(rng)
        dm = faulty_measurement(rng, config, bundle)
        sp = build_secular_n4(dm, bundle)
        assert eval_g(sp, 0.0) == -sp.kappa_dm


def test_secular_monotone_in_bracket():
    rng = np.random.default_rng(19)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = build_secular_n4(dm, bundle)
    lo = multiplier_bracket(sp)[0] if sp.kappa_dm < 0.0 else 0.0
    hi = (1.0 - 1e-6) / sp.mu[0]
    grid = np.linspace(lo + 1e-9, hi, 1000)
    vals = np.array([eval_g(sp, float(t)) for t in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert all(eval_g_prime(sp, float(t)) > 0.0 for t in grid)


def test_pole_guard():
    rng = np.random.default_rng(23)
    config, bundle = make_instance(rng)
    dm = faulty_measurement(rng, config, bundle)
    sp = build_secular_n4(dm, bundle)
    with pytest.raises(PoleEvaluation):
        eval_g(sp, 1.0 / sp.mu[0])


def test_solve_self_consistent_short_circuit():
    rng = np.random.default_rng(29)
    config, bundle = make_instance(rng)
    dm = exact_squares(config, 0.64 * rng.normal(size=3))
    report = solve_n4(dm, bundle, config=config)
    assert report.lambda_star == 0.0
    assert report.iterations == 0
    assert np.array_equal(report.y_star, dm)
    assert report.verdict.tag is Verdict.SELF_CONSISTENT
    assert report.method == "secular-n4"


def test_solve_faulty_instances_meet_contracts():
    rng = np.random.default_rng(31)
    for _ in range(300):
        config, bundle = make_instance(rng)
        dm = faulty_measurement(rng, config, bundle)
        report = solve_n4(dm, bundle, config=config)
        sp = build_secular_n4(dm, bundle)
        lo, hi = multiplier_bracket(sp)
        lam = report.lambda_star
        assert lo < lam < hi
        assert lam < 1.0 / sp.mu[0]
        assert report.secular_residual <= 1e-12 * max(1.0, abs(sp.h))
        # stationarity, reading x* back from the returned vector
        x_star = sp.S.T @ (report.y_star - dm)
        resid = (1.0 - lam * sp.mu) * x_star + lam * sp.c
        assert np.abs(resid).max() <= 1e-10
        assert abs(report.kappa_residual) <= 1e-9
        check = augmented_edm_check(bundle, report.y_star)
        assert check.is_edm and check.dim == 3


def test_solution_beats_sampled_feasible_points():
    rng = np.random.default_rng(37)
    config, bundle = make_instance(rng)
    dm = exact_squares(config, 0.64 * rng.normal(size=3)) + 0.3
    report = solve_n4(dm, bundle, config=config)
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
        a = solve_n4(dm, bundle, config=config)
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
    c1 = center_configuration(pts, 1e-7)
    c2 = center_configuration(pts, alpha * 1e-7)
    b1 = factor_edm(build_edm(c1))
    b2 = factor_edm(build_edm(c2))
    r1 = solve_n4((1e-7 * ranges) ** 2, b1, config=c1)
    r2 = solve_n4((alpha * 1e-7 * ranges) ** 2, b2, config=c2)
    assert np.allclose(r2.y_star, alpha**2 * r1.y_star, rtol=1e-9)
    assert np.allclose(r2.fix.q_centered, alpha * r1.fix.q_centered, rtol=1e-8)
    assert np.linalg.norm(r2.q - r1.q) <= 1e-5


def test_degenerate_direction_falls_back():
    rng = np.random.default_rng(47)
    config, bundle = make_instance(rng)
    dm = bundle.b + 0.25 * np.ones(4)  # no component on any nonzero eigenvector
    with pytest.raises(DegenerateCoefficient):
        solve_n4(dm, bundle)
    report = solve_n4(dm, bundle, config=config)
    assert report.method == "nlp-oracle[degenerate-fallback]"
    assert report.converged


def test_build_rejects_wrong_size():
    rng = np.random.default_rng(53)
    from edmpos.errors import SingularGeometry

    while True:
        pts = rng.normal(size=(5, 3)) * 1e7
        try:
            config = center_configuration(pts, 1e-7)
            break
        except SingularGeometry:
            continue
    bundle = factor_edm(build_edm(config))
    with pytest.raises(BadShape):
        build_secular_n4(np.ones(5), bundle)
