"""Position recovery from feasible squared-range vectors."""

import numpy as np
import pytest

from edmpos.edm_core import build_edm, factor_anchors, factor_edm
from edmpos.errors import BadShape, GaleInfeasible, SingularGeometry
from edmpos.harness import GaussianSq, apply_noise, generate_scenario, prepare_scenario
from edmpos.position import recover_position, verify_fix
from edmpos.solver_general import solve_qcqp


def make_instance(rng, n, radius=2.66e7, scale=1e-7):
    while True:
        pts = rng.normal(size=(n, 3))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config = factor_anchors(pts, scale)[0]
        except SingularGeometry:
            continue
        svals = np.linalg.svd(config.P, compute_uv=False)
        if (svals[0] / svals[-1]) ** 2 > 1e6:
            continue
        return config, factor_edm(build_edm(config))


def exact_squares(config, q_centered):
    diff = config.P - q_centered
    return np.einsum("ij,ij->i", diff, diff)


def test_gram_diagonal_recovers_centroid():
    rng = np.random.default_rng(101)
    config, bundle = make_instance(rng, 6)
    fix = recover_position(bundle.b, bundle, config)
    assert np.abs(fix.q_centered).max() <= 1e-12
    assert np.allclose(fix.q_world, config.centroid, atol=1e-5)
    assert fix.qtq_direct <= 1e-12
    assert fix.qtq_identity == 0.0


def test_round_trip_random_points():
    rng = np.random.default_rng(103)
    for n in (4, 5, 6, 8):
        for _ in range(25):
            config, bundle = make_instance(rng, n)
            q = rng.uniform(-1.0, 1.0, size=3)  # anywhere well inside the shell
            y = exact_squares(config, q)
            fix = recover_position(y, bundle, config)
            assert np.linalg.norm(fix.q_centered - q) <= 1e-8 * max(1.0, np.linalg.norm(q))
            assert abs(fix.qtq_direct - fix.qtq_identity) <= 1e-8
            assert fix.gale_feasible
            # the defining linear system holds at the recovered point
            lhs = 2.0 * config.P @ fix.q_centered
            rhs = fix.qtq_direct * np.ones(n) + bundle.b - y
            assert np.abs(lhs - rhs).max() <= 1e-8


def test_world_coordinates():
    rng = np.random.default_rng(107)
    config, bundle = make_instance(rng, 6)
    q = np.array([0.3, -0.5, 0.2])
    fix = recover_position(exact_squares(config, q), bundle, config)
    expected = q / config.scale + config.centroid
    assert np.allclose(fix.q_world, expected, atol=1e-6)


def test_rotation_equivariance():
    rng = np.random.default_rng(109)
    for _ in range(20):
        pts = rng.normal(size=(6, 3))
        pts = 2.66e7 * pts / np.linalg.norm(pts, axis=1)[:, None]
        x_true = rng.uniform(-6.4e6, 6.4e6, size=3)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(R) < 0.0:
            R[:, 0] = -R[:, 0]

        def fix_for(points, receiver):
            config = factor_anchors(points, 1e-7)[0]
            bundle = factor_edm(build_edm(config))
            y = exact_squares(config, (receiver - config.centroid) * config.scale)
            return recover_position(y, bundle, config)

        fix_a = fix_for(pts, x_true)
        fix_b = fix_for(pts @ R.T, R @ x_true)
        err = np.linalg.norm(fix_b.q_world - R @ fix_a.q_world)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(fix_a.q_world))


def test_scale_choice_cancels():
    rng = np.random.default_rng(113)
    pts = rng.normal(size=(6, 3))
    pts = 2.66e7 * pts / np.linalg.norm(pts, axis=1)[:, None]
    x_true = np.array([1.2e6, -3.4e6, 2.2e6])
    worlds = []
    for scale in (1e-7, 1e-6, 1.0):
        config = factor_anchors(pts, scale)[0]
        bundle = factor_edm(build_edm(config))
        y = exact_squares(config, (x_true - config.centroid) * scale)
        worlds.append(recover_position(y, bundle, config).q_world)
    assert np.linalg.norm(worlds[0] - worlds[1]) <= 1e-5
    assert np.linalg.norm(worlds[0] - worlds[2]) <= 1e-4


def test_infeasible_vector_rejected():
    rng = np.random.default_rng(127)
    config, bundle = make_instance(rng, 6)
    w = rng.normal(size=bundle.Z.shape[1])
    y_bad = bundle.b + bundle.Z @ (w / np.linalg.norm(w))
    with pytest.raises(GaleInfeasible):
        recover_position(y_bad, bundle, config)


def test_mismatched_sizes_rejected():
    rng = np.random.default_rng(131)
    config, _ = make_instance(rng, 5)
    _, bundle6 = make_instance(rng, 6)
    with pytest.raises(BadShape):
        recover_position(bundle6.b, bundle6, config)


def test_rank_deficient_anchors_rejected():
    rng = np.random.default_rng(137)
    # coplanar anchors embedded in three columns: rank two
    flat = rng.normal(size=(6, 2))
    pts = np.column_stack([flat, np.zeros(6)])
    with pytest.raises(SingularGeometry):
        factor_anchors(pts, scale=1.0)


def test_verify_fix_clean_measurement():
    rng = np.random.default_rng(139)
    config, bundle = make_instance(rng, 6)
    q = np.array([0.1, 0.4, -0.2])
    y = exact_squares(config, q)
    fix = recover_position(y, bundle, config)
    report = verify_fix(fix, y, config)
    assert report.max_abs_scaled <= 1e-9
    assert report.rms_range_m <= 1e-6
    assert np.abs(report.range_residuals_m).max() <= 1e-6


def test_verify_fix_reports_noise_scale():
    """Residuals against a noisy measurement sit at the injected noise level."""
    rng = np.random.default_rng(149)
    sigma_m = 5.0
    values = []
    for _ in range(20):
        config, bundle = make_instance(rng, 8)
        q = 0.64 * rng.normal(size=3)
        ranges = np.sqrt(exact_squares(config, q))
        noisy = (ranges / config.scale + rng.normal(scale=sigma_m, size=8)) * config.scale
        dm = noisy**2
        report = solve_qcqp(dm, bundle, config=config)
        check = verify_fix(report.fix, dm, config)
        values.append(check.rms_range_m)
    rms = float(np.mean(values))
    assert 0.05 * sigma_m <= rms <= 5.0 * sigma_m


def lstsq_position(y, bundle, config):
    """World position from the demeaned system 2 P q = b - y - mean(b - y), by np.linalg.lstsq."""
    z = bundle.b - y
    q = 0.5 * np.linalg.lstsq(config.P, z - z.mean(), rcond=None)[0]
    return q / config.scale + config.centroid


def test_stored_operator_matches_lstsq_up_to_cond_1e5():
    """recover_position's stored R^-1 Q' against a least-squares reference.

    Geometries come from generate_scenario (normal-matrix condition number up
    to 1e5); the four-anchor draws are screened for cond > 1e4 to reach the
    ill-conditioned end.  Allowed error: 16 sqrt(cond) eps max|p| in meters,
    the round-off the geometry amplifies.
    """
    cases = [(n, seed) for n in (4, 5, 6, 12) for seed in range(25)]
    ill = []
    for seed in range(2000):
        sc = generate_scenario(4, seed=10_000 + seed)
        s = np.linalg.svd(sc.satellites - sc.satellites.mean(axis=0), compute_uv=False)
        if (s[0] / s[-1]) ** 2 > 1e4:
            ill.append((4, 10_000 + seed))
    assert len(ill) >= 20
    worst_cond = 0.0
    for n, seed in cases + ill:
        sc = generate_scenario(n, seed=seed)
        sats = sc.satellites
        s = np.linalg.svd(sats - sats.mean(axis=0), compute_uv=False)
        cond = (s[0] / s[-1]) ** 2
        worst_cond = max(worst_cond, cond)
        tol = 16.0 * np.sqrt(cond) * np.finfo(float).eps * float(np.abs(sats).max())
        config, bundle, meas = prepare_scenario(sc)
        fix = recover_position(meas.dm, bundle, config)
        assert np.abs(fix.q_world - lstsq_position(meas.dm, bundle, config)).max() <= tol
        noisy = apply_noise(sc, GaussianSq(2.0), seed=seed)
        _, _, meas = prepare_scenario(noisy)
        report = solve_qcqp(meas.dm, bundle, config=config)
        ref = lstsq_position(report.y_star, bundle, config)
        assert np.abs(report.fix.q_world - ref).max() <= tol
    assert worst_cond > 5e4
