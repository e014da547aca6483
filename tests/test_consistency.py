"""Inconsistency functional and verdict logic, checked against the eigenvalue oracle."""

import numpy as np
import pytest

from edmpos.consistency import (
    ConsistencyVerdict,
    Measurement,
    Verdict,
    clock_bias_estimate,
    kappa,
    kappa_band,
    self_consistency_test,
)
from edmpos.edm_core import (
    augmented_edm_check,
    build_edm,
    factor_anchors,
    factor_edm,
)
from edmpos.errors import BadShape, SingularGeometry


def make_bundle(rng, n, r=3, radius=2.66e7, scale=1e-7):
    while True:
        pts = rng.normal(size=(n, r))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config = factor_anchors(pts, scale)[0]
        except SingularGeometry:
            continue
        return config, factor_edm(build_edm(config))


def exact_squares_from(config, q_centered):
    diff = config.P - q_centered
    return np.einsum("ij,ij->i", diff, diff)


def test_measurement_from_ranges():
    m = Measurement.from_ranges(np.array([3.0e7, 2.5e7, 2.8e7, 3.1e7]), scale=1e-7)
    assert m.n == 4
    assert np.array_equal(m.dm, (1e-7 * m.raw_ranges) ** 2)
    with pytest.raises(ValueError):
        Measurement.from_ranges(np.array([1.0, -2.0]), scale=1e-7)


def test_kappa_zero_at_gram_diagonal():
    rng = np.random.default_rng(5)
    for n in (4, 5, 8):
        _, bundle = make_bundle(rng, n)
        assert kappa(bundle.b, bundle) == 0.0


def test_kappa_of_constant_offset():
    rng = np.random.default_rng(7)
    for n in (4, 6, 10):
        _, bundle = make_bundle(rng, n)
        for delta in (1e-6, 0.037, -2.5, 40.0):
            k = kappa(bundle.b + delta * np.ones(n), bundle)
            assert abs(k - 4.0 * delta) <= 1e-12 * max(1.0, abs(4.0 * delta))


def test_kappa_dual_route():
    """Same functional through the coordinate formula for the pseudoinverse."""
    rng = np.random.default_rng(13)
    for n in (4, 6, 9):
        config, bundle = make_bundle(rng, n)
        P = config.P
        G2inv = np.linalg.inv(P.T @ P)
        Bdag_direct = P @ G2inv @ G2inv @ P.T
        for _ in range(20):
            y = bundle.b + rng.normal(size=n)
            z = y - bundle.b
            k_direct = (4.0 / n) * z.sum() - z @ Bdag_direct @ z
            assert abs(kappa(y, bundle) - k_direct) <= 1e-10 * max(1.0, abs(k_direct))


def test_kappa_gale_shift_invariance():
    rng = np.random.default_rng(17)
    _, bundle = make_bundle(rng, 7)
    for _ in range(20):
        y = bundle.b + rng.normal(size=7)
        w = rng.normal(size=bundle.Z.shape[1])
        shifted = kappa(y + bundle.Z @ w, bundle)
        base = kappa(y, bundle)
        assert abs(shifted - base) <= 1e-12 * max(1.0, abs(base))


def test_kappa_scale_equivariance():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(6, 3)) * 1e7
    q = rng.normal(size=3) * 1e6
    alpha = 3.0
    c1 = factor_anchors(pts, scale=1e-7)[0]
    c2 = factor_anchors(pts, scale=alpha * 1e-7)[0]
    b1 = factor_edm(build_edm(c1))
    b2 = factor_edm(build_edm(c2))
    y1 = exact_squares_from(c1, 1e-7 * (q - c1.centroid)) + 0.3
    y2 = exact_squares_from(c2, alpha * 1e-7 * (q - c2.centroid)) + 0.3 * alpha**2
    k1, k2 = kappa(y1, b1), kappa(y2, b2)
    assert abs(k2 - alpha**2 * k1) <= 1e-9 * max(1.0, abs(k2))


def test_band_scales_with_measurement():
    y = np.full(4, 50.0)
    assert kappa_band(y, 1e-8) == pytest.approx(5e-7)
    assert kappa_band(np.full(4, 1e-3), 1e-8) == pytest.approx(1e-8)
    # the band's sum over n is the float np.mean gives
    rng = np.random.default_rng(31)
    for n in (4, 5, 6, 12):
        for _ in range(50):
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
            assert kappa_band(y, 1e-8) == 1e-8 * max(1.0, float(np.abs(y).mean()))


def test_four_anchor_verdict_examples():
    rng = np.random.default_rng(29)
    _, bundle = make_bundle(rng, 4)
    assert self_consistency_test(bundle.b, bundle).tag is Verdict.SELF_CONSISTENT
    lifted = self_consistency_test(bundle.b + np.ones(4), bundle)
    assert lifted.tag is Verdict.FAULTY_POSITIVE
    oracle = augmented_edm_check(bundle, bundle.b + np.ones(4))
    assert oracle.is_edm and oracle.dim == 4
    sunk = self_consistency_test(bundle.b - np.ones(4), bundle)
    assert sunk.tag is Verdict.FAULTY_NEGATIVE


def test_four_anchor_verdicts_match_eigenvalue_oracle():
    rng = np.random.default_rng(37)
    tol = 1e-8
    checked = 0
    for _ in range(300):
        _, bundle = make_bundle(rng, 4)
        y = bundle.b + rng.normal(scale=10.0 ** rng.uniform(-4, 1), size=4)
        band = kappa_band(y, tol)
        if abs(kappa(y, bundle)) <= 10.0 * band:
            continue  # stay away from the decision boundary
        verdict = self_consistency_test(y, bundle, tol)
        oracle = augmented_edm_check(bundle, y)
        if verdict.tag is Verdict.SELF_CONSISTENT:
            assert oracle.is_edm and oracle.dim == 3
        elif verdict.tag is Verdict.FAULTY_POSITIVE:
            assert oracle.is_edm and oracle.dim == 4
        else:
            assert not oracle.is_edm
        checked += 1
    assert checked >= 200


def test_self_consistency_on_exact_squares():
    rng = np.random.default_rng(43)
    for n in (4, 5, 6, 9):
        config, bundle = make_bundle(rng, n)
        q = 0.64 * rng.normal(size=3)
        verdict = self_consistency_test(exact_squares_from(config, q), bundle)
        assert verdict.tag is Verdict.SELF_CONSISTENT
        assert verdict.gale_residual <= 1e-8


@pytest.mark.parametrize("offset_m", [0.01, 1.0])
def test_receiver_near_centroid_is_consistent(offset_m):
    """Exact ranges from next to the anchor centroid: y - b is round-off there.

    The verdict must use the same |b|-floored Gale residual as position
    recovery, or it reads that round-off as a structural fault.
    """
    from dataclasses import replace

    from edmpos.harness import generate_scenario, run_pipeline

    for seed in range(100):
        sc = generate_scenario(6, seed=seed)
        direction = np.random.default_rng(seed).normal(size=3)
        receiver = sc.satellites.mean(axis=0) + offset_m * direction / np.linalg.norm(direction)
        sc = replace(sc, true_receiver=receiver,
                     pseudoranges=np.linalg.norm(sc.satellites - receiver, axis=1))
        report = run_pipeline(sc)
        assert report.verdict.tag is Verdict.SELF_CONSISTENT
        assert report.verdict.gale_residual <= 1e-8
        assert np.linalg.norm(report.q - receiver) <= 1e-6


def test_gale_component_dominates():
    rng = np.random.default_rng(47)
    _, bundle = make_bundle(rng, 5)
    w = rng.normal(size=bundle.Z.shape[1])
    w /= np.linalg.norm(w)
    verdict = self_consistency_test(bundle.b + bundle.Z @ w, bundle)
    assert verdict.tag is Verdict.GALE_INFEASIBLE
    assert verdict.gale_residual > 1e-8
    assert not verdict.borderline


def test_constant_offset_has_no_gale_component():
    rng = np.random.default_rng(53)
    _, bundle = make_bundle(rng, 6)
    verdict = self_consistency_test(bundle.b + 0.5 * np.ones(6), bundle)
    assert verdict.tag is Verdict.FAULTY_POSITIVE
    assert verdict.gale_residual <= 1e-12
    assert verdict.kappa == pytest.approx(2.0, rel=1e-12)


def test_borderline_flag():
    # kappa of a constant offset delta is 4*delta, so pick offsets relative
    # to the band accordingly
    rng = np.random.default_rng(59)
    _, bundle = make_bundle(rng, 6)
    band = kappa_band(bundle.b, 1e-8)
    inside = self_consistency_test(bundle.b + 0.1 * band * np.ones(6), bundle)
    assert inside.tag is Verdict.SELF_CONSISTENT
    assert inside.borderline
    just_out = self_consistency_test(bundle.b + band * np.ones(6), bundle)
    assert just_out.tag is Verdict.FAULTY_POSITIVE
    assert just_out.borderline
    far = self_consistency_test(bundle.b + 1e4 * band * np.ones(6), bundle)
    assert far.tag is Verdict.FAULTY_POSITIVE
    assert not far.borderline


def test_verdict_to_dict():
    v = ConsistencyVerdict(1.0, 0.0, Verdict.FAULTY_POSITIVE, 1e-8, False)
    d = v.to_dict()
    assert d["tag"] == "faulty-positive" and d["kappa"] == 1.0


def test_clock_bias_examples():
    rng = np.random.default_rng(61)
    config, bundle = make_bundle(rng, 4)
    d_true = exact_squares_from(config, 0.64 * rng.normal(size=3))
    assert clock_bias_estimate(d_true + 7.0, bundle) == pytest.approx(7.0, rel=1e-9)
    assert abs(clock_bias_estimate(d_true, bundle)) <= 1e-12


def test_clock_bias_random_offsets():
    rng = np.random.default_rng(67)
    for _ in range(50):
        config, bundle = make_bundle(rng, 4)
        d_true = exact_squares_from(config, 0.64 * rng.normal(size=3))
        delta = rng.uniform(-1.0, 1.0)
        est = clock_bias_estimate(d_true + delta, bundle)
        assert abs(est - delta) <= 1e-10 * max(1.0, abs(delta))


def test_clock_bias_rejects_other_sizes():
    rng = np.random.default_rng(71)
    _, bundle = make_bundle(rng, 6)
    with pytest.raises(BadShape):
        clock_bias_estimate(np.ones(6), bundle)
