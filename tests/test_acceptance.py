"""Release acceptance suite: one test per gate, one printed PASS/FAIL line each.

The print goes through capsys.disabled() so the gate status shows up in a
plain pytest run without -s.
"""

import time
from contextlib import contextmanager

import numpy as np

from edmpos.consistency import (
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
from edmpos.errors import SingularGeometry
from edmpos.harness import (
    BatchSpec,
    ConstantBias,
    GaussianSq,
    PipelineOptions,
    Scenario,
    SingleFault,
    apply_noise,
    generate_scenario,
    prepare_scenario,
    run_batch,
    run_pipeline,
)
from edmpos.solver_general import (
    _quartic_pieces,
    build_secular_general,
    eval_f,
    multiplier_bracket,
    nlp_oracle,
    solve_qcqp,
    solve_unconstrained,
)

SCALE = 1e-7


@contextmanager
def gate(capsys, num, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num}] FAIL - {text}")
        raise
    with capsys.disabled():
        print(f"[criterion {num}] PASS - {text}")


def make_instance(rng, n, radius=2.66e7):
    while True:
        pts = rng.normal(size=(n, 3))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            config = factor_anchors(pts, SCALE)[0]
        except SingularGeometry:
            continue
        svals = np.linalg.svd(config.P, compute_uv=False)
        if (svals[0] / svals[-1]) ** 2 > 1e6:
            continue
        return config, factor_edm(build_edm(config))


def exact_squares(config, q_centered):
    diff = config.P - q_centered
    return np.einsum("ij,ij->i", diff, diff)


def faulty_measurement(rng, config, bundle, scale=0.2):
    while True:
        y = exact_squares(config, 0.64 * rng.normal(size=3))
        dm = y + rng.normal(scale=scale, size=bundle.n)
        if np.all(dm > 0.0) and abs(kappa(dm, bundle)) > 100.0 * kappa_band(dm):
            return dm


def test_criterion_1_fault_tags_match_eigenvalue_oracle(capsys):
    with gate(capsys, 1, "three-way tag matches the eigenvalue oracle on 1000/1000 "
                         "four-anchor instances in under 5 s"):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        checked = 0
        positives = negatives = 0
        while checked < 1000:
            _, bundle = make_instance(rng, 4)
            direction = rng.normal(size=4)
            direction /= np.linalg.norm(direction)
            amplitude = 10.0 ** rng.uniform(-4.0, 0.0)
            y = bundle.b + amplitude * direction
            if np.any(y < 0.0):
                continue
            if abs(kappa(y, bundle)) <= 10.0 * kappa_band(y):
                continue
            verdict = self_consistency_test(y, bundle)
            check = augmented_edm_check(bundle, y)
            if check.is_edm and check.dim == 3:
                expected = Verdict.SELF_CONSISTENT
            elif check.is_edm and check.dim == 4:
                expected = Verdict.FAULTY_POSITIVE
            else:
                expected = Verdict.FAULTY_NEGATIVE
            assert verdict.tag is expected
            positives += expected is Verdict.FAULTY_POSITIVE
            negatives += expected is Verdict.FAULTY_NEGATIVE
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert positives >= 100 and negatives >= 100


def test_criterion_2_exact_round_trip(capsys):
    with gate(capsys, 2, "exact measurements: projection within 1e-9 relative, "
                         "position within 1e-6 m, for 4 to 10 anchors"):
        rng = np.random.default_rng(1002)
        for n in (4, 5, 6, 8, 10):
            for _ in range(200):
                sc = generate_scenario(n, rng=rng)
                report = run_pipeline(sc)
                dm = Measurement.from_ranges(sc.pseudoranges, SCALE).dm
                rel = np.linalg.norm(report.y_star - dm) / np.linalg.norm(dm)
                assert rel <= 1e-9
                assert np.linalg.norm(report.q - sc.true_receiver) <= 1e-6


def test_criterion_3_clock_bias_identity(capsys):
    with gate(capsys, 3, "shared clock offset recovered from quarter-kappa to "
                         "1e-9 relative on 500 instances"):
        rng = np.random.default_rng(1003)
        opts = PipelineOptions()
        for i in range(500):
            sc = generate_scenario(4, rng=rng)
            # microsecond-to-millisecond clock offsets; squared-domain floor from
            # the meter round trip is ~0.1 m^2, far below the smallest draw
            delta_sq = float(10.0 ** rng.uniform(12.0, 14.0))
            if i % 2:
                delta_sq = -delta_sq
            biased = apply_noise(sc, ConstantBias(delta_sq))
            _, bundle, measurement = prepare_scenario(biased, opts)
            estimate = clock_bias_estimate(measurement.dm, bundle)
            expected = delta_sq * opts.scale**2
            assert abs(estimate - expected) <= 1e-9 * abs(expected)


def test_criterion_4_secular_equation_correctness(capsys):
    with gate(capsys, 4, "secular functions anchored at -kappa, roots strictly "
                         "bracketed, residuals within 1e-12 of level scale"):
        rng = np.random.default_rng(1004)
        for n in (4, 6):
            for _ in range(150):
                config, bundle = make_instance(rng, n)
                dm = faulty_measurement(rng, config, bundle)
                sp = build_secular_general(dm, bundle)
                if sp.degenerate:
                    continue
                assert abs(eval_f(sp, 0.0) + sp.kappa_dm) <= 1e-10 * abs(sp.kappa_dm)
                report = solve_qcqp(dm, bundle, config=config)
                lo, hi = multiplier_bracket(sp)
                lam = report.lambda_star
                assert lo < lam < hi
                assert abs(eval_f(sp, lam)) <= 1e-12 * max(1.0, abs(sp.hprime))
                assert lam < sp.nu[-1]


def test_criterion_5_cross_solver_equivalence(capsys):
    with gate(capsys, 5, "secular, quartic-descent, and least-squares solvers agree "
                         "to 1e-5 m and 1e-6 relative objective on 500 noisy instances"):
        rng = np.random.default_rng(1005)
        ns = (5, 6, 8, 10)
        for i in range(500):
            n = ns[i % len(ns)]
            sc = generate_scenario(n, rng=rng)
            frac = rng.uniform(0.0005, 0.01)
            sigma_m = frac * float(np.mean(sc.pseudoranges))
            noisy = apply_noise(sc, GaussianSq(sigma_m), rng=rng)
            config, bundle, measurement = prepare_scenario(noisy)
            dm = measurement.dm
            reports = [
                solve_qcqp(dm, bundle, config=config),
                solve_unconstrained(dm, bundle, config=config),
                nlp_oracle(dm, config, bundle=bundle),
            ]
            assert all(rep.converged for rep in reports)
            qs = [rep.q for rep in reports]
            objs = [rep.objective for rep in reports]
            for a in range(3):
                for b in range(a + 1, 3):
                    assert np.linalg.norm(qs[a] - qs[b]) <= 1e-5
                    assert abs(objs[a] - objs[b]) <= 1e-6 * max(objs[a], objs[b])


def test_criterion_6_projection_feasibility(capsys):
    with gate(capsys, 6, "every projection is null-space clean, kappa-flat, and "
                         "extends the distance matrix at dimension 3"):
        rng = np.random.default_rng(1006)
        ns = (4, 5, 6, 8)
        models = (None, SingleFault(0, 3.0e12), GaussianSq(30.0))
        for i in range(150):
            n = ns[i % len(ns)]
            sc = generate_scenario(n, rng=rng)
            model = models[i % len(models)]
            if model is not None:
                sc = apply_noise(sc, model, rng=rng)
            report = run_pipeline(sc)
            config, bundle, _ = prepare_scenario(sc)
            y_star = report.y_star
            if bundle.Z.shape[1] > 0:
                assert np.abs(bundle.Z.T @ (y_star - bundle.b)).max() <= 1e-9
            assert abs(kappa(y_star, bundle)) <= kappa_band(y_star, 1e-9)
            check = augmented_edm_check(bundle, y_star)
            assert check.is_edm and check.dim == 3


def test_criterion_7_position_identities(capsys):
    with gate(capsys, 7, "position fix satisfies its defining linear identities "
                         "and rotates with the frame to 1e-9"):
        rng = np.random.default_rng(1007)
        for i in range(200):
            n = (4, 6, 8)[i % 3]
            sc = generate_scenario(n, rng=rng)
            if i % 2:
                sc = apply_noise(sc, GaussianSq(10.0), rng=rng)
            report = run_pipeline(sc)
            config, bundle, _ = prepare_scenario(sc)
            fix = report.fix
            q = fix.q_centered
            lhs = 2.0 * config.P @ q
            rhs = float(q @ q) * np.ones(n) + bundle.b - report.y_star
            assert np.abs(lhs - rhs).max() <= 1e-8
            assert abs(fix.qtq_direct - float(np.mean(report.y_star - bundle.b))) <= 1e-8
        for _ in range(20):
            sc = generate_scenario(6, rng=rng)
            sc = apply_noise(sc, GaussianSq(5.0), rng=rng)
            R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(R) < 0.0:
                R[:, 0] = -R[:, 0]
            rotated = Scenario(
                label=sc.label,
                dim=3,
                satellites=sc.satellites @ R.T,
                pseudoranges=sc.pseudoranges,
            )
            q_base = run_pipeline(sc).q
            q_rot = run_pipeline(rotated).q
            err = np.linalg.norm(q_rot - R @ q_base)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(q_base))


def test_criterion_8_gradient_check(capsys):
    with gate(capsys, 8, "quartic gradient matches central differences to 1e-6 "
                         "at 100 points per measurement class"):
        rng = np.random.default_rng(1008)
        config, bundle = make_instance(rng, 6)
        classes = {}
        classes["clean"] = exact_squares(config, 0.64 * rng.normal(size=3))
        while "positive" not in classes or "negative" not in classes:
            dm = faulty_measurement(rng, config, bundle)
            key = "positive" if kappa(dm, bundle) > 0.0 else "negative"
            classes.setdefault(key, dm)
        h = 1e-6
        for dm in classes.values():
            sp = build_secular_general(dm, bundle)
            value, grad, _ = _quartic_pieces(sp)
            for _ in range(100):
                x = rng.normal(size=3)
                g = grad(x)
                for k in range(3):
                    step = np.zeros(3)
                    step[k] = h
                    fd = (value(x + step) - value(x - step)) / (2.0 * h)
                    assert abs(g[k] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_criterion_9_determinism_and_performance(tmp_path, capsys):
    with gate(capsys, 9, "10,000-instance batch completes in under 10 s with "
                         "byte-identical CSV reruns"):
        run_batch(BatchSpec(count=50, n=6, seed=41), None)  # warm caches
        spec = BatchSpec(count=10000, n=6, seed=41)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        t0 = time.perf_counter()
        stats = run_batch(spec, first)
        elapsed = time.perf_counter() - t0
        run_batch(spec, second)
        assert elapsed < 10.0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_text().splitlines()) == 10001
        assert stats.pos_err_m["p50"] <= 1e-6
