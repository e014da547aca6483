"""run_batch's stacked blocks against the row-by-row loop they replaced.

``reference_run_batch`` is that loop: each row draws its scenario, adds its
noise, goes through prepare_scenario, the solver and the eigenvalue oracle on
its own, and the summary takes each percentile with its own call.  The
stacked run_batch must write the same CSV bytes and the same summary apart
from the wall time, raise the same first error, and make a number of SVD and
eigvalsh calls that does not grow with the row count.  ``_reference_noise`` is
apply_noise's perturbation as a loop over one range vector, which the
stacked noise stage must match draw for draw.
"""

import csv
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from edmpos import edm_core, harness
from edmpos.consistency import Verdict
from edmpos.edm_core import (
    _augmented_eigs,
    _edm_classes,
    _squared_distances,
    augmented_edm_check,
    factor_anchor_stack,
    factor_anchors,
)
from edmpos.errors import BadShape, GeometryRejection, NegativeSquare, SingularGeometry
from edmpos.harness import (
    BATCH_BLOCK,
    CSV_COLUMNS,
    BatchSpec,
    BatchStats,
    ConstantBias,
    GaussianSq,
    PipelineOptions,
    SingleFault,
    apply_noise,
    generate_scenario,
    prepare_scenario,
    run_batch,
    run_pipeline,
)

memo = harness._factor_geometry


@pytest.fixture(autouse=True)
def cold_memo():
    memo.cache_clear()
    yield
    memo.cache_clear()


def _reference_error_stats(errors):
    if not errors:
        return {"mean": None, "p50": None, "p90": None, "p99": None, "max": None}
    arr = np.asarray(errors)
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def _reference_fmt(value) -> str:
    # a CSV cell's text: repr of a float, str of anything else, nothing for None
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_run_batch(spec: BatchSpec, out_path) -> BatchStats:
    """run_batch as a row-by-row loop over the one-scenario functions."""
    ns = (spec.n,) if isinstance(spec.n, int) else tuple(spec.n)
    noises = tuple(spec.noise) if isinstance(spec.noise, (list, tuple)) else (spec.noise,)
    cells = [(n, m) for n in ns for m in noises]
    opts = spec.options
    rows = []
    errors_all, iters_all, wall_all = [], [], []
    conf = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    per_n = {n: {"count": 0, "errors": [], "conf": {"tp": 0, "fp": 0, "tn": 0, "fn": 0}}
             for n in ns}
    for i in range(spec.count):
        n, model = cells[i % len(cells)]
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        sc = generate_scenario(n, spec.r, rng=rng, label=f"{spec.label_prefix}-{i:06d}")
        if model is not None:
            sc = apply_noise(sc, model, rng=rng, clamp=spec.clamp)
        t0 = time.perf_counter()
        config, bundle, measurement = prepare_scenario(sc, opts)
        dm = harness._solver_input(measurement.dm, bundle, opts)
        report = harness._dispatch(dm, config, bundle, spec.method, opts)
        wall_all.append(time.perf_counter() - t0)
        oracle = augmented_edm_check(bundle, dm)
        oracle_faulty = not (oracle.is_edm and oracle.dim == bundle.r)
        if report.verdict.tag is not Verdict.SELF_CONSISTENT:
            key = "tp" if oracle_faulty else "fp"
        else:
            key = "fn" if oracle_faulty else "tn"
        conf[key] += 1
        per_n[n]["conf"][key] += 1
        per_n[n]["count"] += 1
        iters_all.append(report.iterations)
        pos_err = float(np.linalg.norm(report.q - sc.true_receiver))
        errors_all.append(pos_err)
        per_n[n]["errors"].append(pos_err)
        rows.append([sc.label, n, float(report.verdict.kappa), report.verdict.tag.value,
                     float(report.lambda_star) if report.lambda_star is not None else None,
                     pos_err, report.iterations, report.method, 0])
    out_path = Path(out_path)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_reference_fmt(v) for v in row])
    stats = BatchStats(
        count=spec.count,
        pos_err_m=_reference_error_stats(errors_all),
        confusion=harness._confusion_rates(conf),
        mean_iterations=float(np.mean(iters_all)) if iters_all else 0.0,
        wall_us_per_solve=float(np.mean(wall_all) * 1e6) if wall_all else 0.0,
        per_n={n: {"count": blk["count"], "pos_err_m": _reference_error_stats(blk["errors"]),
                   "confusion": harness._confusion_rates(blk["conf"])}
               for n, blk in per_n.items()},
    )
    out_path.with_suffix(".summary.json").write_text(
        json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")
    return stats


MIXED = (None, GaussianSq(2.0), ConstantBias(1.0e10), SingleFault(1, -1.0e15))

SWEEP = {
    "count0": BatchSpec(count=0, n=(4, 5, 6, 12), noise=MIXED, clamp=True, seed=1),
    "count1": BatchSpec(count=1, n=(4, 5, 6, 12), noise=MIXED, clamp=True, seed=2),
    "count7": BatchSpec(count=7, n=(4, 5, 6, 12), noise=MIXED, clamp=True, seed=3),
    "count60": BatchSpec(count=60, n=(4, 5, 6, 12), noise=MIXED, clamp=True, seed=4),
    "over-block": BatchSpec(count=BATCH_BLOCK + 1, n=(6, 4), noise=(None, GaussianSq(2.0)),
                            seed=5),
    "n4-clean": BatchSpec(count=24, n=(4,), seed=6),
    "n4-6-12-clean-gauss": BatchSpec(count=600, n=(4, 6, 12), noise=(None, GaussianSq(2.0)),
                                     seed=12),
    "n6-4-gauss": BatchSpec(count=24, n=(6, 4), noise=GaussianSq(2.0), seed=7),
    "n4-debias": BatchSpec(count=24, n=(4,), noise=(ConstantBias(2.0e12), GaussianSq(2.0)),
                           seed=8, options=PipelineOptions(debias=True)),
    "unconstrained": BatchSpec(count=32, n=(4, 5, 6, 12), noise=MIXED, clamp=True, seed=9,
                               method="unconstrained"),
    # 2e7 m of noise on ~2e7 m ranges drives about a quarter of the squares
    # negative, so rows redraw, some for several rounds
    "gauss-redraw": BatchSpec(count=60, n=(4, 6, 12), noise=(None, GaussianSq(2.0e7)),
                              clamp=True, seed=14),
}


def _summary(path: Path) -> dict:
    data = json.loads(path.with_suffix(".summary.json").read_text())
    data.pop("wall_us_per_solve")
    return data


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_stacked_batch_matches_row_by_row_reference(tmp_path, name):
    spec = SWEEP[name]
    stacked, reference = tmp_path / "stacked.csv", tmp_path / "reference.csv"
    run_batch(spec, stacked)
    memo.cache_clear()
    reference_run_batch(spec, reference)
    assert stacked.read_bytes() == reference.read_bytes()
    assert _summary(stacked) == _summary(reference)


def test_redraw_spec_draws_negative_squares():
    # the first normal of a noisy row that leaves a square negative is redrawn
    spec = SWEEP["gauss-redraw"]
    sigma = spec.noise[1].sigma_m
    redrawn = 0
    for i in range(1, spec.count, 2):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        rho = generate_scenario(spec.n[(i // 2) % 3], rng=rng).pseudoranges
        redrawn += bool(np.any(rho**2 + 2.0 * rho * sigma * rng.standard_normal(rho.shape) < 0))
    assert redrawn >= 10


def _reference_noise(ranges, model, rng, clamp):
    """apply_noise's perturbation as a loop over one range vector: ranges, or the error."""
    squares = np.asarray(ranges, dtype=float) ** 2
    if isinstance(model, GaussianSq):
        sigma_sq = 2.0 * np.sqrt(squares) * model.sigma_m
        noisy = squares + sigma_sq * rng.standard_normal(squares.shape)
        for _ in range(harness.MAX_NOISE_REDRAWS):
            bad = noisy < 0.0
            if not np.any(bad):
                break
            noisy[bad] = squares[bad] + sigma_sq[bad] * rng.standard_normal(int(bad.sum()))
    elif isinstance(model, ConstantBias):
        noisy = squares + model.delta_sq
    else:
        noisy = squares.copy()
        noisy[model.index] += model.delta_sq
    if np.any(noisy < 0.0):
        if not clamp:
            return NegativeSquare(
                f"perturbation drove {int((noisy < 0).sum())} squared pseudorange(s) negative; "
                "rerun with clamping enabled to floor them at zero")
        noisy = np.maximum(noisy, 0.0)
    return np.sqrt(noisy)


@pytest.mark.parametrize("model", [GaussianSq(2.0e7), ConstantBias(-6.0e14),
                                   SingleFault(2, -6.0e14)], ids=["gauss", "bias", "fault"])
def test_apply_noise_draws_what_the_row_loop_draws(model):
    # each model leaves some squares negative: the Gaussian redraws them,
    # and the offsets clamp or raise
    outcomes = set()
    for seed in range(200):
        sc = generate_scenario(6, seed=seed)
        for clamp in (False, True):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = _reference_noise(sc.pseudoranges, model, loop_rng, clamp)
            try:
                got = apply_noise(sc, model, rng=rng, clamp=clamp).pseudoranges
            except NegativeSquare as exc:
                assert str(exc) == str(expected)
                outcomes.add("raised")
            else:
                assert got.tobytes() == expected.tobytes()
                outcomes.add("clamped" if 0.0 in got else "kept")
            assert rng.normal() == loop_rng.normal()
    assert outcomes == ({"kept"} if isinstance(model, GaussianSq)
                        else {"kept", "raised", "clamped"})


@pytest.mark.parametrize("ns, fault, error", [
    # row 1 takes the fault at n = ns[0] and row 3 at ns[1]: at index 5 it is a
    # negative square for n=6 and out of range for n=4; at index 4 an infinite
    # range fails the range screen for n=6
    ((6, 4), SingleFault(5, -1e20), NegativeSquare),
    ((4, 6), SingleFault(5, -1e20), BadShape),
    ((6, 4), SingleFault(4, np.inf), ValueError),
    ((4, 6), SingleFault(4, np.inf), BadShape),
    ((4, 3), None, BadShape),
    # 1e9 m of noise leaves squares negative after the one redraw allowed here
    ((6, 4), GaussianSq(1.0e9), NegativeSquare),
])
def test_first_failing_row_raises_whatever_the_grouping(tmp_path, monkeypatch, ns, fault, error):
    monkeypatch.setattr(harness, "MAX_NOISE_REDRAWS", 1)
    spec = BatchSpec(count=8, n=ns, noise=(None, fault), seed=3)
    out = tmp_path / "failed.csv"
    with pytest.raises(error) as expected:
        reference_run_batch(spec, tmp_path / "reference.csv")
    with pytest.raises(error) as raised:
        run_batch(spec, out)
    assert str(raised.value) == str(expected.value)
    assert not out.exists()
    assert not out.with_suffix(".summary.json").exists()


def test_rows_out_of_geometry_attempts_raise_geometry_rejection(tmp_path, monkeypatch):
    # a tight condition cap leaves rows 0, 6, 9, 18, 19 and 21 without a
    # geometry; their zero-filled lanes are factored with the rest, and the
    # rank cut's SingularGeometry for them never replaces the draw's error
    monkeypatch.setattr(harness, "DEFAULT_MAX_COND", 8.0)
    monkeypatch.setattr(harness, "MAX_GEOMETRY_ATTEMPTS", 4)
    spec = BatchSpec(count=24, n=(4, 6, 12), noise=(None, GaussianSq(2.0)), seed=0)
    with pytest.raises(GeometryRejection) as expected:
        reference_run_batch(spec, tmp_path / "reference.csv")
    stacks = []

    def recorded(raw, scale):
        stacks.append(factor_anchor_stack(raw, scale))
        return stacks[-1]

    monkeypatch.setattr(harness, "factor_anchor_stack", recorded)
    out = tmp_path / "failed.csv"
    with pytest.raises(GeometryRejection) as raised:
        run_batch(spec, out)
    assert str(raised.value) == str(expected.value)
    assert not out.exists()
    assert not out.with_suffix(".summary.json").exists()
    zero = [(stack, k) for stack in stacks for k in range(len(stack.ok)) if not stack.P[k].any()]
    assert len(zero) == 6
    assert all(isinstance(stack.lane(k), SingularGeometry) for stack, k in zero)


def test_linalg_calls_do_not_grow_with_the_row_count(monkeypatch):
    calls = {"screen": 0, "factor": 0, "eigvalsh": 0}
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counted_svd(a, *args, **kwargs):
        calls["factor" if kwargs.get("compute_uv", True) else "screen"] += 1
        return svd(a, *args, **kwargs)

    def counted_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    seen = {}
    for count in (60, 600):
        memo.cache_clear()
        calls.update(screen=0, factor=0, eigvalsh=0)
        run_batch(BatchSpec(count=count, n=(4, 6, 12), noise=(None, GaussianSq(2.0)), seed=11))
        seen[count] = dict(calls)
    for count, got in seen.items():
        # one factorization and one oracle eigvalsh per anchor count; one screen per
        # draw round, and a redrawn lane costs a round for its whole group
        assert got["factor"] == 3 and got["eigvalsh"] == 3, (count, got)
        assert 3 <= got["screen"] <= 6, (count, got)


def test_row_stages_run_once_per_group_not_per_row(monkeypatch):
    calls = {"_perturbed": 0, "squared_range_rows": 0, "norm": 0, "screen": 0, "EdmClass": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_perturbed", "squared_range_rows"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        calls["screen"] += not kwargs.get("compute_uv", True)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(edm_core.EdmClass, "__init__",
                        counted("EdmClass", edm_core.EdmClass.__init__))
    noise = (None, GaussianSq(2.0), ConstantBias(1.0e10))
    for count in (60, 600):
        memo.cache_clear()
        calls.update(dict.fromkeys(calls, 0))
        run_batch(BatchSpec(count=count, n=(4, 6, 12), noise=noise, seed=11))
        # noise once per (anchor count, noise model), the range screen once
        # per anchor count, one norm per draw round, and no EdmClass per row
        assert calls["_perturbed"] == 6 and calls["squared_range_rows"] == 3, (count, calls)
        assert calls["norm"] == calls["screen"] >= 3 and calls["EdmClass"] == 0, (count, calls)


def test_noisy_batch_builds_no_scenario_and_applies_noise_to_arrays(monkeypatch):
    # rows stay in the arrays they are drawn into: no Scenario per row, and
    # noise reaches them without apply_noise's per-row Scenario copy
    calls = {"Scenario": 0, "apply_noise": 0, "replace": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(dataclasses, "replace", counted("replace", dataclasses.replace))
    spec = BatchSpec(count=600, n=(4, 6, 12), seed=13,
                     noise=(None, GaussianSq(2.0), ConstantBias(1.0e10), SingleFault(1, 5.0e12)))
    stats = run_batch(spec)
    assert stats.count == 600 and sum(blk["count"] for blk in stats.per_n.values()) == 600
    assert calls == {"Scenario": 0, "apply_noise": 0, "replace": 0}


@pytest.mark.parametrize("r", [2, 3])
def test_stacked_factorization_lanes_equal_factor_anchors(r):
    rng = np.random.default_rng(17)
    for n in sorted({r + 1, 4, 5, 6, 12}):
        pts = rng.normal(size=(40, n, r))
        raw = 2.66e7 * pts / np.linalg.norm(pts, axis=2)[:, :, None]
        raw[9, :, -1] = 1.0e6     # flat: the anchors span r - 1 dimensions
        stack = factor_anchor_stack(raw)
        for k in range(len(raw)):
            lane = stack.lane(k)
            if k == 9:
                assert isinstance(lane, SingularGeometry)
                with pytest.raises(SingularGeometry):
                    factor_anchors(raw[k])
                continue
            (config, bundle), (c1, b1) = lane, factor_anchors(raw[k])
            assert "D" not in vars(bundle)  # built on first read only
            for a, b in ((config.P, c1.P), (config.centroid, c1.centroid),
                         (config.P_pinv, c1.P_pinv), (bundle.D, b1.D), (bundle.b, b1.b),
                         (bundle.Z, b1.Z), (bundle.delta, b1.delta),
                         (bundle.P_eigen, b1.P_eigen), (bundle.E, b1.E),
                         (bundle.D, _squared_distances(config.P[None])[0])):
                assert a.tobytes() == b.tobytes() and not a.flags.writeable
            assert (bundle.delta_sq, bundle.b_norm) == (b1.delta_sq, b1.b_norm)
            assert bundle.b_norm == float(np.linalg.norm(bundle.b))
            assert bundle.D is bundle.D and (bundle.n, bundle.r) == (n, r)
            D = np.stack([bundle.D, bundle.D])
            y = bundle.b + 1e-3 * rng.normal(size=(2, n))
            assert _edm_classes(_augmented_eigs(D, y)) == [augmented_edm_check(bundle, v)
                                                           for v in y]
        raw[7, 2, 1] = np.nan
        with pytest.raises(BadShape):  # one non-finite coordinate fails the whole stack
            factor_anchor_stack(raw)


def test_fresh_geometry_pipeline_builds_no_distance_matrix(monkeypatch):
    calls = []
    squared_distances = edm_core._squared_distances

    def counted(P):
        calls.append(P.shape)
        return squared_distances(P)

    monkeypatch.setattr(edm_core, "_squared_distances", counted)
    monkeypatch.setattr(harness, "_squared_distances", counted)
    for n in (4, 5, 6, 12):
        sc = apply_noise(generate_scenario(n, seed=40 + n), GaussianSq(2.0), seed=50 + n)
        run_pipeline(sc)
        assert calls == [], n
        _, bundle, _ = prepare_scenario(sc)
        assert bundle.D is bundle.D and calls == [(1, n, 3)]  # built once, on first read
        calls.clear()


@pytest.mark.parametrize("max_cond, attempts", [(harness.DEFAULT_MAX_COND, 1000), (8.0, 4)])
def test_stacked_generation_lanes_equal_generate_scenario(monkeypatch, max_cond, attempts):
    # a tight condition cap makes most lanes draw again, and a few run out of attempts
    monkeypatch.setattr(harness, "DEFAULT_MAX_COND", max_cond)
    monkeypatch.setattr(harness, "MAX_GEOMETRY_ATTEMPTS", attempts)
    outcomes = set()
    for n in (4, 6, 12):
        rngs = [np.random.default_rng(np.random.SeedSequence(23, spawn_key=(i,)))
                for i in range(300)]
        sats, receivers, ranges, drawn = harness._draw_geometries(n, 3, rngs)
        assert sats.shape == (300, n, 3) and receivers.shape == (300, 3)
        assert ranges.shape == (300, n) and drawn.dtype == bool
        for i, ok in enumerate(drawn.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence(23, spawn_key=(i,)))
            if not ok:
                outcomes.add("rejected")
                with pytest.raises(GeometryRejection):
                    generate_scenario(n, rng=rng, label="x")
            else:
                outcomes.add("drawn")
                alone = generate_scenario(n, rng=rng, label="x")
                assert sats[i].tobytes() == alone.satellites.tobytes()
                assert ranges[i].tobytes() == alone.pseudoranges.tobytes()
                assert receivers[i].tobytes() == alone.true_receiver.tobytes()
            # both generators are left in the same state
            assert rngs[i].normal() == rng.normal()
    assert outcomes == ({"drawn", "rejected"} if attempts < 1000 else {"drawn"})
