"""The anchor-geometry memo behind prepare_scenario: hits must be indistinguishable from misses."""

import numpy as np
import pytest

from edmpos import harness
from edmpos.edm_core import factor_anchors
from edmpos.errors import SingularGeometry
from edmpos.harness import (
    GEOMETRY_MEMO_SIZE,
    BatchSpec,
    GaussianSq,
    Scenario,
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


def report_fields(rep):
    return (
        np.asarray(rep.y_star).tobytes(),
        np.asarray(rep.q).tobytes(),
        rep.iterations,
        rep.method,
        rep.lambda_star,
        rep.verdict.to_dict(),
    )


@pytest.mark.parametrize("n", [4, 5, 6, 12])
@pytest.mark.parametrize("noisy", [False, True])
def test_hit_and_miss_reports_are_bitwise_equal(n, noisy):
    sc = generate_scenario(n, seed=600 + n)
    if noisy:
        sc = apply_noise(sc, GaussianSq(2.0), seed=700 + n)
    miss = run_pipeline(sc)
    assert memo.cache_info().misses == 1
    hit = run_pipeline(sc)
    assert memo.cache_info().hits == 1
    assert report_fields(hit) == report_fields(miss)
    memo.cache_clear()
    assert report_fields(run_pipeline(sc)) == report_fields(miss)


def test_cached_geometry_is_shared_and_read_only():
    sc = generate_scenario(4, seed=11)
    config, bundle, _ = prepare_scenario(sc)
    again, bundle_again, _ = prepare_scenario(sc)
    assert again is config and bundle_again is bundle
    arrays = [config.P, config.P_pinv, config.centroid, bundle.D, bundle.b,
              bundle.Z, bundle.P_eigen, bundle.E]
    assert not any(a.flags.writeable for a in arrays)


def test_memo_never_exceeds_its_bound():
    assert memo.cache_info().maxsize == GEOMETRY_MEMO_SIZE
    for seed in range(GEOMETRY_MEMO_SIZE + 8):
        prepare_scenario(generate_scenario(4, seed=seed))
        assert memo.cache_info().currsize <= GEOMETRY_MEMO_SIZE
    assert memo.cache_info().currsize == GEOMETRY_MEMO_SIZE


def test_anchor_array_changed_in_place_is_factored_again():
    sc = generate_scenario(6, seed=21)
    config, bundle, _ = prepare_scenario(sc)
    sc.satellites[2] += 1.0e5
    config2, bundle2, _ = prepare_scenario(sc)
    assert config2 is not config
    fresh_config, fresh_bundle = factor_anchors(sc.satellites)
    assert np.array_equal(config2.P, fresh_config.P)
    assert np.array_equal(bundle2.E, fresh_bundle.E)
    assert not np.array_equal(config2.P, config.P)


def test_rejected_geometry_is_not_stored():
    rng = np.random.default_rng(5)
    flat = np.column_stack([2.0e7 * rng.normal(size=(6, 2)), np.zeros(6)])
    sc = Scenario(label="flat", dim=3, satellites=flat, pseudoranges=np.full(6, 2.0e7))
    for _ in range(2):
        with pytest.raises(SingularGeometry):
            prepare_scenario(sc)
    assert memo.cache_info().currsize == 0


def test_batch_rerun_with_warm_memo_is_byte_identical(tmp_path):
    spec = BatchSpec(count=24, n=(4, 6, 12), noise=(None, GaussianSq(2.0)), seed=31)
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    run_batch(spec, cold)
    hits = memo.cache_info().hits
    run_batch(spec, warm)
    assert memo.cache_info().hits == hits + spec.count
    assert cold.read_bytes() == warm.read_bytes()
