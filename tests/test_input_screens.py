"""Input screens: the one rank cut on anchor sets, and non-finite or huge inputs.

An anchor set is accepted only if its one factorization finds all r
dimensions in it, so no accepted geometry factors to a lower-rank bundle;
coordinates that are not finite and ranges that are not finite or exceed
MAX_SCALED_RANGE are refused with typed errors before any linear algebra
sees them.
"""

import json

import numpy as np
import pytest

from edmpos.cli import EXIT_BAD_INPUT, EXIT_INFEASIBLE, main
from edmpos.consistency import MAX_SCALED_RANGE, Measurement
from edmpos.edm_core import DEFAULT_RANK_TOL, DEFAULT_SCALE, factor_anchors
from edmpos.errors import BadShape, EdmPosError, SingularGeometry
from edmpos.harness import Scenario, generate_scenario, prepare_scenario, run_pipeline


def squeezed(ratio: float, seed: int = 5) -> Scenario:
    """Six anchors whose smallest centred singular value is ratio times the largest."""
    sc = generate_scenario(6, seed=seed)
    centroid = sc.satellites.mean(axis=0)
    U, s, Vt = np.linalg.svd(sc.satellites - centroid, full_matrices=False)
    s[-1] = ratio * s[0]
    sats = centroid + (U * s) @ Vt
    return Scenario(
        label=f"squeezed-{ratio:.0e}",
        dim=3,
        satellites=sats,
        pseudoranges=np.linalg.norm(sats - sc.true_receiver, axis=1),
        true_receiver=sc.true_receiver,
    )


def test_thin_geometry_is_singular():
    # sigma_r / sigma_1 = 4e-6 squares to 1.6e-11, below the 1e-9 eigenvalue cut
    sc = squeezed(4e-6)
    with pytest.raises(SingularGeometry):
        prepare_scenario(sc)
    with pytest.raises(SingularGeometry):
        run_pipeline(sc)


def test_thin_geometry_exits_infeasible(tmp_path, capsys):
    path = tmp_path / "thin.json"
    squeezed(4e-6).save(path)
    assert main(["solve", str(path)]) == EXIT_INFEASIBLE
    assert main(["check", str(path)]) == EXIT_INFEASIBLE
    assert "error:" in capsys.readouterr().err


def test_accepted_geometry_factors_to_full_rank():
    accepted = rejected = 0
    for seed in (5, 6):
        for ratio in np.logspace(-2, -6, 40):
            sc = squeezed(float(ratio), seed)
            try:
                config, bundle, _ = prepare_scenario(sc)
            except SingularGeometry:
                rejected += 1
                continue
            accepted += 1
            assert bundle.r == config.r, (seed, ratio)
            report = run_pipeline(sc)
            assert np.linalg.norm(report.q - sc.true_receiver) <= 1.0, (seed, ratio)
    # the sweep crosses the cut, near sigma_r / sigma_1 = 3e-5
    assert accepted and rejected


def test_no_accepted_geometry_near_the_cut_is_misfactored():
    # within +-3e-6 relative of the cut, where a rank test and a
    # factorization that round differently would disagree on r
    cut = np.sqrt(DEFAULT_RANK_TOL)
    accepted = rejected = 0
    for seed in range(5, 25):
        for ratio in cut * (1.0 + np.linspace(-3e-6, 3e-6, 301)):
            sc = squeezed(float(ratio), seed)
            try:
                config, bundle, _ = prepare_scenario(sc)
            except SingularGeometry:
                rejected += 1
                continue
            accepted += 1
            assert bundle.r == config.r, (seed, ratio)
            report = run_pipeline(sc)
            assert np.linalg.norm(report.q - sc.true_receiver) <= 1.0, (seed, ratio)
    assert accepted and rejected


def _write(tmp_path, name, satellites, ranges) -> str:
    path = tmp_path / f"{name}.json"
    Scenario(label=name, dim=3, satellites=satellites, pseudoranges=ranges).save(path)
    return str(path)


def _bad_inputs():
    sc = generate_scenario(6, seed=301)
    sats, ranges = sc.satellites, sc.pseudoranges
    out = {}
    for name, value in (("nan-range", np.nan), ("inf-range", np.inf), ("huge-range", 1e200),
                        ("range-1e23", 1e23), ("range-1e84", 1e84), ("range-1e160", 1e160)):
        bad = ranges.copy()
        bad[2] = value
        out[name] = (sats, bad)
    for name, value in (("nan-anchor", np.nan), ("inf-anchor", -np.inf)):
        bad = sats.copy()
        bad[1, 0] = value
        out[name] = (bad, ranges)
    return out


@pytest.mark.parametrize("name", sorted(_bad_inputs()))
@pytest.mark.parametrize("command", ["check", "solve"])
def test_non_finite_input_is_bad_input(tmp_path, capsys, name, command):
    sats, ranges = _bad_inputs()[name]
    path = _write(tmp_path, name, sats, ranges)
    assert main([command, path]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve"])
def test_dim_disagreeing_with_anchors_is_bad_input(tmp_path, capsys, command):
    data = generate_scenario(6, seed=3).to_dict()
    data["dim"] = 2  # the satellites have 3 columns
    with pytest.raises(BadShape):
        Scenario.from_dict(data)
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == EXIT_BAD_INPUT
    assert "dim" in capsys.readouterr().err
    del data["dim"]  # an absent dim is read off the satellites
    assert Scenario.from_dict(data).dim == 3


@pytest.mark.parametrize("name", sorted(_bad_inputs()))
def test_non_finite_input_raises_typed_error(name):
    sats, ranges = _bad_inputs()[name]
    sc = Scenario(label=name, dim=3, satellites=sats, pseudoranges=ranges)
    with pytest.raises((EdmPosError, ValueError)) as info:
        run_pipeline(sc)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("n", [4, 6, 12])
def test_far_ranges_give_a_report_or_a_typed_error(n):
    sc = generate_scenario(n, seed=310 + n)
    direction = np.random.default_rng(n).normal(size=3)
    direction /= np.linalg.norm(direction)
    for exponent in range(8, 161):
        far = 10.0**exponent
        # |p - far * direction|, written so that no square overflows
        ranges = far * np.linalg.norm(sc.satellites / far - direction, axis=1)
        scenario = Scenario(label="far", dim=3, satellites=sc.satellites, pseudoranges=ranges)
        try:
            report = run_pipeline(scenario)
        except (EdmPosError, ValueError):
            assert DEFAULT_SCALE * ranges.max() > MAX_SCALED_RANGE, exponent
            continue
        assert np.isfinite(report.q).all() and np.isfinite(report.y_star).all(), exponent
        assert np.isfinite(report.verdict.kappa), exponent


def test_measurement_refuses_non_finite_ranges():
    good = np.array([3.0e7, 2.5e7, 2.8e7, 3.1e7])
    for value in (np.nan, np.inf, -np.inf, 1e200, -1.0):
        bad = good.copy()
        bad[1] = value
        with pytest.raises(ValueError):
            Measurement.from_ranges(bad, scale=1e-7)
    m = Measurement.from_ranges(good, scale=1e-7)
    assert not m.dm.flags.writeable
    want = (1e-7 * good) ** 2
    assert np.array_equal(m.dm, want)
    good[0] = 1.0  # the measurement keeps its own squares
    assert np.array_equal(m.dm, want)


def test_center_configuration_refuses_non_finite_coordinates():
    pts = generate_scenario(5, seed=302).satellites
    for value in (np.nan, np.inf):
        bad = pts.copy()
        bad[0, 2] = value
        with pytest.raises(BadShape):
            factor_anchors(bad)
