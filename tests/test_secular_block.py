"""solve_qcqp_block against solve_qcqp, lane by lane, and run_batch's routing between them.

A plain block lane must carry solve_qcqp's numbers bit for bit; every other
lane goes to solve_qcqp.  The inputs cover clean, noisy, faulted and offset
measurements, kappas and Gale residuals on either side of their thresholds
and within round-off of them, and the kappa > 0 hard case, whose root crawls
up on a pole and must be handed over.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from edmpos import consistency, harness, position, solver_general
from edmpos.consistency import Measurement, Verdict, eigen_coordinates, kappa_band
from edmpos.edm_core import AnchorStack, factor_anchor_stack
from edmpos.errors import GaleInfeasible
from edmpos.harness import (
    BatchSpec,
    ConstantBias,
    GaussianSq,
    SingleFault,
    apply_noise,
    generate_scenario,
    run_batch,
)
from edmpos.solver_general import solve_qcqp, solve_qcqp_block

SCALE = 1e-7
GEOMETRIES = 6
HARD_EPS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _lanes(n):
    """(geometry index, scaled input, kind) for every test input, and the anchor stack."""
    rng = np.random.default_rng(4000 + n)
    scenarios = [generate_scenario(n, rng=rng) for _ in range(GEOMETRIES)]
    stack = factor_anchor_stack(np.stack([sc.satellites for sc in scenarios]), SCALE)
    lanes = []
    for g, sc in enumerate(scenarios):
        bundle = stack.lane(g)[1]
        clean = Measurement.from_ranges(sc.pseudoranges, SCALE).dm
        lanes.append((g, clean, "clean"))
        for model in (GaussianSq(2.0), GaussianSq(2.0), SingleFault(g % n, 5e9),
                      SingleFault((g + 1) % n, -5e9), ConstantBias(2e12), ConstantBias(-2e12)):
            noisy = apply_noise(sc, model, rng=rng)
            kind = "noisy" if isinstance(model, GaussianSq) else "plain"
            lanes.append((g, Measurement.from_ranges(noisy.pseudoranges, SCALE).dm, kind))
        # pure offsets: no receiver at all, kappa = +-2
        lanes.append((g, bundle.b - 0.5, "offset-"))
        lanes.append((g, bundle.b + 0.5, "offset+"))
        # a shared offset c puts kappa near 4c: just inside and just outside the band
        band = 1e-8 * max(1.0, float(np.mean(clean)))
        for rel in (-1e-6, 1e-6):
            for sign in (1.0, -1.0):
                lanes.append((g, clean + sign * band * (1.0 + rel) / 4.0, "band"))
        for eps in HARD_EPS:
            lanes.append((g, bundle.b + 30.0 + eps * bundle.P_eigen[:, -1], "hard"))
    return stack, lanes


def _assert_lane_is_scalar(block, j, y, lane, kappa_tol=1e-8):
    config, bundle = lane
    report = solve_qcqp(y, bundle, config=config, kappa_tol=kappa_tol)
    assert report.method == "secular-gen"
    assert _bits(block.kappa[j]) == _bits(report.verdict.kappa)
    assert block.tag[j] is report.verdict.tag
    assert _bits(block.lam[j]) == _bits(report.lambda_star)
    assert block.iterations[j] == report.iterations
    assert _bits(block.y_star[j]) == _bits(report.y_star)
    assert _bits(block.q[j]) == _bits(report.fix.q_centered)


@pytest.mark.parametrize("n", [4, 5, 6, 12])
def test_plain_block_lanes_equal_solve_qcqp_bitwise(n):
    stack, lanes = _lanes(n)
    block = solve_qcqp_block(np.stack([y for _, y, _ in lanes]), stack, [g for g, _, _ in lanes])
    kinds = {}
    for j, (g, y, kind) in enumerate(lanes):
        kinds.setdefault(kind, []).append(bool(block.plain[j]))
        if block.plain[j]:
            _assert_lane_is_scalar(block, j, y, stack.lane(g))
    # everything ordinary stays in the block; the hard case and a kappa > 0
    # pure offset (degenerate) leave it
    for kind in ("clean", "noisy", "plain", "offset-", "band"):
        assert all(kinds[kind]), kind
    for kind in ("offset+", "hard"):
        assert not any(kinds[kind]), kind
    tags = {t for t, p in zip(block.tag, block.plain) if p}
    assert {Verdict.SELF_CONSISTENT, Verdict.FAULTY_POSITIVE, Verdict.FAULTY_NEGATIVE} <= tags
    if n > 4:
        assert Verdict.GALE_INFEASIBLE in tags


def test_batch_calls_solve_qcqp_only_for_handed_lanes(monkeypatch, tmp_path):
    calls, built = [], []
    scalar, lane = harness.solve_qcqp, AnchorStack.lane

    def counted(*args, **kwargs):
        calls.append(1)
        return scalar(*args, **kwargs)

    def counted_lane(stack, k):
        built.append(k)
        return lane(stack, k)

    monkeypatch.setattr(harness, "solve_qcqp", counted)
    monkeypatch.setattr(AnchorStack, "lane", counted_lane)
    spec = BatchSpec(count=600, n=(4, 6, 12), noise=(None, GaussianSq(2.0)), seed=12)
    run_batch(spec, tmp_path / "block.csv")
    assert calls == [] and built == []  # the block reads the stacks alone

    # hand every third lane back: solve_qcqp runs for those alone, only they
    # get a configuration and a bundle, and the rows come out the same
    block_solve = harness.solve_qcqp_block
    handed = []

    def handing(*args, **kwargs):
        block = block_solve(*args, **kwargs)
        plain = block.plain.copy()
        plain[::3] = False
        handed.append(int(np.count_nonzero(~plain)))
        return block._replace(plain=plain)

    monkeypatch.setattr(harness, "solve_qcqp_block", handing)
    run_batch(spec, tmp_path / "handed.csv")
    assert len(handed) == 3 and len(calls) == len(built) == sum(handed)
    assert (tmp_path / "handed.csv").read_bytes() == (tmp_path / "block.csv").read_bytes()


RELS = (-1e-9, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-9)


@pytest.mark.parametrize("n", [4, 6, 12])
def test_kappa_at_its_band_stays_in_the_block_bitwise(n):
    # choose kappa_tol so that the band lands a relative rel from |kappa|
    stack, lanes = _lanes(n)
    noisy = [(g, y) for g, y, kind in lanes if kind in ("noisy", "plain")]
    Y = np.stack([y for _, y in noisy])
    base = solve_qcqp_block(Y, stack, [g for g, _ in noisy])
    for j, (g, y) in enumerate(noisy):
        for rel in RELS:
            tol = abs(float(base.kappa[j])) * (1.0 + rel) / max(1.0, float(np.mean(y)))
            block = solve_qcqp_block(y[None], stack, [g], kappa_tol=tol)
            assert block.plain[0], (j, rel)
            _assert_lane_is_scalar(block, 0, y, stack.lane(g), kappa_tol=tol)
            if rel != 0.0:
                # inside the band the lane short-circuits at lam = 0
                assert (block.iterations[0] == 0) == (rel > 0), (j, rel)


def _set_gale_tol(monkeypatch, tol):
    for module in (consistency, solver_general, position):
        monkeypatch.setattr(module, "DEFAULT_GALE_TOL", tol)


@pytest.mark.parametrize("n", [5, 6, 12])
def test_gale_residual_at_its_threshold_stays_in_the_block_bitwise(n, monkeypatch):
    # DEFAULT_GALE_TOL set a relative rel from the lane's own Gale residual:
    # moving y along Z instead would move the residual by far more than rel
    stack, lanes = _lanes(n)
    seen = set()
    for g, y, kind in lanes:
        if kind != "noisy":
            continue
        residual = eigen_coordinates(y, stack.lane(g)[1]).gale_residual
        for rel in RELS:
            _set_gale_tol(monkeypatch, residual * (1.0 + rel))
            block = solve_qcqp_block(y[None], stack, [g])
            assert block.plain[0], (g, rel)
            _assert_lane_is_scalar(block, 0, y, stack.lane(g))
            seen.add(block.tag[0])
    assert Verdict.GALE_INFEASIBLE in seen and len(seen) > 1


@pytest.mark.parametrize("n", [5, 6, 12])
def test_y_star_gale_check_hands_back_exactly_where_solve_qcqp_raises(n, monkeypatch):
    stack, lanes = _lanes(n)
    noisy = []
    for g, y, kind in lanes:
        if kind == "noisy":
            config, bundle = stack.lane(g)
            y_star = solve_qcqp(y, bundle, config=config).y_star
            noisy.append((g, y, eigen_coordinates(y_star, bundle).gale_residual))
    raised = 0
    for g, y, residual in noisy:
        config, bundle = stack.lane(g)
        for rel in RELS:
            _set_gale_tol(monkeypatch, residual * (1.0 + rel))
            block = solve_qcqp_block(y[None], stack, [g])
            try:
                solve_qcqp(y, bundle, config=config)
            except GaleInfeasible:
                raised += 1
                assert not block.plain[0], (g, rel)
            else:
                assert block.plain[0], (g, rel)
                _assert_lane_is_scalar(block, 0, y, (config, bundle))
    assert raised


@pytest.mark.parametrize("count", [1, 7, 1024])
@pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 12, 16, 33])
def test_block_band_and_gale_residual_are_the_scalar_bits(n, count):
    rng = np.random.default_rng(5000 + n)
    scenarios = [generate_scenario(n, rng=rng) for _ in range(GEOMETRIES)]
    stack = factor_anchor_stack(np.stack([sc.satellites for sc in scenarios]), SCALE)
    lanes = [j % GEOMETRIES for j in range(count)]
    b = stack.b[lanes]
    clean = [Measurement.from_ranges(sc.pseudoranges, SCALE).dm for sc in scenarios]
    rows = []
    for j, g in enumerate(lanes):
        kind = j % 6
        if kind < 4:  # clean, then perturbations from round-off size to gross
            rows.append(clean[g] + (0.0, 1e-6, 1e-2, 10.0)[kind] * rng.standard_normal(n))
        elif kind == 4:  # y = b, so z = 0
            rows.append(b[j])
        else:  # |z| far below GALE_NORM_FLOOR * |b|, which then normalises the residual
            rows.append(b[j] + 1e-12 * rng.standard_normal(n))
    Y = np.stack(rows)
    z = Y - b
    c = solver_general._products(stack.E[lanes], z)
    norm = np.sqrt(solver_general._products(z[:, None, :], z)[:, 0])
    b_norm = np.sqrt(solver_general._products(b[:, None, :], b)[:, 0])
    r = stack.delta.shape[1]
    gale = solver_general._gale_block(c[:, r:-1], norm, b_norm)
    band = solver_general._band_block(Y, 1e-8)
    for j, g in enumerate(lanes):
        bundle = stack.lane(g)[1]
        assert _bits(gale[j]) == _bits(eigen_coordinates(Y[j], bundle).gale_residual), j
        assert _bits(band[j]) == _bits(kappa_band(Y[j], 1e-8)), j
    # with no reference length at all, both read 0
    assert consistency._gale_of([1.0], 0.0, SimpleNamespace(b_norm=0.0)) == 0.0
    assert solver_general._gale_block(np.zeros((1, 2)), np.zeros(1), np.zeros(1))[0] == 0.0
