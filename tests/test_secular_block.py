"""solve_qcqp_block against solve_qcqp, lane by lane, and run_batch's routing between them.

A plain block lane must carry solve_qcqp's numbers bit for bit; every other
lane goes to solve_qcqp.  The inputs cover clean, noisy, faulted and offset
measurements, kappas on either side of the band and within round-off of it,
and the kappa > 0 hard case, whose root crawls up on a pole and must be
handed over.
"""

import numpy as np
import pytest

from edmpos import harness
from edmpos.consistency import Measurement, Verdict
from edmpos.edm_core import AnchorStack, factor_anchor_stack
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
            lanes.append((g, Measurement.from_ranges(noisy.pseudoranges, SCALE).dm, "plain"))
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
    for kind in ("clean", "plain", "offset-", "band"):
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


@pytest.mark.parametrize("n", [4, 6, 12])
def test_kappa_within_round_off_of_its_band_is_handed_over(n):
    # choose kappa_tol so that the band lands a relative rel from |kappa|
    stack, lanes = _lanes(n)
    noisy = [(g, y) for g, y, kind in lanes if kind == "plain"]
    Y = np.stack([y for _, y in noisy])
    base = solve_qcqp_block(Y, stack, [g for g, _ in noisy])
    for j, (g, y) in enumerate(noisy):
        for rel in (-1e-9, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-9):
            tol = abs(float(base.kappa[j])) * (1.0 + rel) / max(1.0, float(np.mean(y)))
            block = solve_qcqp_block(y[None], stack, [g], kappa_tol=tol)
            assert bool(block.plain[0]) == (abs(rel) > 1e-12), (j, rel)
            if block.plain[0]:
                _assert_lane_is_scalar(block, 0, y, stack.lane(g), kappa_tol=tol)
                # inside the band the lane short-circuits at lam = 0
                assert (block.iterations[0] == 0) == (rel > 0), (j, rel)
