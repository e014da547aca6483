"""Scenario generation, noise injection, end-to-end pipeline, and batch driver.

Scenario files are JSON, schema ``edmpos-scenario/1``: coordinates in meters,
pseudoranges in meters, row-major satellite array.  Squared quantities are
never serialized; the scaled frame is an internal detail.

Randomness: every stream is a PCG64 generator seeded through
numpy.random.SeedSequence.  Batch instance i uses SeedSequence(seed,
spawn_key=(i,)), so runs with the same seed are reproducible instance by
instance regardless of batch size.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .consistency import (
    DEFAULT_KAPPA_TOL,
    Measurement,
    Verdict,
    clock_bias_estimate,
    squared_ranges,
)
from .edm_core import (
    DEFAULT_SCALE,
    EdmBundle,
    SatelliteConfig,
    _squared_distances,
    augmented_edm_checks,
    factor_anchor_stack,
    factor_anchors,
)
from .errors import BadShape, GeometryRejection, NegativeSquare
from .report import SolveReport
from .solver_general import (
    DEFAULT_SECULAR_TOL,
    nlp_oracle,
    solve_qcqp,
    solve_qcqp_block,
    solve_unconstrained,
)

SCENARIO_SCHEMA = "edmpos-scenario/1"

DEFAULT_SHELL_RADIUS = 2.66e7
DEFAULT_RECEIVER_RADIUS = 6.4e6
DEFAULT_MAX_COND = 1e5
MAX_GEOMETRY_ATTEMPTS = 1000
MAX_NOISE_REDRAWS = 100
# anchor sets whose factorization prepare_scenario keeps; above the few dozen
# fixed geometries a tracking network cycles through, since an LRU bound below
# the cycle length misses on every call
GEOMETRY_MEMO_SIZE = 64
# rows run_batch carries through its stacked stages at a time
BATCH_BLOCK = 1024


@dataclass(frozen=True)
class Scenario:
    """One positioning instance: geometry in meters plus measured pseudoranges.

    true_receiver / true_bias / fault record what was injected, for scoring;
    they are absent from blind inputs.  true_bias and fault deltas are in
    square meters (offsets on the squared pseudoranges).
    """

    label: str
    dim: int
    satellites: np.ndarray
    pseudoranges: np.ndarray
    true_receiver: np.ndarray | None = None
    true_bias: float | None = None
    noise_sigma: float | None = None
    fault: tuple[int, float] | None = None
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.satellites.shape[0]

    def to_dict(self) -> dict:
        out = {
            "schema": SCENARIO_SCHEMA,
            "label": self.label,
            "dim": self.dim,
            "satellites": np.asarray(self.satellites).tolist(),
            "pseudoranges": np.asarray(self.pseudoranges).tolist(),
        }
        if self.true_receiver is not None:
            out["true_receiver"] = np.asarray(self.true_receiver).tolist()
        if self.true_bias is not None:
            out["true_bias"] = self.true_bias
        if self.noise_sigma is not None:
            out["noise_sigma"] = self.noise_sigma
        if self.fault is not None:
            out["fault"] = {"index": self.fault[0], "delta_sq": self.fault[1]}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        schema = data.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise BadShape(f"unsupported scenario schema {schema!r}")
        sats = np.asarray(data["satellites"], dtype=float)
        ranges = np.asarray(data["pseudoranges"], dtype=float)
        if sats.ndim != 2 or ranges.shape != (sats.shape[0],):
            raise BadShape("satellite and pseudorange shapes do not match")
        dim = int(data.get("dim", sats.shape[1]))
        if dim != sats.shape[1]:
            raise BadShape(f"dim {dim} does not match the {sats.shape[1]}-column satellites")
        fault = data.get("fault")
        return cls(
            label=data.get("label", ""),
            dim=dim,
            satellites=sats,
            pseudoranges=ranges,
            true_receiver=(
                np.asarray(data["true_receiver"], dtype=float)
                if "true_receiver" in data
                else None
            ),
            true_bias=data.get("true_bias"),
            noise_sigma=data.get("noise_sigma"),
            fault=(int(fault["index"]), float(fault["delta_sq"])) if fault else None,
            seed=data.get("seed"),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# noise models: all perturb the squared pseudoranges, (rho_m)^2 = rho^2 + eps


@dataclass(frozen=True)
class GaussianSq:
    """Zero-mean Gaussian on each squared pseudorange.

    sigma_m is quoted in meters of equivalent range error; the standard
    deviation applied to anchor i's square is 2 * rho_i * sigma_m.
    """

    sigma_m: float


@dataclass(frozen=True)
class ConstantBias:
    """The same offset (square meters) added to every squared pseudorange."""

    delta_sq: float


@dataclass(frozen=True)
class SingleFault:
    """An offset (square meters) added to one anchor's squared pseudorange."""

    index: int
    delta_sq: float


NoiseModel = GaussianSq | ConstantBias | SingleFault


def generate_scenario(
    n: int,
    r: int = 3,
    *,
    receiver_radius: float = DEFAULT_RECEIVER_RADIUS,
    seed=None,
    rng: np.random.Generator | None = None,
    label: str = "",
) -> Scenario:
    """Random anchors on a spherical shell, receiver in a ball, exact pseudoranges.

    The shell has radius DEFAULT_SHELL_RADIUS.  Geometries whose centered
    coordinate matrix is rank deficient or whose normal matrix condition
    number exceeds DEFAULT_MAX_COND are rejected and redrawn;
    GeometryRejection is raised after MAX_GEOMETRY_ATTEMPTS draws.  This is
    the one-lane case of _generate_scenarios.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    sc = _generate_scenarios(n, r, [rng], [label], receiver_radius)[0]
    if isinstance(sc, GeometryRejection):
        raise sc
    return replace(sc, seed=seed) if isinstance(seed, int) else sc


def _generate_scenarios(
    n: int,
    r: int,
    rngs: list[np.random.Generator],
    labels: list[str],
    receiver_radius: float = DEFAULT_RECEIVER_RADIUS,
) -> list[Scenario | GeometryRejection]:
    """generate_scenario for one generator per lane, screening each draw round with one SVD.

    Every lane draws from its own generator exactly what generate_scenario
    draws, in the same order; a rejected lane draws again in the next round.
    A lane still rejected after MAX_GEOMETRY_ATTEMPTS rounds gets a
    GeometryRejection in place of its scenario.
    """
    if n < r + 1:
        raise BadShape(f"need at least r+1={r + 1} anchors, got {n}")
    lanes = len(rngs)
    sats = np.zeros((lanes, n, r))
    receivers = np.zeros((lanes, r))
    active = list(range(lanes))
    for _ in range(MAX_GEOMETRY_ATTEMPTS):
        if not active:
            break
        draws = np.stack([rngs[k].normal(size=(n, r)) for k in active])
        norms = np.linalg.norm(draws, axis=2)
        drawn = np.flatnonzero((norms != 0.0).all(axis=1))
        shell = DEFAULT_SHELL_RADIUS * draws[drawn] / norms[drawn][:, :, None]
        svals = np.linalg.svd(shell - shell.mean(axis=1, keepdims=True), compute_uv=False)
        screened = {}
        for pos, lane, s in zip(drawn.tolist(), shell, svals.tolist()):
            # the condition cap is the screen; a zero singular value is
            # caught before the division
            if s[r - 1] > 0.0 and not (s[0] / s[r - 1]) ** 2 > DEFAULT_MAX_COND:
                screened[pos] = lane
        retry = []
        for pos, k in enumerate(active):
            if pos not in screened:
                retry.append(k)
                continue
            rng = rngs[k]
            direction = rng.normal(size=r)
            dnorm = np.linalg.norm(direction)
            if dnorm == 0.0:
                retry.append(k)
                continue
            radius = receiver_radius * rng.uniform() ** (1.0 / r)
            sats[k] = screened[pos]
            receivers[k] = radius * direction / dnorm
        active = retry
    ranges = np.linalg.norm(sats - receivers[:, None, :], axis=2)
    failed = set(active)
    return [
        GeometryRejection(f"no acceptable geometry in {MAX_GEOMETRY_ATTEMPTS} attempts")
        if k in failed else
        Scenario(label=labels[k], dim=r, satellites=sats[k], pseudoranges=ranges[k],
                 true_receiver=receivers[k])
        for k in range(lanes)
    ]


def apply_noise(
    sc: Scenario,
    model: NoiseModel,
    *,
    seed=None,
    rng: np.random.Generator | None = None,
    clamp: bool = False,
) -> Scenario:
    """Perturb a scenario's squared pseudoranges according to one noise model.

    A perturbation that drives a square negative is redrawn (Gaussian model)
    or raises NegativeSquare; with clamp=True it is clamped to zero instead.
    """
    squares = np.asarray(sc.pseudoranges, dtype=float) ** 2
    if isinstance(model, GaussianSq):
        if rng is None:
            rng = np.random.default_rng(seed)
        sigma_sq = 2.0 * np.sqrt(squares) * model.sigma_m
        noisy = squares + sigma_sq * rng.standard_normal(squares.shape)
        for _ in range(MAX_NOISE_REDRAWS):
            bad = noisy < 0.0
            if not np.any(bad):
                break
            noisy[bad] = squares[bad] + sigma_sq[bad] * rng.standard_normal(int(bad.sum()))
        record = {"noise_sigma": model.sigma_m}
    elif isinstance(model, ConstantBias):
        noisy = squares + model.delta_sq
        record = {"true_bias": model.delta_sq}
    elif isinstance(model, SingleFault):
        if not 0 <= model.index < squares.shape[0]:
            raise BadShape(f"fault index {model.index} out of range for {squares.shape[0]} anchors")
        noisy = squares.copy()
        noisy[model.index] += model.delta_sq
        record = {"fault": (model.index, model.delta_sq)}
    else:
        raise BadShape(f"unknown noise model {model!r}")
    if np.any(noisy < 0.0):
        if clamp:
            noisy = np.maximum(noisy, 0.0)
        else:
            raise NegativeSquare(
                f"perturbation drove {int((noisy < 0).sum())} squared pseudorange(s) negative; "
                "rerun with clamping enabled to floor them at zero"
            )
    return replace(sc, pseudoranges=np.sqrt(noisy), **record)


@dataclass(frozen=True)
class PipelineOptions:
    scale: float = DEFAULT_SCALE
    kappa_tol: float = DEFAULT_KAPPA_TOL
    secular_tol: float = DEFAULT_SECULAR_TOL
    debias: bool = False


@lru_cache(maxsize=GEOMETRY_MEMO_SIZE)
def _factor_geometry(
    data: bytes, shape: tuple[int, ...], scale: float
) -> tuple[SatelliteConfig, EdmBundle]:
    # prepare_scenario's memo, keyed by the anchors' float64 bytes, so a hit
    # returns exactly what a fresh factorization of the same content would; a
    # geometry that raises is not stored, and every cached array is read-only
    return factor_anchors(np.frombuffer(data).reshape(shape), scale)


def prepare_scenario(
    sc: Scenario, opts: PipelineOptions = PipelineOptions()
) -> tuple[SatelliteConfig, EdmBundle, Measurement]:
    """Center, scale, and factor a scenario; build its measurement.

    The anchor factorization depends only on the anchors and the scale; the
    last GEOMETRY_MEMO_SIZE distinct sets are kept and reused, so repeated
    anchors cost only the per-measurement work.
    """
    raw = np.asarray(sc.satellites, dtype=float)
    config, bundle = _factor_geometry(raw.tobytes(), raw.shape, opts.scale)
    measurement = Measurement.from_ranges(sc.pseudoranges, opts.scale)
    return config, bundle, measurement


def _solver_input(dm, bundle: EdmBundle, opts: PipelineOptions) -> np.ndarray:
    """The vector the solvers see: dm, less the clock bias when debiasing applies.

    run_batch scores the eigenvalue oracle on this same vector, so the
    confusion matrix compares it with a verdict on the vector it describes.
    """
    if not (opts.debias and bundle.n == 4 and bundle.r == 3):
        return dm
    corrected = dm - clock_bias_estimate(dm, bundle)
    if np.any(corrected < 0.0):
        raise NegativeSquare("bias correction drove a squared pseudorange negative")
    return corrected


def _dispatch(
    dm,
    config: SatelliteConfig,
    bundle: EdmBundle,
    method: str,
    opts: PipelineOptions,
    label: str = "",
) -> SolveReport:
    if method == "auto":
        method = "secular"
    if method == "secular":
        return solve_qcqp(
            dm, bundle, opts.secular_tol, kappa_tol=opts.kappa_tol, config=config, label=label
        )
    if method == "unconstrained":
        return solve_unconstrained(
            dm, bundle, kappa_tol=opts.kappa_tol, config=config, label=label
        )
    if method == "nlp":
        return nlp_oracle(dm, config, bundle=bundle, kappa_tol=opts.kappa_tol, label=label)
    raise BadShape(f"unknown method {method!r}")


def run_pipeline(
    sc: Scenario,
    method: str = "auto",
    opts: PipelineOptions = PipelineOptions(),
) -> SolveReport:
    """Scenario in, SolveReport out: center, factor, test, project, position."""
    config, bundle, measurement = prepare_scenario(sc, opts)
    dm = _solver_input(measurement.dm, bundle, opts)
    return _dispatch(dm, config, bundle, method, opts, sc.label)


@dataclass(frozen=True)
class BatchSpec:
    """Description of a simulation batch.

    count is the total number of instances; the grid of anchor counts and
    noise models (None = clean) is assigned round-robin.  timing=True records
    per-row wall time in the CSV, which makes reruns byte-unequal; with the
    default of False the column is written as 0 and equal seeds produce
    byte-identical CSV files.  A row's wall time is its share of the solve:
    for a row solve_qcqp_block returns, that call's time divided evenly over
    the rows it returned; for a row solved alone (handed back by the block,
    or with another method or debiasing), its own solver input and solve.
    """

    count: int
    n: int | tuple[int, ...] = 6
    r: int = 3
    noise: NoiseModel | tuple[NoiseModel | None, ...] | None = None
    seed: int = 0
    method: str = "auto"
    clamp: bool = False
    timing: bool = False
    label_prefix: str = "sim"
    options: PipelineOptions = field(default_factory=PipelineOptions)


CSV_COLUMNS = [
    "label", "n", "kappa", "verdict", "lambda_star",
    "pos_err_m", "iters", "method", "wall_us",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class BatchStats:
    """Aggregates over one batch, including the eigenvalue-oracle confusion counts.

    The confusion matrix compares the kappa-based verdict (faulty means any
    tag other than self-consistent) with the augmented eigenvalue check
    (clean means the extension keeps dimension r).
    """

    count: int
    pos_err_m: dict
    confusion: dict
    mean_iterations: float
    wall_us_per_solve: float
    per_n: dict

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "pos_err_m": self.pos_err_m,
            "confusion": self.confusion,
            "mean_iterations": self.mean_iterations,
            "wall_us_per_solve": self.wall_us_per_solve,
            "per_n": self.per_n,
        }


def _error_stats(errors: list[float]) -> dict:
    if not errors:
        return {"mean": None, "p50": None, "p90": None, "p99": None, "max": None}
    arr = np.asarray(errors)
    p50, p90, p99 = np.percentile(arr, [50, 90, 99]).tolist()
    return {"mean": float(arr.mean()), "p50": p50, "p90": p90, "p99": p99,
            "max": float(arr.max())}


def _confusion_rates(conf: dict) -> dict:
    out = dict(conf)
    detected = conf["tp"] + conf["fn"]
    out["detection_rate"] = conf["tp"] / detected if detected else None
    clean = conf["tn"] + conf["fp"]
    out["false_alarm_rate"] = conf["fp"] / clean if clean else None
    return out


class _Row(NamedTuple):
    """One solved batch row: what its CSV line and the summary read.

    pos_err_m is the fix's distance from the true receiver; wall is in
    seconds (see BatchSpec).
    """

    label: str
    kappa: float
    tag: Verdict
    lambda_star: float | None
    iterations: int
    method: str
    pos_err_m: float
    oracle_faulty: bool
    wall: float


def _run_block(spec: BatchSpec, cells: list, rows: range) -> list[_Row]:
    """The solved rows of one block, in row order.

    Generation, factoring and the eigenvalue oracle run once over all rows
    of one anchor count, and so does the solve with method auto or secular
    and no debiasing: solve_qcqp_block takes the group's rows at once, and
    solve_qcqp (through _dispatch) only the lanes it hands back.  Other
    methods, and debiasing, solve row by row.  The block reads the stacked
    factorization alone; a row gets a configuration and a bundle only when
    it is solved row by row, and the oracle's distance matrices come from
    the solved rows of the stack's P.  Noise, the range screen and
    the solver input stay per row.  oracle_faulty means the oracle does not
    extend the anchors at dimension r with the solver's input vector.  Each
    row draws from its own generator exactly what it would alone.  A row
    that fails skips its later stages, and the block then raises the error
    of the first failing row, as a row-by-row loop would.
    """
    opts = spec.options
    failed: dict[int, Exception] = {}
    rngs = {i: np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
            for i in rows}
    groups: dict[int, list[int]] = {}
    for i in rows:
        groups.setdefault(cells[i % len(cells)][0], []).append(i)

    scenarios: dict[int, Scenario] = {}
    for n, idx in groups.items():
        labels = [f"{spec.label_prefix}-{i:06d}" for i in idx]
        try:
            drawn = _generate_scenarios(n, spec.r, [rngs[i] for i in idx], labels)
        except BadShape as exc:
            drawn = [exc] * len(idx)
        for i, sc in zip(idx, drawn):
            if isinstance(sc, Exception):
                failed[i] = sc
            else:
                scenarios[i] = sc
    for i, sc in scenarios.items():
        model = cells[i % len(cells)][1]
        if model is not None:
            try:
                scenarios[i] = apply_noise(sc, model, rng=rngs[i], clamp=spec.clamp)
            except Exception as exc:
                failed[i] = exc

    in_block = spec.method in ("auto", "secular") and not opts.debias
    done = {}
    for idx in groups.values():
        live = [i for i in idx if i not in failed]
        if not live:
            continue
        try:
            stack = factor_anchor_stack(np.stack([scenarios[i].satellites for i in live]),
                                        opts.scale)
        except BadShape as exc:  # a scale no row can pass
            failed.update((i, exc) for i in live)
            continue
        ready = []  # (row, stack lane, squared ranges)
        for k, i in enumerate(live):
            try:
                if not stack.ok[k]:  # the stacked factorization rejected this row
                    raise stack.lane(k)
                ready.append((i, k, squared_ranges(scenarios[i].pseudoranges, opts.scale)))
            except Exception as exc:
                failed[i] = exc
        if not ready:
            continue
        solved = {}  # row -> (its _Row, oracle verdict pending; the solver input)
        if in_block:
            lanes = [k for _, k, _ in ready]
            t0 = time.perf_counter()
            block = solve_qcqp_block(np.stack([dm for *_, dm in ready]), stack, lanes,
                                     opts.secular_tol, kappa_tol=opts.kappa_tol)
            share = (time.perf_counter() - t0) / max(1, int(block.plain.sum()))
            miss = (block.q / float(opts.scale) + stack.centroid[lanes]
                    - np.stack([scenarios[i].true_receiver for i, *_ in ready]))
            # np.linalg.norm(v) is sqrt(v @ v); the stacked matmul gives each lane's v @ v
            pos_err = np.sqrt((miss[:, None, :] @ miss[:, :, None])[:, 0, 0])
            for (i, _, dm), plain, kappa, tag, lam, iters, err in zip(
                    ready, block.plain.tolist(), block.kappa.tolist(), block.tag,
                    block.lam.tolist(), block.iterations.tolist(), pos_err.tolist()):
                if plain:
                    solved[i] = (_Row(scenarios[i].label, kappa, tag, lam, iters, "secular-gen",
                                      err, False, share), dm)
        for i, k, dm in ready:
            if i in solved:
                continue
            config, bundle = stack.lane(k)
            try:
                t0 = time.perf_counter()
                y = _solver_input(dm, bundle, opts)
                report = _dispatch(y, config, bundle, spec.method, opts)
                wall = time.perf_counter() - t0
            except Exception as exc:
                failed[i] = exc
                continue
            v = report.verdict
            err = float(np.linalg.norm(report.q - scenarios[i].true_receiver))
            solved[i] = (_Row(scenarios[i].label, v.kappa, v.tag, report.lambda_star,
                              report.iterations, report.method, err, False, wall), y)
        order = [(i, k) for i, k, _ in ready if i in solved]
        if order:
            oracles = augmented_edm_checks(_squared_distances(stack.P[[k for _, k in order]]),
                                           np.stack([solved[i][1] for i, _ in order]))
            for (i, _), oracle in zip(order, oracles):
                faulty = not (oracle.is_edm and oracle.dim == spec.r)
                done[i] = solved[i][0]._replace(oracle_faulty=faulty)
    if failed:
        raise failed[min(failed)]
    return [done[i] for i in rows]


def run_batch(spec: BatchSpec, out_path=None) -> BatchStats:
    """Generate, perturb, and solve spec.count instances; write CSV and summary.

    out_path is the CSV destination (None skips writing); the summary JSON
    lands next to it with a .summary.json suffix.  Per-instance randomness is
    split from spec.seed, so reruns reproduce every instance exactly.  Rows
    run in blocks of BATCH_BLOCK (see _run_block); the CSV and the summary
    are those of solving the rows one by one with run_pipeline's steps, and
    a failing row raises before anything is written.
    """
    ns = (spec.n,) if isinstance(spec.n, int) else tuple(spec.n)
    noises = tuple(spec.noise) if isinstance(spec.noise, (list, tuple)) else (spec.noise,)
    cells = [(n, m) for n in ns for m in noises]
    rows = []
    errors_all: list[float] = []
    iters_all: list[int] = []
    wall_all: list[float] = []
    conf = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    per_n: dict[int, dict] = {
        n: {"count": 0, "errors": [], "conf": {"tp": 0, "fp": 0, "tn": 0, "fn": 0}}
        for n in ns
    }

    for start in range(0, spec.count, BATCH_BLOCK):
        block = range(start, min(start + BATCH_BLOCK, spec.count))
        for i, row in zip(block, _run_block(spec, cells, block)):
            n = cells[i % len(cells)][0]
            wall_all.append(row.wall)
            if row.tag is not Verdict.SELF_CONSISTENT:
                key = "tp" if row.oracle_faulty else "fp"
            else:
                key = "fn" if row.oracle_faulty else "tn"
            conf[key] += 1
            per_n[n]["conf"][key] += 1
            per_n[n]["count"] += 1
            iters_all.append(row.iterations)
            errors_all.append(row.pos_err_m)
            per_n[n]["errors"].append(row.pos_err_m)

            rows.append([
                row.label,
                n,
                float(row.kappa),
                row.tag.value,
                float(row.lambda_star) if row.lambda_star is not None else None,
                row.pos_err_m,
                row.iterations,
                row.method,
                int(round(row.wall * 1e6)) if spec.timing else 0,
            ])

    if out_path is not None:
        out_path = Path(out_path)
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])

    stats = BatchStats(
        count=spec.count,
        pos_err_m=_error_stats(errors_all),
        confusion=_confusion_rates(conf),
        mean_iterations=float(np.mean(iters_all)) if iters_all else 0.0,
        wall_us_per_solve=float(np.mean(wall_all) * 1e6) if wall_all else 0.0,
        per_n={
            n: {
                "count": blk["count"],
                "pos_err_m": _error_stats(blk["errors"]),
                "confusion": _confusion_rates(blk["conf"]),
            }
            for n, blk in per_n.items()
        },
    )
    if out_path is not None:
        summary_path = out_path.with_suffix(".summary.json")
        summary_path.write_text(json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")
    return stats
