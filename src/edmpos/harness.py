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
from dataclasses import asdict, dataclass, field, replace
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
    the one-lane case of _draw_geometries.  An integer seed (Python or numpy)
    is recorded as a Python int.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    sats, receivers, ranges, drawn = _draw_geometries(n, r, [rng], receiver_radius)
    if not drawn[0]:
        raise _rejection()
    return Scenario(label=label, dim=r, satellites=sats[0], pseudoranges=ranges[0],
                    true_receiver=receivers[0],
                    seed=int(seed) if isinstance(seed, (int, np.integer)) else None)


def _rejection() -> GeometryRejection:
    return GeometryRejection(f"no acceptable geometry in {MAX_GEOMETRY_ATTEMPTS} attempts")


def _draw_geometries(
    n: int,
    r: int,
    rngs: list[np.random.Generator],
    receiver_radius: float = DEFAULT_RECEIVER_RADIUS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """generate_scenario's draw for one generator per lane, screening each round with one SVD.

    Returns the (B, n, r) satellites, (B, r) receivers, (B, n) exact ranges
    and the (B,) mask of lanes that drew an accepted geometry.  Every lane
    draws from its own generator exactly what generate_scenario draws, in
    the same order; a rejected lane draws again in the next round, and a lane
    still rejected after MAX_GEOMETRY_ATTEMPTS rounds is left out of the mask.
    """
    if r < 1:
        raise BadShape(f"expected a 2-D point array of r >= 1 columns, got shape {(n, r)}")
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
        usable = np.flatnonzero((norms != 0.0).all(axis=1))
        shell = DEFAULT_SHELL_RADIUS * draws[usable] / norms[usable][:, :, None]
        svals = np.linalg.svd(shell - shell.mean(axis=1, keepdims=True), compute_uv=False)
        screened = {}
        for pos, lane, s in zip(usable.tolist(), shell, svals.tolist()):
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
    drawn = np.ones(lanes, dtype=bool)
    drawn[active] = False
    return sats, receivers, ranges, drawn


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
    if rng is None and isinstance(model, GaussianSq):
        rng = np.random.default_rng(seed)
    ranges, record = _perturbed(sc.pseudoranges, model, rng, clamp)
    return replace(sc, pseudoranges=ranges, **record)


def _perturbed(ranges, model: NoiseModel, rng: np.random.Generator | None,
               clamp: bool) -> tuple[np.ndarray, dict]:
    """apply_noise on a range vector: the perturbed ranges and the Scenario fields to record."""
    squares = np.asarray(ranges, dtype=float) ** 2
    if isinstance(model, GaussianSq):
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
    return np.sqrt(noisy), record


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
        return asdict(self)


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
    n: int
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

    The rows of one anchor count stay in the arrays _draw_geometries draws
    for them, and generation, factoring and the eigenvalue oracle run once
    over each such group.  So does the solve with method auto or secular and
    no debiasing: solve_qcqp_block takes the group's rows at once, and
    solve_qcqp (through _dispatch) only the lanes it hands back.  Other
    methods, and debiasing, solve row by row.  The block reads the stacked
    factorization alone; a row gets a configuration and a bundle only when
    it is solved row by row, and the oracle's distance matrices come from
    the solved rows of the stack's P.  Noise (_perturbed), the range screen
    and the solver input stay per row.  oracle_faulty means the oracle does
    not extend the anchors at dimension r with the solver's input vector.
    Each row draws from its own generator exactly what it would alone.  A
    row that fails skips its later stages, and the block then raises the
    error of the first failing row, as a row-by-row loop would.
    """
    opts = spec.options
    in_block = spec.method in ("auto", "secular") and not opts.debias
    failed: dict[int, Exception] = {}
    done = {}
    groups: dict[int, list[int]] = {}
    for i in rows:
        groups.setdefault(cells[i % len(cells)][0], []).append(i)

    for n, idx in groups.items():
        rngs = [np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
                for i in idx]
        try:
            sats, receivers, ranges, drawn = _draw_geometries(n, spec.r, rngs)
        except BadShape as exc:
            failed.update((i, exc) for i in idx)
            continue
        live, measured = [], []  # group lanes that drew and took their noise; their ranges
        for g, i in enumerate(idx):
            model = cells[i % len(cells)][1]
            try:
                if not drawn[g]:
                    raise _rejection()
                measured.append(ranges[g] if model is None else
                                _perturbed(ranges[g], model, rngs[g], spec.clamp)[0])
                live.append(g)
            except Exception as exc:
                failed[i] = exc
        if not live:
            continue
        try:
            stack = factor_anchor_stack(sats[live], opts.scale)
        except BadShape as exc:  # a scale no row can pass
            failed.update((idx[g], exc) for g in live)
            continue
        truth = receivers[live]  # by stack lane, as stack's arrays are
        ready = []  # (row, stack lane, squared ranges)
        for k, (g, row_ranges) in enumerate(zip(live, measured)):
            try:
                if not stack.ok[k]:  # the stacked factorization rejected this row
                    raise stack.lane(k)
                ready.append((idx[g], k, squared_ranges(row_ranges, opts.scale)))
            except Exception as exc:
                failed[idx[g]] = exc
        if not ready:
            continue
        solved = {}  # row -> (its _Row, oracle verdict pending; the solver input)
        if in_block:
            lanes = [k for _, k, _ in ready]
            t0 = time.perf_counter()
            block = solve_qcqp_block(np.stack([dm for *_, dm in ready]), stack, lanes,
                                     opts.secular_tol, kappa_tol=opts.kappa_tol)
            share = (time.perf_counter() - t0) / max(1, int(block.plain.sum()))
            miss = block.q / float(opts.scale) + stack.centroid[lanes] - truth[lanes]
            # np.linalg.norm(v) is sqrt(v @ v); the stacked matmul gives each lane's v @ v
            pos_err = np.sqrt((miss[:, None, :] @ miss[:, :, None])[:, 0, 0])
            for (i, _, dm), plain, kappa, tag, lam, iters, err in zip(
                    ready, block.plain.tolist(), block.kappa.tolist(), block.tag,
                    block.lam.tolist(), block.iterations.tolist(), pos_err.tolist()):
                if plain:
                    solved[i] = (_Row(f"{spec.label_prefix}-{i:06d}", n, kappa, tag, lam, iters,
                                      "secular-gen", err, False, share), dm)
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
            err = float(np.linalg.norm(report.q - truth[k]))
            solved[i] = (_Row(f"{spec.label_prefix}-{i:06d}", n, v.kappa, v.tag,
                              report.lambda_star, report.iterations, report.method, err,
                              False, wall), y)
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


def _scored(rows: list[_Row]) -> dict:
    """count, pos_err_m and confusion of a set of rows, as BatchStats and per_n hold them."""
    conf = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for row in rows:
        if row.tag is not Verdict.SELF_CONSISTENT:
            conf["tp" if row.oracle_faulty else "fp"] += 1
        else:
            conf["fn" if row.oracle_faulty else "tn"] += 1
    return {"count": len(rows), "pos_err_m": _error_stats([row.pos_err_m for row in rows]),
            "confusion": _confusion_rates(conf)}


def run_batch(spec: BatchSpec, out_path=None) -> BatchStats:
    """Generate, perturb, and solve spec.count instances; write CSV and summary.

    out_path is the CSV destination (None skips writing); the summary JSON
    lands next to it with a .summary.json suffix.  Per-instance randomness is
    split from spec.seed, so reruns reproduce every instance exactly.  Rows
    run in blocks of BATCH_BLOCK (see _run_block); the CSV and the summary
    are those of solving the rows one by one with run_pipeline's steps, and
    a negative count or a failing row raises before anything is written.
    """
    if spec.count < 0:
        raise BadShape(f"count must be non-negative, got {spec.count}")
    ns = (spec.n,) if isinstance(spec.n, int) else tuple(spec.n)
    noises = tuple(spec.noise) if isinstance(spec.noise, (list, tuple)) else (spec.noise,)
    cells = [(n, m) for n in ns for m in noises]
    solved: list[_Row] = []
    for start in range(0, spec.count, BATCH_BLOCK):
        solved += _run_block(spec, cells, range(start, min(start + BATCH_BLOCK, spec.count)))

    if out_path is not None:
        out_path = Path(out_path)
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in solved:
                writer.writerow([_fmt(v) for v in (
                    row.label,
                    row.n,
                    float(row.kappa),
                    row.tag.value,
                    float(row.lambda_star) if row.lambda_star is not None else None,
                    row.pos_err_m,
                    row.iterations,
                    row.method,
                    int(round(row.wall * 1e6)) if spec.timing else 0,
                )])

    stats = BatchStats(
        **_scored(solved),
        mean_iterations=float(np.mean([row.iterations for row in solved])) if solved else 0.0,
        wall_us_per_solve=float(np.mean([row.wall for row in solved]) * 1e6) if solved else 0.0,
        per_n={n: _scored([row for row in solved if row.n == n]) for n in ns},
    )
    if out_path is not None:
        summary_path = out_path.with_suffix(".summary.json")
        summary_path.write_text(json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")
    return stats
