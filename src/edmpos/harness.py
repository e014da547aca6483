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
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .consistency import (
    DEFAULT_KAPPA_TOL,
    Measurement,
    Verdict,
    clock_bias_estimate,
    range_error,
    squared_range_rows,
)
from .edm_core import (
    DEFAULT_SCALE,
    EdmBundle,
    SatelliteConfig,
    _augmented_eigs,
    _classify_eigs,
    _norm,
    _squared_distances,
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
        """The scenario a JSON object describes; BadShape names what is missing or misshapen."""
        if not isinstance(data, dict):
            raise BadShape(f"a scenario is a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise BadShape(f"unsupported scenario schema {schema!r}")
        missing = [key for key in ("satellites", "pseudoranges") if key not in data]
        if missing:
            raise BadShape(f"scenario lacks {' and '.join(missing)}")
        sats = np.asarray(data["satellites"], dtype=float)
        ranges = np.asarray(data["pseudoranges"], dtype=float)
        if sats.ndim != 2 or ranges.shape != (sats.shape[0],):
            raise BadShape("satellite and pseudorange shapes do not match")
        dim = data.get("dim")
        try:
            dim = sats.shape[1] if dim is None else int(dim)
        except (TypeError, ValueError) as exc:
            raise BadShape(f"dim must be an integer, got {dim!r}") from exc
        if dim != sats.shape[1]:
            raise BadShape(f"dim {dim} does not match the {sats.shape[1]}-column satellites")
        receiver = data.get("true_receiver")
        if receiver is not None:
            receiver = np.asarray(receiver, dtype=float)
            if receiver.shape != (dim,):
                raise BadShape(f"true_receiver needs {dim} coordinates, got {receiver.shape}")
        fault = data.get("fault")
        if fault:
            try:
                fault = (int(fault["index"]), float(fault["delta_sq"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise BadShape(f"fault needs an index and a delta_sq, got {fault!r}") from exc
        return cls(
            label=data.get("label", ""),
            dim=dim,
            satellites=sats,
            pseudoranges=ranges,
            true_receiver=receiver,
            true_bias=data.get("true_bias"),
            noise_sigma=data.get("noise_sigma"),
            fault=fault or None,
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
    A lane's own work is its draws and the zero-norm test of its receiver
    direction; the anchor norms, the screen, the receiver scaling and the
    ranges each run once over the round's (or the group's) lanes.
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
        screened = {}  # active position -> its row of shell
        for j, (pos, s) in enumerate(zip(usable.tolist(), svals.tolist())):
            # the condition cap is the screen; a zero singular value is
            # caught before the division
            if s[r - 1] > 0.0 and not (s[0] / s[r - 1]) ** 2 > DEFAULT_MAX_COND:
                screened[pos] = j
        retry, kept, shell_rows, directions, radii, dnorms = [], [], [], [], [], []
        for pos, k in enumerate(active):
            if pos not in screened:
                retry.append(k)
                continue
            rng = rngs[k]
            direction = rng.normal(size=r)
            dnorm = _norm(direction)
            if dnorm == 0.0:
                retry.append(k)
                continue
            kept.append(k)
            shell_rows.append(screened[pos])
            directions.append(direction)
            dnorms.append(dnorm)
            radii.append(receiver_radius * rng.random() ** (1.0 / r))
        if kept:
            sats[kept] = shell[shell_rows]
            # radius * direction / dnorm for each kept lane, elementwise
            receivers[kept] = (np.array(radii)[:, None] * np.array(directions)
                               / np.array(dnorms)[:, None])
        active = retry
    # np.linalg.norm's own formula over the last axis, without its dispatch layers
    diff = sats - receivers[:, None, :]
    ranges = np.sqrt(np.add.reduce(diff * diff, axis=2))
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
    This is the one-row case of _perturbed.
    """
    if rng is None and isinstance(model, GaussianSq):
        rng = np.random.default_rng(seed)
    ranges, record, negative = _perturbed(np.asarray(sc.pseudoranges, dtype=float)[None],
                                          model, [rng], clamp)
    if negative:
        raise negative[0]
    return replace(sc, pseudoranges=ranges[0], **record)


def _perturbed(ranges: np.ndarray, model: NoiseModel, rngs: list[np.random.Generator | None],
               clamp: bool) -> tuple[np.ndarray, dict, dict[int, NegativeSquare]]:
    """apply_noise on each row of a (B, n) range array, row b drawing from rngs[b].

    Returns the perturbed (B, n) ranges, the Scenario fields to record, and,
    by row number, the NegativeSquare apply_noise would raise for a row; such
    a row's ranges mean nothing.  Each row draws from its own generator what
    apply_noise draws, in its order: n normals, then, round by round, one
    normal for each of its squares still negative.  The squares, the
    sigma scaling, the negative check, the clamp and the square root run once
    over the array.  A fault index out of range or an unknown model raises
    BadShape, since it fails every row alike.
    """
    squares = ranges**2
    if isinstance(model, GaussianSq):
        sigma_sq = 2.0 * np.sqrt(squares) * model.sigma_m
        normals = np.empty(squares.shape)
        for rng, row in zip(rngs, normals):
            rng.standard_normal(out=row)
        noisy = squares + sigma_sq * normals
        for _ in range(MAX_NOISE_REDRAWS):
            bad = noisy < 0.0
            if not bad.any():
                break
            # a boolean index walks the rows in order, as the redraws are concatenated
            redraws = [rngs[b].standard_normal(c)
                       for b, c in enumerate(np.count_nonzero(bad, axis=1).tolist()) if c]
            noisy[bad] = squares[bad] + sigma_sq[bad] * np.concatenate(redraws)
        record = {"noise_sigma": model.sigma_m}
    elif isinstance(model, ConstantBias):
        noisy = squares + model.delta_sq
        record = {"true_bias": model.delta_sq}
    elif isinstance(model, SingleFault):
        if not 0 <= model.index < squares.shape[1]:
            raise BadShape(f"fault index {model.index} out of range for {squares.shape[1]} anchors")
        noisy = squares.copy()
        noisy[:, model.index] += model.delta_sq
        record = {"fault": (model.index, model.delta_sq)}
    else:
        raise BadShape(f"unknown noise model {model!r}")
    below = noisy < 0.0
    negative = {}
    if below.any():
        counts = np.count_nonzero(below, axis=1)
        rows = np.flatnonzero(counts)
        # clamped either way, so the square root stays real; without clamping
        # the rows fail and their ranges are never read
        noisy[rows] = np.maximum(noisy[rows], 0.0)
        if not clamp:
            negative = {b: NegativeSquare(
                f"perturbation drove {int(counts[b])} squared pseudorange(s) negative; "
                "rerun with clamping enabled to floor them at zero") for b in rows.tolist()}
    return np.sqrt(noisy), record, negative


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
        # the fields hold only numbers, None and dicts of them, so the JSON of
        # this shallow dict is that of dataclasses.asdict's deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _percentile(s: list[float], q: float) -> float:
    """np.percentile(s, 100 * q) of a sorted list of floats, bit for bit (method "linear").

    The virtual index is (m - 1) * q.  At or past the last index numpy still
    interpolates, between the last value and itself with weight index + 1,
    which is why a list ending in inf gives nan.
    """
    v = (len(s) - 1) * q
    if v >= len(s) - 1:
        a = b = s[-1]
        t = v + 1.0
    else:
        k = int(v)
        a, b = s[k], s[k + 1]
        t = v - k
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _error_stats(errors: list[float]) -> dict:
    """mean, p50, p90, p99 and max of a list of floats, each bit for bit numpy's.

    The percentiles are read off one sorted copy; a list holding a NaN has
    nan for each of them, as np.percentile and np.max give.
    """
    if not errors:
        return {"mean": None, "p50": None, "p90": None, "p99": None, "max": None}
    mean = float(np.mean(errors))
    # a NaN mean comes from a NaN or from inf - inf; only a NaN spoils the sort
    if mean != mean and any(e != e for e in errors):
        return {"mean": mean, "p50": mean, "p90": mean, "p99": mean, "max": mean}
    s = sorted(errors)
    return {"mean": mean, "p50": _percentile(s, 0.5), "p90": _percentile(s, 0.9),
            "p99": _percentile(s, 0.99), "max": s[-1]}


def _confusion_rates(conf: dict) -> dict:
    out = dict(conf)
    detected = conf["tp"] + conf["fn"]
    out["detection_rate"] = conf["tp"] / detected if detected else None
    clean = conf["tn"] + conf["fp"]
    out["false_alarm_rate"] = conf["fp"] / clean if clean else None
    return out


class _Row(NamedTuple):
    """One solved batch row: what its CSV line and the summary read.

    The floats are Python floats, since the csv module writes a float with
    repr, which for a numpy float would name its type.  pos_err_m is the
    fix's distance from the true receiver; wall is in seconds (see
    BatchSpec).
    """

    label: str
    n: int
    kappa: float
    tag: Verdict
    lambda_star: float | None
    iterations: int
    method: str
    pos_err_m: float
    wall: float
    oracle_faulty: bool


def _keep_first(failed: dict[int, Exception], errors) -> None:
    """Record each (lane, error) pair whose lane has no error yet: a row keeps its first."""
    for g, exc in errors:
        failed.setdefault(g, exc)


def _run_block(spec: BatchSpec, cells: list, rows: range) -> list[_Row]:
    """The solved rows of one block, in row order.

    The rows of one anchor count form a group, and row idx[g] keeps lane g of
    the group's arrays from its draw to its _Row.  Each stage runs once over
    the group: generation (_draw_geometries), the noise of each noise model
    (_perturbed), one factor_anchor_stack of every lane (a lane that drew no
    geometry is zero-filled, and the rank cut rejects it), one range screen
    (squared_range_rows) and the eigenvalue oracle, read as arrays
    (_classify_eigs).  With method auto or secular and no debiasing,
    solve_qcqp_block solves the error-free lanes at once and solve_qcqp
    (through _dispatch) the lanes it hands back; other methods, and
    debiasing, solve row by row.  oracle_faulty means the oracle does not
    extend the anchors at dimension r with the solver's input vector.  Each
    row draws from its own generator exactly what it would alone.  A row
    keeps the error of its first failing stage (draw, noise, factorization,
    range screen, solve) and skips the later ones; the block raises the
    lowest failing row's error, as a row-by-row loop would.
    """
    opts = spec.options
    in_block = spec.method in ("auto", "secular") and not opts.debias
    done = {}
    groups: dict[int, list[int]] = {}
    for i in rows:
        groups.setdefault(cells[i % len(cells)][0], []).append(i)
    failures = {}  # anchor count -> {group lane: that row's first error}

    for n, idx in groups.items():
        failed = failures[n] = {}
        rngs = [np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
                for i in idx]
        try:
            sats, truth, ranges, drawn = _draw_geometries(n, spec.r, rngs)
        except BadShape as exc:
            _keep_first(failed, ((g, exc) for g in range(len(idx))))
            continue
        by_cell: dict[int, list[int]] = {}  # the drawn lanes that take each noise model
        for g, (i, ok) in enumerate(zip(idx, drawn.tolist())):
            if not ok:
                _keep_first(failed, [(g, _rejection())])
            elif cells[i % len(cells)][1] is not None:
                by_cell.setdefault(i % len(cells), []).append(g)
        for cell, gs in by_cell.items():
            try:
                noisy, _, negative = _perturbed(ranges[gs], cells[cell][1],
                                                [rngs[g] for g in gs], spec.clamp)
            except Exception as exc:  # a model that fails every row alike
                _keep_first(failed, ((g, exc) for g in gs))
                continue
            ranges[gs] = noisy
            _keep_first(failed, ((gs[b], exc) for b, exc in negative.items()))
        try:
            stack = factor_anchor_stack(sats, opts.scale)
        except BadShape as exc:  # a scale no row can pass
            _keep_first(failed, ((g, exc) for g in range(len(idx))))
            continue
        _keep_first(failed, ((g, stack.lane(g)) for g, ok in enumerate(stack.ok) if not ok))
        dm, rejected = squared_range_rows(ranges, opts.scale)
        _keep_first(failed, ((g, range_error(opts.scale)) for g in rejected))
        lanes = [g for g in range(len(idx)) if g not in failed]
        if not lanes:
            continue
        dm = dm.copy()  # the solver inputs; debiasing overwrites the rows it changes
        solved = {}  # lane -> the row's _Row fields between its label and oracle_faulty
        if in_block:
            t0 = time.perf_counter()
            block = solve_qcqp_block(dm[lanes], stack, lanes, opts.secular_tol,
                                     kappa_tol=opts.kappa_tol)
            share = (time.perf_counter() - t0) / max(1, int(block.plain.sum()))
            miss = block.q / float(opts.scale) + stack.centroid[lanes] - truth[lanes]
            # np.linalg.norm(v) is sqrt(v @ v); the stacked matmul gives each lane's v @ v
            pos_err = np.sqrt((miss[:, None, :] @ miss[:, :, None])[:, 0, 0])
            for g, plain, kappa, tag, lam, iters, err in zip(
                    lanes, block.plain.tolist(), block.kappa.tolist(), block.tag,
                    block.lam.tolist(), block.iterations.tolist(), pos_err.tolist()):
                if plain:
                    solved[g] = (n, kappa, tag, lam, iters, "secular-gen", err, share)
        for g in lanes:
            if g in solved:
                continue
            config, bundle = stack.lane(g)
            try:
                t0 = time.perf_counter()
                y = _solver_input(dm[g], bundle, opts)
                report = _dispatch(y, config, bundle, spec.method, opts)
                wall = time.perf_counter() - t0
            except Exception as exc:
                _keep_first(failed, [(g, exc)])
                continue
            if opts.debias:
                dm[g] = y
            v, lam = report.verdict, report.lambda_star
            solved[g] = (n, float(v.kappa), v.tag, None if lam is None else float(lam),
                         report.iterations, report.method, _norm(report.q - truth[g]), wall)
        order = sorted(solved)
        if order:
            edm, dims, _ = _classify_eigs(_augmented_eigs(
                _squared_distances(stack.P[order]), dm[order]))
            faulty = ~(edm & (dims == spec.r))
            for g, f in zip(order, faulty.tolist()):
                done[idx[g]] = _Row(f"{spec.label_prefix}-{idx[g]:06d}", *solved[g], f)
    first = {groups[n][min(f)]: f[min(f)] for n, f in failures.items() if f}
    if first:
        raise first[min(first)]
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
    if not ns or not noises:
        raise BadShape(f"the anchor-count and noise grids must not be empty, "
                       f"got n={spec.n!r} and noise={spec.noise!r}")
    cells = [(n, m) for n in ns for m in noises]
    solved: list[_Row] = []
    for start in range(0, spec.count, BATCH_BLOCK):
        solved += _run_block(spec, cells, range(start, min(start + BATCH_BLOCK, spec.count)))

    if out_path is not None:
        out_path = Path(out_path)
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(
                (row.label, row.n, row.kappa, row.tag.value, row.lambda_star, row.pos_err_m,
                 row.iterations, row.method, int(round(row.wall * 1e6)) if spec.timing else 0)
                for row in solved)

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
