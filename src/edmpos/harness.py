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

import numpy as np

from .consistency import (
    DEFAULT_KAPPA_TOL,
    Measurement,
    Verdict,
    clock_bias_estimate,
)
from .edm_core import (
    DEFAULT_SCALE,
    EdmBundle,
    SatelliteConfig,
    augmented_edm_check,
    factor_anchors,
)
from .errors import BadShape, GeometryRejection, NegativeSquare
from .report import SolveReport
from .solver_general import DEFAULT_SECULAR_TOL, nlp_oracle, solve_qcqp, solve_unconstrained

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
        fault = data.get("fault")
        return cls(
            label=data.get("label", ""),
            dim=int(data.get("dim", sats.shape[1])),
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
    GeometryRejection is raised after MAX_GEOMETRY_ATTEMPTS draws.
    """
    if n < r + 1:
        raise BadShape(f"need at least r+1={r + 1} anchors, got {n}")
    if rng is None:
        rng = np.random.default_rng(seed)
    for _ in range(MAX_GEOMETRY_ATTEMPTS):
        sats = rng.normal(size=(n, r))
        norms = np.linalg.norm(sats, axis=1)
        if np.any(norms == 0.0):
            continue
        sats = DEFAULT_SHELL_RADIUS * sats / norms[:, None]
        centered = sats - sats.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        # the condition cap is the screen; a zero singular value is caught
        # before the division
        if not svals[r - 1] > 0.0 or (svals[0] / svals[r - 1]) ** 2 > DEFAULT_MAX_COND:
            continue
        direction = rng.normal(size=r)
        dnorm = np.linalg.norm(direction)
        if dnorm == 0.0:
            continue
        radius = receiver_radius * rng.uniform() ** (1.0 / r)
        receiver = radius * direction / dnorm
        ranges = np.linalg.norm(sats - receiver, axis=1)
        return Scenario(
            label=label,
            dim=r,
            satellites=sats,
            pseudoranges=ranges,
            true_receiver=receiver,
            seed=seed if isinstance(seed, int) else None,
        )
    raise GeometryRejection(f"no acceptable geometry in {MAX_GEOMETRY_ATTEMPTS} attempts")


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
        out = replace(sc, noise_sigma=model.sigma_m)
    elif isinstance(model, ConstantBias):
        noisy = squares + model.delta_sq
        out = replace(sc, true_bias=model.delta_sq)
    elif isinstance(model, SingleFault):
        if not 0 <= model.index < squares.shape[0]:
            raise BadShape(f"fault index {model.index} out of range for {squares.shape[0]} anchors")
        noisy = squares.copy()
        noisy[model.index] += model.delta_sq
        out = replace(sc, fault=(model.index, model.delta_sq))
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
    return replace(out, pseudoranges=np.sqrt(noisy))


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
    # keyed by the anchors' float64 bytes, so a hit returns exactly what a
    # fresh factorization of the same content would; a geometry that raises
    # is not stored, and every cached array is read-only
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
    byte-identical CSV files.
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
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def _confusion_rates(conf: dict) -> dict:
    out = dict(conf)
    detected = conf["tp"] + conf["fn"]
    out["detection_rate"] = conf["tp"] / detected if detected else None
    clean = conf["tn"] + conf["fp"]
    out["false_alarm_rate"] = conf["fp"] / clean if clean else None
    return out


def run_batch(spec: BatchSpec, out_path=None) -> BatchStats:
    """Generate, perturb, and solve spec.count instances; write CSV and summary.

    out_path is the CSV destination (None skips writing); the summary JSON
    lands next to it with a .summary.json suffix.  Per-instance randomness is
    split from spec.seed, so reruns reproduce every instance exactly.
    """
    ns = (spec.n,) if isinstance(spec.n, int) else tuple(spec.n)
    noises = tuple(spec.noise) if isinstance(spec.noise, (list, tuple)) else (spec.noise,)
    cells = [(n, m) for n in ns for m in noises]
    opts = spec.options
    rows = []
    errors_all: list[float] = []
    iters_all: list[int] = []
    wall_all: list[float] = []
    conf = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    per_n: dict[int, dict] = {
        n: {"count": 0, "errors": [], "conf": {"tp": 0, "fp": 0, "tn": 0, "fn": 0}}
        for n in ns
    }

    for i in range(spec.count):
        n, model = cells[i % len(cells)]
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        sc = generate_scenario(n, spec.r, rng=rng, label=f"{spec.label_prefix}-{i:06d}")
        if model is not None:
            sc = apply_noise(sc, model, rng=rng, clamp=spec.clamp)
        t0 = time.perf_counter()
        config, bundle, measurement = prepare_scenario(sc, opts)
        dm = _solver_input(measurement.dm, bundle, opts)
        report = _dispatch(dm, config, bundle, spec.method, opts)
        wall = time.perf_counter() - t0
        wall_all.append(wall)

        oracle = augmented_edm_check(bundle, dm)
        oracle_faulty = not (oracle.is_edm and oracle.dim == bundle.r)
        kappa_faulty = report.verdict.tag is not Verdict.SELF_CONSISTENT
        if kappa_faulty:
            key = "tp" if oracle_faulty else "fp"
        else:
            key = "fn" if oracle_faulty else "tn"
        conf[key] += 1
        per_n[n]["conf"][key] += 1
        per_n[n]["count"] += 1
        iters_all.append(report.iterations)

        pos_err = None
        if sc.true_receiver is not None:
            pos_err = float(np.linalg.norm(report.q - sc.true_receiver))
            errors_all.append(pos_err)
            per_n[n]["errors"].append(pos_err)

        rows.append([
            sc.label,
            n,
            float(report.verdict.kappa),
            report.verdict.tag.value,
            float(report.lambda_star) if report.lambda_star is not None else None,
            pos_err,
            report.iterations,
            report.method,
            int(round(wall * 1e6)) if spec.timing else 0,
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
