"""The three benchmark workloads: seeded inputs, timed loops and output checks.

Each workload draws every input from ``SeedSequence(seed, spawn_key=...)`` so
the same seed gives the same inputs, and hands the program only ``Scenario``
objects (per-call workloads) or ``BatchSpec`` objects (``simulate``).  Loops
are closed: one client, the next call starts when the previous returns.
Inputs are generated and outputs checked in chunks outside the timed region.

Import this module only after ``edmpos`` is importable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from edmpos import harness as H
from edmpos.consistency import Verdict, kappa_band
from edmpos.edm_core import augmented_edm_check
from edmpos.errors import EdmPosError
from edmpos.solver_general import nlp_oracle

# captured before any tracer rebinds harness globals, so checks stay untraced
_prepare = H.prepare_scenario
_KAPPA_TOL = H.PipelineOptions().kappa_tol
_SCALE = H.PipelineOptions().scale
_SECULAR_TOL = H.PipelineOptions().secular_tol

NOISE = H.GaussianSq(2.0)
FAULT_SQ = 5e9          # m^2: ~100 m of range at GNSS distances, ~50x the noise
CHUNK = 256             # instances generated, then solved, then checked
ORACLE_EVERY = 256      # instance indices divisible by this are cross-checked
CLEAN_POS_TOL_M = 1e-6  # acceptance criterion 2, widened by clean_tolerance_m
ORACLE_Q_TOL_M = 1e-5   # acceptance criterion 5
ORACLE_OBJ_RTOL = 1e-6  # acceptance criterion 5
REF_ITERATIONS = 25     # reference-kernel passes per reference timing
REF_EVERY = 32          # per-call workloads time the reference every this many calls
POLE_PRONE_NU = 2e-2    # smallest eigenvalue of the scaled anchor Gram; see pole_prone
PROBE_MAX = 64          # set-aside inputs run through the program after timing, at most

TAGS = tuple(v.value for v in Verdict)
CLEAN_TAG = TAGS.index(Verdict.SELF_CONSISTENT.value)
OK, ERROR, WRONG = 0, 1, 2

# spawn-key streams; phase streams are 0 (untraced) and 1 (traced)
WARM_STREAM = 9
GEOMETRY_STREAM = 8


_REF_A = np.random.default_rng(0).normal(size=(5, 5))


def reference_us() -> float:
    """Wall time of one pass of a fixed kernel shaped like the program's work.

    The small-array numpy calls the pipeline makes (QR, SVD, einsum, norms)
    plus some interpreter work, with no edmpos code.  It is timed between
    calls, untimed itself, so each call can also be expressed in units of
    the machine's speed at that moment: on a shared host that speed drifts
    by tens of percent over minutes.  Of the kernels tried, this one tracked the
    pipeline best (10 s block medians of the ratio varied by 1.3 %, against
    19 % for raw call times and 3.3 % for an eigh/solve kernel).
    """
    a = _REF_A
    t0 = time.perf_counter_ns()
    for _ in range(REF_ITERATIONS):
        np.linalg.qr(a)
        np.linalg.svd(a, compute_uv=False)
        top = float(np.abs(np.einsum("ij,ij->i", a, a)).max())
        np.linalg.norm(a.mean(axis=0))
        {k: k * top for k in range(8)}
    return (time.perf_counter_ns() - t0) / REF_ITERATIONS / 1e3


def clean_tolerance_m(satellites: np.ndarray) -> float:
    """How far a position from exact ranges may sit from the truth.

    Criterion 2's 1e-6 m, or 16 times the round-off the geometry amplifies
    (sqrt(cond) * eps * |anchor|), whichever is larger: anchors accepted at
    normal-matrix condition numbers above ~3e4 put exact-input errors at
    1-1.5e-6 m, all within 1x that round-off (3 in 15000 clean rows).
    """
    centred = satellites - satellites.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    roundoff = s[0] / s[-1] * np.finfo(float).eps * float(np.abs(satellites).max())
    return max(CLEAN_POS_TOL_M, 16.0 * roundoff)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def pole_prone(satellites: np.ndarray) -> bool:
    """True when an anchor geometry is in reach of the pole-guard defect.

    For n >= 5, ``solve_qcqp`` raises ``PoleEvaluation`` whenever kappa > 0
    and the smallest eigenvalue nu of the scaled, centred anchors' Gram
    matrix is below 1e-2: the root finder's first probe sits 1e-12 * nu
    below that pole, inside the fixed 1e-14 guard.  Every failure seen
    while tuning this benchmark (about 1 in 1000 noisy n=5 calls, 1 in
    3000 at n=6, none at n=4 or 12) had nu < 1e-2.  The timed workloads
    draw such geometries again, with twice that threshold as margin, so
    that no timed call fails; the inputs set aside are run after the timed
    loop as a probe of the defect (``Probe``).
    """
    sats = np.asarray(satellites, dtype=float)
    if sats.shape[0] < 5:
        return False
    s = np.linalg.svd(_SCALE * (sats - sats.mean(axis=0)), compute_uv=False)
    return bool(s[-1] ** 2 < POLE_PRONE_NU)


def redraw_keys(*key: int):
    """Spawn keys for one input: ``key`` itself, then ``key + (k,)`` for redraw k >= 1."""
    yield key
    for k in itertools.count(1):
        yield (*key, k)


def _hash64(*parts: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "little", signed=True)


def report_digest(rep) -> int:
    """Hash of everything a report says, for traced-versus-untraced comparison."""
    return _hash64(
        np.asarray(rep.y_star).tobytes(),
        b"" if rep.q is None else np.asarray(rep.q).tobytes(),
        repr((rep.verdict.tag.value, rep.verdict.kappa, rep.iterations, rep.method,
              rep.lambda_star, rep.kappa_residual, rep.objective)).encode(),
    )


@dataclass(frozen=True)
class Instance:
    index: int
    sc: H.Scenario
    n: int
    noisy: bool
    fault: bool


class Recorder:
    """Per-instance outcomes of one run.

    Buffers are allocated and written once up front, so the benchmark's own
    resident memory is the same however many instances the program gets
    through; a run stops early if they fill.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0
        self.status = np.full(capacity, -1, np.int8)
        self.pos_err = np.full(capacity, np.nan)
        self.tag = np.full(capacity, -1, np.int8)
        self.n = np.full(capacity, -1, np.int16)
        self.noisy = np.full(capacity, -1, np.int8)
        self.fault = np.full(capacity, -1, np.int8)
        self.geom = np.full(capacity, -1, np.int64)
        self.oracle_agree = np.full(capacity, -1, np.int8)
        self.latency_us = np.full(capacity, np.nan)
        self.latency_ref = np.full(capacity, np.nan)
        self.ref_us: list[float] = []
        self.batch_oracle_agree = 0
        self.batch_oracle_rows = 0
        self.errors: Counter = Counter()
        self.wrong: Counter = Counter()
        self.first_traceback: dict[str, str] = {}
        self.nlp_checked = 0
        self.nlp_oracle_miss = 0

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def add(self, *, status, n, noisy, fault, geom, pos_err=np.nan, tag=-1, oracle_agree=-1):
        k = self.size
        self.latency_us[k] = np.inf
        self.latency_ref[k] = np.inf
        self.status[k] = status
        self.n[k] = n
        self.noisy[k] = noisy
        self.fault[k] = fault
        self.geom[k] = geom
        self.pos_err[k] = pos_err
        self.tag[k] = tag
        self.oracle_agree[k] = oracle_agree
        self.size += 1

    def error(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.errors[name] += 1
        if name not in self.first_traceback:
            self.first_traceback[name] = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__))

    def view(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.size]


@dataclass
class Phase:
    """One timed loop: its rows and reference timings in the recorder, and total timed wall.

    Each row's ``latency_us`` holds its call's wall time (per-call) or its
    batch's wall time per row (simulate), and inf when it failed;
    ``latency_ref`` holds the same divided by the mean of the two reference
    timings that bracket the call (one every ``REF_EVERY`` calls, or one
    before and after each ``run_batch`` call).
    """

    start: int
    first_ref: int
    rows_per_call: int = 1
    stop: int = 0
    stop_ref: int = 0
    timed_ns: int = 0
    digests: dict = field(default_factory=dict)
    csv_hashes: dict = field(default_factory=dict)


def outcome_digest(rep, err) -> int:
    return report_digest(rep) if err is None else _hash64(type(err).__name__.encode())


@dataclass
class Probe:
    """Outcomes of the pole-prone inputs a workload set aside, run after timing."""

    set_aside: int
    calls: int = 0
    errors: Counter = field(default_factory=Counter)

    def run(self, call, items) -> "Probe":
        for item in items:
            try:
                call(item)
            except Exception as exc:  # the probe counts errors, it does not stop
                self.errors[type(exc).__name__] += 1
            self.calls += 1
        return self


# ---------------------------------------------------------------------------
# per-call workloads


class PerCall:
    """Base for workloads that call ``run_pipeline`` once per instance."""

    name = ""
    wid = -1
    ns: tuple[int, ...] = ()

    def __init__(self, seed: int, tmp: Path, eigen_oracle: bool = False):
        self.seed = seed
        self.eigen_oracle = eigen_oracle  # score verdicts against augmented_edm_check
        self.set_aside: dict[tuple, H.Scenario] = {}  # pole-prone draws, by key

    def setup(self) -> None:
        pass

    def instance(self, stream: int, i: int) -> Instance:
        raise NotImplementedError

    def probe(self) -> Probe:
        """Run the first set-aside pole-prone inputs through ``run_pipeline``, untimed."""
        keys = sorted(self.set_aside)[:PROBE_MAX]
        return Probe(len(self.set_aside)).run(H.run_pipeline,
                                              [self.set_aside[k] for k in keys])

    def warm_up(self) -> None:
        """A few solves on separate fresh geometries: code paths, not caches, get warm."""
        for i, n in enumerate(self.ns * 3):
            rng = rng_for(self.seed, self.wid, WARM_STREAM, i)
            sc = H.apply_noise(H.generate_scenario(n, rng=rng), NOISE, rng=rng)
            try:
                H.run_pipeline(sc)
            except EdmPosError:
                pass

    def run(self, rec: Recorder, stream: int, budget_ns: float, max_count: int,
            tracer=None, first_chunk=None, digest_first: int = 0) -> Phase:
        phase = Phase(start=rec.size, first_ref=len(rec.ref_us))
        clock = time.perf_counter_ns
        i = 0
        while i < max_count and phase.timed_ns < budget_ns and not rec.full:
            m = min(CHUNK, max_count - i, rec.capacity - rec.size)
            if tracer is not None:
                tracer.active, tracer.solve_id = True, -1
            if first_chunk is not None:
                chunk, first_chunk = first_chunk[:m], None
            else:
                chunk = [self.instance(stream, i + k) for k in range(m)]
            results = []
            refs, segment = [reference_us()], []
            for k, inst in enumerate(chunk):
                if k and k % REF_EVERY == 0:
                    refs.append(reference_us())
                segment.append(len(refs) - 1)
                if tracer is not None:
                    tracer.solve_id = inst.index
                t0 = clock()
                try:
                    rep, err = H.run_pipeline(inst.sc), None
                except Exception as exc:  # one failing instance must not end the run
                    rep, err = None, exc
                dt = clock() - t0
                phase.timed_ns += dt
                results.append((inst, rep, err, dt))
                if phase.timed_ns >= budget_ns:
                    break
            if tracer is not None:
                tracer.active = False
            refs.append(reference_us())
            rec.ref_us.extend(refs)
            for (inst, rep, err, dt), seg in zip(results, segment):
                if self.record(rec, inst, rep, err):
                    rec.latency_us[rec.size - 1] = dt / 1e3
                    rec.latency_ref[rec.size - 1] = dt / 1e3 / (0.5 * (refs[seg] + refs[seg + 1]))
                if inst.index < digest_first:
                    phase.digests[inst.index] = outcome_digest(rep, err)
            i += len(results)
        phase.stop, phase.stop_ref = rec.size, len(rec.ref_us)
        return phase

    def record(self, rec: Recorder, inst: Instance, rep, err) -> bool:
        """Check one outcome outside the timed region; True when it counts as solved."""
        common = dict(n=inst.n, noisy=inst.noisy, fault=inst.fault,
                      geom=_hash64(np.asarray(inst.sc.satellites).tobytes()))
        if err is not None:
            rec.error(err)
            rec.add(status=ERROR, **common)
            return False
        tag = TAGS.index(rep.verdict.tag.value)
        agree = self.eigen_oracle_agrees(inst, tag) if self.eigen_oracle else -1
        wrong = self.wrong_output(inst, rep, rec)
        if wrong is not None:
            rec.wrong[wrong] += 1
            rec.add(status=WRONG, tag=tag, oracle_agree=agree, **common)
            return False
        pos_err = float(np.linalg.norm(rep.q - inst.sc.true_receiver))
        rec.add(status=OK, pos_err=pos_err, tag=tag, oracle_agree=agree, **common)
        return True

    @staticmethod
    def eigen_oracle_agrees(inst: Instance, tag: int) -> int:
        """1 when the verdict's fault/no-fault call matches the eigenvalue oracle's."""
        _, bundle, meas = _prepare(inst.sc)
        oracle = augmented_edm_check(bundle, meas.dm)
        oracle_faulty = not (oracle.is_edm and oracle.dim == bundle.r)
        return int(oracle_faulty == (tag != CLEAN_TAG))

    @staticmethod
    def wrong_output(inst: Instance, rep, rec: Recorder) -> str | None:
        """Name of the first output check the report fails, or None."""
        if rep.q is None or not np.all(np.isfinite(rep.q)):
            return "no-position"
        y_star = np.asarray(rep.y_star)
        band = kappa_band(y_star, _KAPPA_TOL)
        if not abs(rep.kappa_residual) <= band:
            return "kappa-band"
        # y_star must be the squared ranges of the reported point, up to what
        # the kappa band admits (a common offset of band / 4 when n = 4)
        realized = _SCALE**2 * ((inst.sc.satellites - rep.q) ** 2).sum(axis=1)
        if not np.abs(realized - y_star).max() <= band:
            return "y-star-not-realized-by-q"
        if inst.index % ORACLE_EVERY == 0:
            rec.nlp_checked += 1
            config, bundle, meas = _prepare(inst.sc)
            ref = nlp_oracle(meas.dm, config, bundle=bundle)
            # The report fails when the oracle found a consistent vector
            # closer to the measurement by more than criterion 5's relative
            # objective tolerance, or, when 2 m noise leaves the objective
            # near 1e-15, by more than the pipeline's own secular tolerance
            # on |y| (d obj = 2 |y* - y| d|y* - y|).
            excess = rep.objective - ref.objective
            allowed = max(ORACLE_OBJ_RTOL * rep.objective,
                          2.0 * np.sqrt(rep.objective) * _SECULAR_TOL * float(
                              np.abs(meas.dm).max()))
            if excess > allowed:
                return "nlp-oracle-closer"
            # the oracle is a multi-start local search and sometimes stops
            # farther away or at another point; that is its miss, not the report's
            if abs(excess) > allowed or np.linalg.norm(ref.q - rep.q) > ORACLE_Q_TOL_M:
                rec.nlp_oracle_miss += 1
        return None


class FreshNoisy(PerCall):
    """New geometry and 2 m noise on every call; n cycles over {4, 5, 6, 12}."""

    name = "fresh-noisy"
    wid = 0
    ns = (4, 5, 6, 12)

    def instance(self, stream: int, i: int) -> Instance:
        n = self.ns[i % len(self.ns)]
        for k, key in enumerate(redraw_keys(self.wid, stream, i)):
            rng = rng_for(self.seed, *key)
            sc = H.generate_scenario(n, rng=rng, label=f"fresh-{stream}-{i}")
            sc = H.apply_noise(sc, NOISE, rng=rng)
            if not pole_prone(sc.satellites):
                return Instance(i, sc, n, True, False)
            self.set_aside[(stream, i, k)] = sc


class Tracking(PerCall):
    """A static beacon network: 8 geometries per n in {4, 6, 12}, many receiver epochs.

    Epoch i uses geometry i mod 24 and a new receiver; every epoch gets 2 m
    noise and every 10th one a single-anchor fault of +-5e9 m^2 on top.  The
    network is part of the workload, not of the seed: with only 24
    geometries, drawing them per seed moved pos_err_m.p90 by 26 % between
    seeds.  The seed draws receivers, noise and faults.
    """

    name = "tracking"
    wid = 1
    ns = (4, 6, 12)
    per_n = 8
    network_seed = 20250704

    def setup(self) -> None:
        self.geometries = [self.geometry(g) for g in range(self.per_n * len(self.ns))]

    def geometry(self, g: int) -> H.Scenario:
        # none of the 24 is pole-prone today; the redraw keeps it so if generation changes
        for key in redraw_keys(self.wid, GEOMETRY_STREAM, g):
            sc = H.generate_scenario(self.ns[g % len(self.ns)],
                                     rng=rng_for(self.network_seed, *key), label=f"beacons-{g}")
            if not pole_prone(sc.satellites):
                return sc

    def instance(self, stream: int, i: int) -> Instance:
        geom = self.geometries[i % len(self.geometries)]
        rng = rng_for(self.seed, self.wid, stream, i)
        direction = rng.normal(size=geom.dim)
        radius = H.DEFAULT_RECEIVER_RADIUS * rng.uniform() ** (1.0 / geom.dim)
        receiver = radius * direction / np.linalg.norm(direction)
        sc = replace(geom, label=f"track-{stream}-{i}", true_receiver=receiver,
                     pseudoranges=np.linalg.norm(geom.satellites - receiver, axis=1))
        sc = H.apply_noise(sc, NOISE, rng=rng)
        fault = i % 10 == 9
        if fault:
            index = int(rng.integers(geom.n))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            sc = H.apply_noise(sc, H.SingleFault(index, sign * FAULT_SQ))
        return Instance(i, sc, geom.n, True, fault)


# ---------------------------------------------------------------------------
# simulate: repeated run_batch calls


class Simulate:
    """``run_batch`` over n in {4, 6, 12} x noise in {None, 2 m}, a new seed per call."""

    name = "simulate"
    wid = 2
    ns = (4, 6, 12)
    rows = 60  # a multiple of the 6 grid cells, so every batch has the same mix

    def __init__(self, seed: int, tmp: Path, eigen_oracle: bool = False):
        # run_batch scores every row against the eigenvalue oracle itself
        self.seed = seed
        self.csv_path = tmp / "batch.csv"
        self.set_aside: dict[tuple, H.BatchSpec] = {}  # batches with a pole-prone row

    def setup(self) -> None:
        pass

    def spec(self, stream: int, j: int, rows: int | None = None) -> H.BatchSpec:
        """Batch j of a stream; drawn again while any of its rows is pole-prone."""
        for k, key in enumerate(redraw_keys(self.wid, stream, j)):
            seed = int(np.random.SeedSequence(self.seed, spawn_key=key).generate_state(1)[0])
            spec = H.BatchSpec(count=rows or self.rows, n=self.ns, noise=(None, NOISE),
                               seed=seed, label_prefix=f"sim{stream}-{j}")
            if not any(pole_prone(self.satellites(spec, i, self.cell(i)[0]))
                       for i in range(spec.count)):
                return spec
            if stream != WARM_STREAM:
                self.set_aside[(stream, j, k)] = spec

    def probe(self) -> Probe:
        """Run the first set-aside batches through ``run_batch``, untimed."""
        keys = sorted(self.set_aside)[:PROBE_MAX]
        return Probe(len(self.set_aside)).run(
            lambda spec: H.run_batch(spec, self.csv_path), [self.set_aside[k] for k in keys])

    def warm_up(self) -> None:
        H.run_batch(self.spec(WARM_STREAM, 0, rows=12), self.csv_path)

    def cell(self, i: int) -> tuple[int, bool]:
        # run_batch assigns the (n, noise) grid round-robin, noise varying fastest
        return self.ns[(i // 2) % len(self.ns)], i % 2 == 1

    def run(self, rec: Recorder, stream: int, budget_ns: float, max_count: int,
            tracer=None, first_chunk=None, digest_first: int = 0) -> Phase:
        phase = Phase(start=rec.size, first_ref=len(rec.ref_us), rows_per_call=self.rows)
        clock = time.perf_counter_ns
        j = 0
        while (j < max_count and phase.timed_ns < budget_ns
               and rec.size + self.rows <= rec.capacity):
            spec = self.spec(stream, j)
            ref_before = reference_us()
            if tracer is not None:
                tracer.active, tracer.solve_id = True, j
            t0 = clock()
            try:
                stats, err = H.run_batch(spec, self.csv_path), None
            except Exception as exc:  # a failed batch counts all its rows as failed
                stats, err = None, exc
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            phase.timed_ns += dt
            ref = 0.5 * (ref_before + reference_us())
            rec.ref_us.append(ref)
            first_row = rec.size
            if err is None:
                data = self.csv_path.read_bytes()
                phase.csv_hashes[j] = _hash64(data)
                if self.record(rec, spec, data):
                    rec.latency_us[first_row:rec.size] = dt / 1e3 / spec.count
                    rec.latency_ref[first_row:rec.size] = dt / 1e3 / spec.count / ref
                c = stats.confusion
                rec.batch_oracle_agree += c["tp"] + c["tn"]
                rec.batch_oracle_rows += spec.count
            else:
                rec.error(err)
                for i in range(spec.count):
                    n, noisy = self.cell(i)
                    sats = self.satellites(spec, i, n)
                    rec.add(status=ERROR, n=n, noisy=noisy, fault=False,
                            geom=_hash64(sats.tobytes()))
            j += 1
        phase.stop, phase.stop_ref = rec.size, len(rec.ref_us)
        return phase

    @staticmethod
    def satellites(spec: H.BatchSpec, i: int, n: int) -> np.ndarray:
        # regenerate row i's anchors the way run_batch documents it seeds them
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        return np.asarray(H.generate_scenario(n, spec.r, rng=rng).satellites)

    def record(self, rec: Recorder, spec: H.BatchSpec, data: bytes) -> bool:
        """Check every CSV row; True when the whole batch passed."""
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        all_ok = len(rows) == spec.count
        if not all_ok:
            rec.wrong["csv-row-count"] += 1
        for i in range(spec.count):
            n, noisy = self.cell(i)
            sats = self.satellites(spec, i, n)
            common = dict(n=n, noisy=noisy, fault=False, geom=_hash64(sats.tobytes()))
            row = rows[i] if i < len(rows) else {}
            wrong, tag, pos_err = None, -1, np.nan
            if row.get("verdict") in TAGS:
                tag = TAGS.index(row["verdict"])
            else:
                wrong = "csv-verdict"
            if wrong is None and row.get("n") != str(n):
                wrong = "csv-grid"
            if wrong is None:
                try:
                    pos_err = float(row["pos_err_m"])
                except ValueError:
                    wrong = "no-position"
            if wrong is None and not np.isfinite(pos_err):
                wrong = "no-position"
            if wrong is None and not noisy and not pos_err <= clean_tolerance_m(sats):
                wrong = "clean-position"
            if wrong is not None:
                rec.wrong[wrong] += 1
                rec.add(status=WRONG, tag=tag, **common)
                all_ok = False
            else:
                rec.add(status=OK, pos_err=pos_err, tag=tag, **common)
        return all_ok

    def rerun_matches(self, spec: H.BatchSpec, expected_hash: int) -> bool:
        """Rerun one batch outside the timed loop; its CSV must be byte-identical."""
        H.run_batch(spec, self.csv_path)
        return _hash64(self.csv_path.read_bytes()) == expected_hash


WORKLOADS = {w.name: w for w in (FreshNoisy, Tracking, Simulate)}
