"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Small fixed-count runs (``--count``), so they finish in well under a minute.
The file name keeps it out of the package's own pytest collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads as W  # noqa: E402
from edmpos.errors import PoleEvaluation  # noqa: E402
from tracer import SPANNED, Tracer  # noqa: E402

WORKLOADS = ("fresh-noisy", "tracking", "simulate")
SMALL = {"fresh-noisy": 48, "tracking": 48, "simulate": 2}

# metrics that depend only on the inputs, so equal seeds must give equal bits
DETERMINISTIC_E2E = ("ok_frac", "pos_err_m.p50", "pos_err_m.p90", "false_alarm_rate")
DETERMINISTIC_LAYER = (
    "consistency.verdict_frac.self-consistent", "consistency.verdict_frac.faulty-positive",
    "consistency.verdict_frac.faulty-negative", "consistency.verdict_frac.gale-infeasible",
    "consistency.oracle_agree_frac", "rootfind.evals_per_solve",
    "rootfind.short_circuit_frac", "solver_general.eval_f.calls_per_solve",
    "edm_core.factor_edm.calls_per_solve", "input.repeat_geometry_frac",
    "input.pole_prone_frac", "probe.pole_prone.calls", "probe.pole_prone.failed",
)


def bench(workload, trace, seed=3, count=None):
    """Run the benchmark in a subprocess from the repository root; return (lines, final JSON)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--count", str(count or SMALL[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def table(lines):
    """The readable table above the JSON line: name -> (value, unit, samples)."""
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and not line.startswith("#") and parts[0] != "metric":
            out[parts[0]] = (float(parts[1]), parts[2], int(parts[3]))
    return out


class BenchmarkOutput(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_lists_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_small_run_prints_every_metric_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = bench(workload, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 run.END_TO_END)
                rows = table(lines)
                for name, unit in run.END_TO_END.items():
                    self.assertEqual(rows[name][1], unit)
                    self.assertGreaterEqual(rows[name][2], 1)
                    self.assertGreater(result["metrics"][name]["value"], 0.0)

    def test_traced_run_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = bench(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 dict(run.PER_LAYER))
                self.assertIn("traced == untraced: True", "\n".join(lines))

    def test_equal_seeds_give_identical_deterministic_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a_lines, a = bench(workload, 0)
                b_lines, b = bench(workload, 0)
                for name in DETERMINISTIC_E2E:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"])
                self.assertEqual(table(a_lines)["failed_frac"], table(b_lines)["failed_frac"])
                self.assertEqual((a["attempted"], a["failed"]), (b["attempted"], b["failed"]))
                _, ta = bench(workload, 1)
                _, tb = bench(workload, 1)
                for name in DETERMINISTIC_LAYER:
                    self.assertEqual(ta["metrics"][name]["value"], tb["metrics"][name]["value"])

    def test_without_the_program_it_fails_and_prints_no_result(self):
        OUT = ROOT / ".perfbench_out"
        OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "tracking",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class InProcess(unittest.TestCase):
    def test_a_raising_instance_is_counted_not_fatal(self):
        real = W.H.run_pipeline

        def flaky(sc, *args, **kwargs):
            if sc.n == 5 and sc.label.endswith("-1"):
                raise PoleEvaluation("injected")
            return real(sc, *args, **kwargs)

        W.H.run_pipeline = flaky
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "fresh-noisy", "--seed", "3", "--trace", "1",
                                 "--count", "8"])
        finally:
            W.H.run_pipeline = real
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertGreaterEqual(result["metrics"]["errors.PoleEvaluation.count"]["value"], 2)
        self.assertGreaterEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 16)

    def test_pole_prone_draws_are_set_aside_and_probed(self):
        work = W.FreshNoisy(3, None)
        insts = [work.instance(0, i) for i in range(3000)]
        self.assertFalse(any(W.pole_prone(x.sc.satellites) for x in insts))
        self.assertGreater(len(work.set_aside), 0)
        self.assertTrue(all(W.pole_prone(sc.satellites) for sc in work.set_aside.values()))
        prone = work.probe()
        self.assertEqual(prone.set_aside, len(work.set_aside))
        self.assertEqual(prone.calls, min(len(work.set_aside), W.PROBE_MAX))

    def test_tracer_leaves_reports_unchanged_and_restores_bindings(self):
        work = W.FreshNoisy(5, None)
        insts = [work.instance(0, i) for i in range(12)]
        before = [W.report_digest(W.H.run_pipeline(x.sc)) for x in insts]
        originals = {name: getattr(sys.modules[f"edmpos.{mod}"], name)
                     for mod, names in SPANNED.items() for name in names}
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(W.H.run_pipeline, originals["run_pipeline"])
            tracer.active = True
            traced = [W.report_digest(W.H.run_pipeline(x.sc)) for x in insts]
        finally:
            tracer.uninstall()
        self.assertEqual(before, traced)
        self.assertGreater(len(tracer.start), len(insts))
        for mod, names in SPANNED.items():
            for name in names:
                self.assertIs(getattr(sys.modules[f"edmpos.{mod}"], name), originals[name])


if __name__ == "__main__":
    unittest.main()
