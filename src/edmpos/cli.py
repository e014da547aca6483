"""Command-line interface: check, solve, simulate.

Exit codes: 0 success, 2 measurement fault detected, 3 infeasible geometry,
4 no convergence, 64 bad input (a path that cannot be read or written
included).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .consistency import Verdict, self_consistency_test
from .errors import (
    BadShape,
    EdmPosError,
    GaleInfeasible,
    GeometryRejection,
    NoConvergence,
    PoleEvaluation,
    SingularGeometry,
)
from .harness import (
    BatchSpec,
    ConstantBias,
    GaussianSq,
    PipelineOptions,
    Scenario,
    SingleFault,
    prepare_scenario,
    run_batch,
    run_pipeline,
)

EXIT_OK = 0
EXIT_FAULTY = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BAD_INPUT = 64


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (SingularGeometry, GeometryRejection, GaleInfeasible)):
        return EXIT_INFEASIBLE
    if isinstance(exc, (NoConvergence, PoleEvaluation)):
        return EXIT_NO_CONVERGENCE
    return EXIT_BAD_INPUT


def _options(args) -> PipelineOptions:
    return PipelineOptions(
        scale=args.scale,
        kappa_tol=args.tol,
        debias=getattr(args, "debias", False),
    )


def _cmd_check(args) -> int:
    sc = Scenario.load(args.scenario)
    opts = _options(args)
    _, bundle, measurement = prepare_scenario(sc, opts)
    verdict = self_consistency_test(measurement.dm, bundle, opts.kappa_tol)
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2))
    else:
        print(f"verdict: {verdict.tag.value}")
        print(f"kappa: {verdict.kappa:.6e} (band {verdict.band:.1e})")
        print(f"gale residual: {verdict.gale_residual:.6e}")
        if verdict.borderline:
            print("note: kappa is within a decade of the decision band")
    return EXIT_OK if verdict.tag is Verdict.SELF_CONSISTENT else EXIT_FAULTY


def _cmd_solve(args) -> int:
    sc = Scenario.load(args.scenario)
    report = run_pipeline(sc, method=args.method, opts=_options(args))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"verdict: {report.verdict.tag.value} (kappa {report.verdict.kappa:.6e})")
        print(f"method: {report.method}, iterations: {report.iterations}")
        if report.lambda_star is not None:
            print(f"multiplier: {report.lambda_star:.12e}")
        coords = ", ".join(f"{v:.3f}" for v in report.q)
        print(f"receiver (m): [{coords}]")
        if sc.true_receiver is not None:
            err = float(np.linalg.norm(report.q - np.asarray(sc.true_receiver)))
            print(f"position error vs truth: {err:.6f} m")
        if not report.converged:
            print("warning: solver did not meet its convergence tolerance")
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.verdict.tag is Verdict.SELF_CONSISTENT else EXIT_FAULTY


def _parse_fault(text: str) -> SingleFault:
    try:
        idx, delta = text.split(",")
        return SingleFault(int(idx), float(delta))
    except ValueError as exc:
        raise BadShape(f"--fault expects 'index,delta_sq', got {text!r}") from exc


def _cmd_simulate(args) -> int:
    models = []
    if args.noise_sigma is not None:
        models.append(GaussianSq(args.noise_sigma))
    if args.bias is not None:
        models.append(ConstantBias(args.bias))
    if args.fault is not None:
        models.append(_parse_fault(args.fault))
    noise = tuple(models) if models else None
    ns = tuple(int(v) for v in args.n.split(","))
    spec = BatchSpec(
        count=args.count,
        n=ns if len(ns) > 1 else ns[0],
        r=args.r,
        noise=noise,
        seed=args.seed,
        method=args.method,
        clamp=args.clamp,
        timing=args.timing,
        options=_options(args),
    )
    stats = run_batch(spec, args.out)
    print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
    if args.out:
        print(f"rows written to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmpos",
        description="Distance-matrix consistency checks and receiver positioning "
        "from squared pseudoranges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scale", type=float, default=PipelineOptions.scale,
                       help="coordinate scale applied before linear algebra (default %(default)g)")
        p.add_argument("--tol", type=float, default=PipelineOptions.kappa_tol,
                       help="relative kappa tolerance band (default %(default)g)")

    p_check = sub.add_parser("check", help="consistency verdict for a scenario file")
    p_check.add_argument("scenario", help="scenario JSON file")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="project a scenario and recover the receiver")
    p_solve.add_argument("scenario", help="scenario JSON file")
    p_solve.add_argument("--method", default="auto",
                         choices=["auto", "secular", "unconstrained", "nlp"])
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--debias", action="store_true",
                         help="subtract the estimated constant bias first (4 anchors only)")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run a randomized batch and write CSV + summary")
    p_sim.add_argument("--n", default="6", help="anchor count, or comma list (default 6)")
    p_sim.add_argument("--r", type=int, default=3, help="ambient dimension (default 3)")
    p_sim.add_argument("--count", type=int, default=100, help="total instances (default 100)")
    p_sim.add_argument("--noise-sigma", type=float, default=None,
                       help="Gaussian noise, meters of equivalent range error")
    p_sim.add_argument("--bias", type=float, default=None,
                       help="constant offset on every squared pseudorange, square meters")
    p_sim.add_argument("--fault", default=None,
                       help="'index,delta_sq': offset one anchor's squared pseudorange")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="edmpos_batch.csv", help="CSV output path")
    p_sim.add_argument("--method", default="auto",
                       choices=["auto", "secular", "unconstrained", "nlp"])
    p_sim.add_argument("--clamp", action="store_true",
                       help="clamp negative squared pseudoranges to zero instead of failing")
    p_sim.add_argument("--timing", action="store_true",
                       help="record each row's share of the solve's wall time "
                            "(breaks byte-identical reruns)")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:  # a path that is missing, a directory, or not permitted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except EdmPosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
