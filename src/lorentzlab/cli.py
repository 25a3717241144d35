"""Command-line front end.

Subcommands: `lab run` executes one named case, `lab suite` sweeps cases
across refinement levels, `lab section-avg` checks the light-cone
averaging identities by Monte Carlo. Configuration comes from flags or a
JSON config file; explicit flags override file values. Exit codes: 0
pass, 1 verification failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import NumericalError, UsageError, DomainError
from .pipeline import (
    CASE_NAMES,
    SCHEMA_VERSION,
    RunConfig,
    report_to_csv,
    report_to_json,
    run_case,
    run_suite,
    section_average_battery,
    write_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Eigenvalue-bound verification lab for compact spacelike submanifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single named case")
    run.add_argument("--case", required=True, help=f"one of: {', '.join(CASE_NAMES)}")
    run.add_argument("--config", default=None, help="JSON config file; flags override")
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--level", type=int, default=None)
    run.add_argument("--samples", type=int, default=None, help="direction samples")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--mc-samples", type=int, default=None, dest="mc_samples")
    run.add_argument("--radius", type=float, default=None)
    run.add_argument("--scale", type=float, default=None, help="cylinder curve scale")
    run.add_argument("--amplitude", type=float, default=None, help="null-graph height amplitude")
    run.add_argument("--tol-disc", type=float, default=None, dest="tol_disc",
                     help="override the discretization-aware bound gate")
    run.add_argument("--tol-eq", type=float, default=None, dest="tol_eq",
                     help="override the equality-verdict threshold")
    run.add_argument("--spec-file", default=None, dest="spec_file")
    run.add_argument("--out", default=None)
    run.add_argument("--format", default=None, choices=("json", "csv"), dest="fmt")
    run.add_argument("--timings", action="store_true", default=None, dest="include_timings")

    suite = sub.add_parser("suite", help="sweep cases across refinement levels")
    suite.add_argument("--levels", default="2,3,4", help="comma-separated levels")
    suite.add_argument("--cases", default="all", help="comma-separated cases, or 'all'")
    suite.add_argument("--samples", type=int, default=6)
    suite.add_argument("--seed", type=int, default=7)
    suite.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
    suite.add_argument("--out", default=None, help="write the suite summary JSON here")
    suite.add_argument("--timings", action="store_true", dest="include_timings")

    avg = sub.add_parser("section-avg", help="Monte Carlo check of the averaging identities")
    avg.add_argument("--m", type=int, default=4)
    avg.add_argument("--samples", type=int, default=1_000_000)
    avg.add_argument("--seed", type=int, default=7)
    avg.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        base.update(loaded)
    # every RunConfig field is a flag of the same dest; --case is required
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            base[f.name] = value
    return RunConfig(**base)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    report = run_case(config)
    if config.out:
        write_report(report, config.out, config.fmt)
        print(f"case={config.case} level={config.level} verdict={report.verdict}")
    else:
        sys.stdout.write(report_to_json(report) if config.fmt == "json" else report_to_csv(report))
    for failure in report.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    for warning in report.warnings:
        print(f"WARN: {warning}", file=sys.stderr)
    return 0 if report.verdict == "pass" else 1


def _cmd_suite(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --levels value {args.levels!r}") from None
    if args.cases.strip() == "all":
        cases = [c for c in CASE_NAMES if c != "custom-spec-file"]
    else:
        cases = [c.strip() for c in args.cases.split(",") if c.strip()]
    base = RunConfig(
        case="sphere-hyperplane",
        samples=args.samples,
        seed=args.seed,
        mc_samples=args.mc_samples,
        include_timings=args.include_timings,
    )
    reports, summary = run_suite(cases, levels, base)
    print(f"{'case':24s} {'level':>5s} {'lambda1':>12s} {'rel_err':>10s} {'minkowski':>10s} verdict")
    for row in summary["rows"]:
        print(
            f"{row['case']:24s} {row['level']:5d} {row['lambda1']:12.8f} "
            f"{row['lambda1_rel_error']:10.2e} {row['minkowski_residual_rel']:10.2e} {row['verdict']}"
        )
    print(f"suite verdict: {summary['verdict']}")
    if args.out:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "summary": summary,
            "reports": [r.to_dict() for r in reports],
        }
        write_report(payload, args.out)
    failing = [r for r in summary["rows"] if r["verdict"] != "pass"]
    for row in failing:
        print(f"FAIL: {row['case']} level {row['level']}", file=sys.stderr)
    for report in reports:
        for warning in report.warnings:
            print(f"WARN: {report.config['case']} level {report.config['level']}: {warning}",
                  file=sys.stderr)
    return 1 if failing else 0


def _cmd_section_avg(args) -> int:
    result = section_average_battery(args.m, args.samples, args.seed)
    if args.out:
        write_report(result, args.out)
    else:
        sys.stdout.write(report_to_json(result))
    return 0 if result["verdict"] == "pass" else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_section_avg(args)
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
