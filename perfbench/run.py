"""Benchmark of the lorentzlab command line, run from the root of a checkout.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each operation is `lorentzlab.cli.main(argv)`
in a fresh child process (child.py), started only after the previous one
has ended, until `--seconds` have passed. The seed is handed to the
program as `--seed`. Every report is checked against the references in
workloads.py. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before
it print every metric by name with its unit, and the environment.

With `--trace 0` the children run untraced and the metrics are the
end-to-end ones. With `--trace 1` untraced and traced children alternate;
the metrics are the per-layer ones, from the traced children, plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracer import PER_LAYER_METRICS, layer_metrics
from workloads import DEFAULT_SEED, LAMBDA1_REFERENCE, LAMBDA1_RTOL, REPORT_SHA256, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

END_TO_END_METRICS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# the eigensolver is single-threaded by contract; one BLAS thread keeps
# runs on a small shared machine from competing with themselves
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0
# printed with a note: these figures are computed by the program, not measured
COMPUTED = ("fem.stiffness_nnz", "fem.factor_nnz", "pipeline.report_bytes")


def run_child(workload: Workload | None, seed: int, traced: bool) -> dict:
    """Run one operation in a fresh interpreter and collect what it left.

    With `workload=None` the child only imports the package. The result
    holds the child's own measurements plus `report` (the bytes of its
    report file, or None), `trace` (spans and counters of a traced run)
    and `elapsed_s` (the parent's wall time for the whole process).
    """
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        spec = {
            "src": str(SRC),
            "argv": None if workload is None else list(workload.argv) + ["--seed", str(seed)],
            "trace": traced,
        }
        env = dict(os.environ, **CHILD_ENV)
        spawned = time.monotonic()
        spec["spawned"] = spawned
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        elapsed = time.monotonic() - spawned
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        except json.JSONDecodeError:
            result = {}
        if not result:
            result = {"error": f"child exited with code {proc.returncode}: {err.strip()[-2000:]}"}
        result["elapsed_s"] = elapsed
        report = Path(workdir, "report.json")
        result["report"] = report.read_bytes() if report.is_file() else None
        trace = Path(workdir, "trace.json")
        result["trace"] = json.loads(trace.read_text(encoding="utf-8")) if trace.is_file() else None
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _lambda1_failure(case, level, value, references) -> str | None:
    ref = references.get((case, level))
    if ref is None:
        return f"{case} level {level}: no lambda1 reference"
    if not abs(value - ref) <= LAMBDA1_RTOL * abs(ref):
        return f"{case} level {level}: lambda1 {value!r} differs from {ref!r}"
    return None


def check_operations(workload: Workload, child: dict, references=None) -> tuple[int, int, list]:
    """Attempted and failed operations of one child, with a message per failure.

    An operation fails on an exception, a nonzero exit code, a verdict
    other than `pass`, or a lambda1 more than LAMBDA1_RTOL relative from
    the reference for its (case, level).
    """
    references = LAMBDA1_REFERENCE if references is None else references
    if child.get("error") or child.get("report") is None:
        reason = child.get("error") or "no report written"
        return workload.operations, workload.operations, [reason.strip().splitlines()[-1]]
    try:
        payload = json.loads(child["report"])
        if workload.kind == "run":
            ops = [(payload["config"]["case"], payload["config"]["level"], payload["verdict"],
                    payload["lambda1"]["value"])]
        elif workload.kind == "suite":
            ops = [(r["case"], r["level"], r["verdict"], r["lambda1"]) for r in payload["summary"]["rows"]]
        else:
            ops = [(f"{c['lemma']} form {c['form']} direction {c['direction']}", None,
                    "pass" if c["pass"] else "fail", None) for c in payload["cases"]]
    except (ValueError, KeyError, TypeError) as exc:
        return workload.operations, workload.operations, [f"unreadable report: {exc!r}"]
    problems = []
    failed = 0
    for case, level, verdict, value in ops:
        problem = None
        if verdict != "pass":
            problem = f"{case} level {level}: verdict {verdict}"
        elif value is not None:
            problem = _lambda1_failure(case, level, value, references)
        if problem:
            failed += 1
            problems.append(problem)
    if child.get("rc") != 0 and not failed:
        failed = len(ops)
        problems.append(f"exit code {child.get('rc')} although every operation passed")
    return len(ops), failed, problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of children for `seconds`; returns them with their checks."""
    compileall.compile_dir(str(SRC / "lorentzlab"), quiet=1)
    run_child(None, seed, False)  # warm the page cache and bytecode before timing
    min_children = 4 if trace else 3
    children = []
    start = time.monotonic()
    while True:
        # with tracing, untraced and traced children alternate; stop after a pair
        traced = trace and len(children) % 2 == 1
        child = run_child(workload, seed, traced)
        child["traced"] = traced
        children.append(child)
        elapsed = time.monotonic() - start
        next_s = max(c["elapsed_s"] for c in children[-2:])
        if len(children) >= min_children and elapsed + next_s > seconds and traced == trace:
            break
    attempted = failed = 0
    problems = []
    for child in children:
        a, f, p = check_operations(workload, child)
        attempted += a
        failed += f
        problems += p
    return {"children": children, "attempted": attempted, "failed": failed, "problems": problems}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(workload: Workload, seed: int, run: dict, trace: bool) -> tuple[dict, list, bool]:
    """Metrics, printable notes and overall correctness of one measured run."""
    children = run["children"]
    plain = [c for c in children if not c["traced"] and "wall_s" in c]
    traced = [c for c in children if c["traced"] and "wall_s" in c]
    notes = [f"{len(plain)} untraced and {len(traced)} traced children"]
    correct = run["failed"] == 0

    reports = {c["report"] for c in children if c["report"] is not None}
    if len(reports) > 1:
        correct = False
        notes.append("reports differ between children of one run (traced or not)")
    digest = hashlib.sha256(next(iter(reports))).hexdigest() if reports else None
    expected = REPORT_SHA256.get(workload.name) if seed == DEFAULT_SEED else None
    report_changed = int(expected is not None and digest != expected)
    if expected is None:
        notes.append(f"report sha256 {digest} (no reference at seed {seed})")
    else:
        notes.append(f"report sha256 {digest} {'differs from' if report_changed else 'matches'} the reference")

    for child in traced:
        if child.get("changed_attributes"):
            correct = False
            notes.append(f"tracer left attributes changed: {child['changed_attributes'][:5]}")

    if not trace:
        metrics = {
            "wall_s": _median([c["wall_s"] for c in plain]),
            "setup_s": _median([c["setup_s"] for c in plain]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        }
        units = dict(END_TO_END_METRICS)
    else:
        per_child = [layer_metrics(c["trace"]["spans"], c["trace"]["counts"]) for c in traced if c["trace"]]
        metrics = {name: _median([m[name] for m in per_child]) for name in per_child[0]} if per_child else {}
        metrics["pipeline.report_bytes"] = float(len(next(iter(reports)))) if reports else 0.0
        metrics["pipeline.report_changed"] = float(report_changed)
        metrics["process.cpu_s"] = _median([c["cpu_s"] for c in plain])
        metrics["trace.overhead_s"] = _median([c["wall_s"] for c in traced]) - _median([c["wall_s"] for c in plain])
        units = dict(PER_LAYER_METRICS)
        for name in units:
            metrics.setdefault(name, 0.0)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, notes, correct


def environment_lines(children: list) -> list:
    env = next((c["environment"] for c in children if c.get("environment")), None)
    if env is None:
        return ["environment: unknown (no child finished)"]
    lines = [
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['affinity_cpus']} (cpu_count {env['cpu_count']}); machine not tuned",
        f"blas threads: OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} set for every child",
    ]
    for lib in env["openblas"]:
        lines.append(f"openblas: {lib['library']}: {lib['config']}; threads in use {lib['threads']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lorentzlab" / "__init__.py").is_file():
        print(f"error: no lorentzlab sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run = measure(workload, args.seed, args.seconds, trace)
    metrics, notes, correct = summarize(workload, args.seed, run, trace)

    print(f"workload {workload.name}: lab {' '.join(workload.argv)} --seed {args.seed}; "
          f"{args.seconds:g} s closed loop, one client, trace {args.trace}")
    for line in environment_lines(run["children"]) + notes:
        print(line)
    for problem, count in Counter(run["problems"]).items():
        print(f"FAILED ({count}x): {problem}")
    ratio = run["failed"] / max(run["attempted"], 1)
    print(f"fail_ratio {ratio:.6g} ({run['failed']} of {run['attempted']} operations)")
    for name, entry in metrics.items():
        label = " (computed, not measured)" if name in COMPUTED else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{label}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
