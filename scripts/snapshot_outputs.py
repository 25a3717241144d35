#!/usr/bin/env python3
"""Write the outputs of a fixed list of `lab` command lines to a directory.

Each command line runs through `lorentzlab.cli.main` in this process, in
its own subdirectory of OUTDIR, which is also its working directory, so
the relative `--out` path a report echoes is the same in every checkout.
The subdirectory receives `stdout.txt`, `stderr.txt`, `exit_code.txt` and
the run's `--out` file, if it writes one. OUTDIR also receives
`environment.txt`: the Python, numpy and scipy versions,
`OPENBLAS_NUM_THREADS`, which the report bytes depend on, and the number
of CPUs the process may run on, which they do not, so a `diff -r` names
such a mismatch apart from a report change. Timings stay off, so two
checkouts that should agree give directories that `diff -r` finds equal
when both run with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout A>/src python scripts/snapshot_outputs.py a
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout B>/src python scripts/snapshot_outputs.py b
    diff -r a b

One checkout run on one CPU and on all of them gives directories whose
`diff -r` names only the CPU line of `environment.txt`:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src taskset -c 0 python scripts/snapshot_outputs.py one
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python scripts/snapshot_outputs.py all
    diff -r one all

The runs cover the benchmark's four command lines, every shipped case at
levels 0, 3 and 4 with n = 1 and 2 and at level 11 with n = 1 (the
two-grid solve next to its residual gate), an equality threshold
override, CSV output to a file and to stdout, a negative seed and a
radius whose n / r^2 is out of range (usage errors), a circle at radii
1e20, 1e60 and 1e-3 (the scale of the test-field check, of the float32
coarse factor and of the equality residual) and 1e154 (whose position
Gram pair overflows), a circle in the null hyperplane of amplitude 1e300
(whose chord metric overflows), a cylinder of scale 1e-3 (whose curve
overflows), a single-level suite of every case and a
one-case suite (the two ends of the suite's schedule), a good and a bad
spec file and the section battery at three seeds. The run directory
names say which run is which.

Usage: python scripts/snapshot_outputs.py OUTDIR
"""

import contextlib
import io
import json
import os
import platform
import sys

import numpy
import scipy

from lorentzlab.cli import main

CASES = ("sphere-hyperplane", "counterexample", "cylinder-curve", "lightlike-hyperplane")

# spec files written into their run's directory before the run
SPECS = {
    "spec-round-sphere": {"gallery": "round-sphere", "n": 2, "params": {"radius": 1.5}},
    "spec-misspelt-key": {"gallery": "round-sphere", "n": 2, "params": {"raduis": 2.0}},
}


def command_lines() -> dict:
    """Run directory name -> `lab` arguments."""
    runs = {
        "bench-solve-l6": ["run", "--case", "counterexample", "--level", "6"],
        "bench-directions-l5": ["run", "--case", "counterexample", "--level", "5",
                                "--samples", "128"],
        "bench-suite-l3-5": ["suite", "--levels", "3,4,5", "--cases", "all"],
        "bench-section-avg": ["section-avg", "--m", "4", "--samples", "400000"],
    }
    for name in runs:
        runs[name] += ["--seed", "7", "--out", "report.json"]
    for case in CASES:
        for n in (1, 2):
            for level in (0, 3, 4):
                runs[f"run-{case}-n{n}-l{level}"] = [
                    "run", "--case", case, "--n", str(n), "--level", str(level)
                ]
        runs[f"run-{case}-n1-l11"] = ["run", "--case", case, "--n", "1", "--level", "11"]
    # a single level, which both threads share, and one finest-level run,
    # which the calling thread keeps
    runs["suite-l4-all"] = ["suite", "--levels", "4", "--cases", "all"]
    runs["suite-l2-3-counterexample"] = ["suite", "--levels", "2,3", "--cases", "counterexample"]
    runs["run-tol-eq"] = ["run", "--case", "sphere-hyperplane", "--level", "3",
                          "--tol-eq", "1e-9", "--out", "report.json"]
    runs["run-csv"] = ["run", "--case", "counterexample", "--level", "3",
                       "--format", "csv", "--out", "report.csv"]
    runs["run-csv-stdout"] = ["run", "--case", "counterexample", "--level", "3",
                              "--format", "csv"]
    runs["run-negative-seed"] = ["run", "--case", "counterexample", "--seed", "-1"]
    runs["run-radius-out-of-range"] = ["run", "--case", "sphere-hyperplane",
                                       "--radius", "1e-200"]
    for radius in ("1e20", "1e60", "1e-3", "1e154"):
        runs[f"run-sphere-hyperplane-n1-l3-r{radius}"] = [
            "run", "--case", "sphere-hyperplane", "--n", "1", "--level", "3", "--radius", radius
        ]
    runs["run-lightlike-hyperplane-n1-l3-a1e300"] = [
        "run", "--case", "lightlike-hyperplane", "--n", "1", "--level", "3", "--amplitude", "1e300"
    ]
    runs["run-cylinder-curve-scale1e-3"] = ["run", "--case", "cylinder-curve", "--scale", "1e-3",
                                            "--level", "2"]
    for name in SPECS:
        runs[name] = ["run", "--case", "custom-spec-file", "--spec-file", "spec.json",
                      "--level", "3", "--out", "report.json"]
    for seed in (1, 7, 99):
        runs[f"section-avg-seed{seed}"] = ["section-avg", "--seed", str(seed),
                                           "--out", "report.json"]
    return runs


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def environment() -> str:
    """The versions and the BLAS thread setting the report bytes depend
    on, and the CPU count they do not."""
    return (f"python {platform.python_version()}\n"
            f"numpy {numpy.__version__}\n"
            f"scipy {scipy.__version__}\n"
            f"OPENBLAS_NUM_THREADS {os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}\n"
            f"cpus {cpu_count()}\n")


def snapshot(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "environment.txt"), "w", encoding="utf-8") as fh:
        fh.write(environment())
    for name, argv in command_lines().items():
        rundir = os.path.join(outdir, name)
        os.makedirs(rundir)
        if name in SPECS:
            with open(os.path.join(rundir, "spec.json"), "w", encoding="utf-8") as fh:
                json.dump(SPECS[name], fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        prev = os.getcwd()
        os.chdir(rundir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(prev)
        for filename, text in (("stdout.txt", stdout.getvalue()),
                               ("stderr.txt", stderr.getvalue()),
                               ("exit_code.txt", f"{code}\n")):
            with open(os.path.join(rundir, filename), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    snapshot(sys.argv[1])
