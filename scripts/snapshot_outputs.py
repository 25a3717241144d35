#!/usr/bin/env python3
"""Write the outputs of a fixed list of `lab` command lines to a directory.

Each command line runs through `lorentzlab.cli.main` in this process, in
its own subdirectory of OUTDIR, which is also its working directory, so
the relative `--out` path a report echoes is the same in every checkout.
The subdirectory receives `stdout.txt`, `stderr.txt`, `exit_code.txt` and
the run's `--out` file, if it writes one. OUTDIR also receives
`environment.txt`: the Python, numpy and scipy versions,
`OPENBLAS_NUM_THREADS` and the number of CPUs the process may run on;
the report bytes depend on neither of the last two, so a `diff -r` that
names only those lines shows equal outputs. Timings stay off, so two
checkouts that should agree give directories that `diff -r` finds equal:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout A>/src python scripts/snapshot_outputs.py a
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout B>/src python scripts/snapshot_outputs.py b
    diff -r a b

One checkout run on one CPU and on all of them, or at two BLAS thread
counts, gives directories whose `diff -r` names only that line of
`environment.txt`:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src taskset -c 0 python scripts/snapshot_outputs.py one
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python scripts/snapshot_outputs.py all
    diff -r one all

The runs cover the benchmark's four command lines, every shipped case at
levels 0, 3 and 4 with n = 1 and 2 and at level 11 with n = 1 (the
two-grid solve next to its residual gate), the counterexample at level
12 with n = 1 (a solve that stalls above the gate and exits 3), an
equality threshold override, CSV output to a file and to stdout, a
negative seed and a radius whose n / r^2 is out of range (usage errors),
a circle at radii 1e20, 1e60 and 1e-3 (the scale of the test-field
check, of the float32 coarse factor and of the equality residual),
1e-120 (whose pencil the eigensolve normalises; its mean-curvature Gram
pair overflows) and 1e154 (whose position Gram pair overflows), a circle
in the null hyperplane of amplitude 1e300 (whose chord metric
overflows), a sphere in it at level 3 of amplitude 1e8 (whose chord
metric rounds to not spacelike) and 1e300 (whose chord metric
overflows), a cylinder of scale 1e-3 (whose curve overflows), a
single-level suite of every case and a one-case suite (the two ends of
the suite's schedule), a good and a bad spec file and the section
battery at three seeds. The run directory names say which run is which.

With `--manifest PATH` the script writes the snapshot to a temporary
directory and records at PATH, as JSON, the Python, numpy and scipy
versions and the SHA-256 of every file the snapshot writes except
`environment.txt`, keyed by its path under OUTDIR.
`tests/golden/manifest.json` is that record for the checked-in code, and
a test rewrites the snapshot and compares; a change that moves report
bytes on purpose re-records it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/snapshot_outputs.py --manifest tests/golden/manifest.json

Usage: python scripts/snapshot_outputs.py OUTDIR
       python scripts/snapshot_outputs.py --manifest PATH
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

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
    runs["run-counterexample-n1-l12"] = ["run", "--case", "counterexample", "--n", "1",
                                         "--level", "12"]
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
    for radius in ("1e20", "1e60", "1e-3", "1e-120", "1e154"):
        runs[f"run-sphere-hyperplane-n1-l3-r{radius}"] = [
            "run", "--case", "sphere-hyperplane", "--n", "1", "--level", "3", "--radius", radius
        ]
    runs["run-lightlike-hyperplane-n1-l3-a1e300"] = [
        "run", "--case", "lightlike-hyperplane", "--n", "1", "--level", "3", "--amplitude", "1e300"
    ]
    for amplitude in ("1e8", "1e300"):
        runs[f"run-lightlike-hyperplane-n2-l3-a{amplitude}"] = [
            "run", "--case", "lightlike-hyperplane", "--level", "3", "--amplitude", amplitude
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


def versions() -> dict:
    """The versions the report bytes depend on."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def environment() -> str:
    """The versions the report bytes depend on, and the BLAS thread
    setting and CPU count they do not."""
    return ("".join(f"{name} {version}\n" for name, version in versions().items())
            + f"OPENBLAS_NUM_THREADS {os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}\n"
            + f"cpus {cpu_count()}\n")


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


def digests(outdir: str) -> dict:
    """Path under OUTDIR -> SHA-256 of every file but `environment.txt`,
    in path order."""
    out = {}
    for root, _, names in os.walk(outdir):
        for filename in names:
            path = os.path.join(root, filename)
            key = os.path.relpath(path, outdir).replace(os.sep, "/")
            if key != "environment.txt":
                with open(path, "rb") as fh:
                    out[key] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def write_manifest(path: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "snapshot")
        snapshot(outdir)
        record = {"versions": versions(), "files": digests(outdir)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--manifest":
        write_manifest(sys.argv[2])
    elif len(sys.argv) == 2 and not sys.argv[1].startswith("-"):
        snapshot(sys.argv[1])
    else:
        sys.exit(__doc__)
