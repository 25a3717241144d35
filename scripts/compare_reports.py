#!/usr/bin/env python3
"""Tolerance-aware diff of two JSON reports of `lab run`, `suite` or `section-avg`.

Keys and their order, strings, booleans, ints and null must be identical.
Floats must agree within 1e-9 * max(1, |old|); the `slack` of a bound
entry (an object with `lhs`, `rhs` and `slack`) must agree within
1e-9 * max(|lhs|, |rhs|) of the old entry. A `lambda1.residual` pair
matches when both values are at most the report's residual gate 1e-8
(`fem.TAU_EIG`): the value only says that the eigensolve passed the gate,
and a solver change may move it by more than 1e-9 within it. A residual
above the gate on either side is a mismatch unless the two are equal. On
a mismatch the worst offenders are printed and the exit code is 1.

Usage: python scripts/compare_reports.py OLD NEW
"""

import argparse
import json
import math
import sys

RTOL = 1e-9
RESIDUAL_GATE = 1e-8  # fem.TAU_EIG, the gate on lambda1.residual
SHOW = 20  # offenders printed on a mismatch


def _walk(old, new, path, out, slack_scale=None):
    """Append (excess, path, message) for every mismatch below `path`.

    `excess` is the float difference over its tolerance, or inf for a
    structural mismatch.
    """
    if type(old) is not type(new):
        out.append((math.inf, path, f"type {type(old).__name__} != {type(new).__name__}"))
    elif isinstance(old, dict):
        if list(old) != list(new):
            out.append((math.inf, path, f"keys {list(old)} != {list(new)}"))
            return
        scale = None
        if {"lhs", "rhs", "slack"} <= old.keys() and all(
            isinstance(old[k], float) for k in ("lhs", "rhs")
        ):
            scale = max(abs(old["lhs"]), abs(old["rhs"]))
        for key in old:
            _walk(old[key], new[key], f"{path}.{key}", out, scale if key == "slack" else None)
    elif isinstance(old, list):
        if len(old) != len(new):
            out.append((math.inf, path, f"length {len(old)} != {len(new)}"))
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{i}]", out)
    elif isinstance(old, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        if path.endswith(".lambda1.residual"):
            if not (old <= RESIDUAL_GATE and new <= RESIDUAL_GATE):
                out.append((math.inf, path, f"{old!r} -> {new!r} (above the gate {RESIDUAL_GATE:g})"))
            return
        tol = RTOL * (slack_scale if slack_scale is not None else max(1.0, abs(old)))
        diff = abs(new - old)
        if not diff <= tol:
            excess = diff / tol if tol > 0 else math.inf
            out.append((excess, path, f"{old!r} -> {new!r} (diff {diff:.3e}, tol {tol:.3e})"))
    elif old != new:
        out.append((math.inf, path, f"{old!r} != {new!r}"))


def compare(old, new) -> list:
    """Mismatches between two parsed reports, worst first."""
    out = []
    _walk(old, new, "$", out)
    return sorted(out, key=lambda item: -item[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    mismatches = compare(old, new)
    if not mismatches:
        print(f"{args.new}: matches {args.old} within rtol {RTOL:g}")
        return 0
    print(f"{args.new}: {len(mismatches)} mismatch(es) against {args.old}; worst first:")
    for _, path, message in mismatches[:SHOW]:
        print(f"  {path}: {message}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
