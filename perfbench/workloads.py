"""Workloads of the lorentzlab benchmark and the reference outputs they are checked against.

Each workload is one `lab` command line; the benchmark appends
`--seed <seed> --out report.json` and runs it as `lorentzlab.cli.main(argv)`.
See README.md beside this file for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# seed the report digests below were recorded at (the CLI's default seed)
DEFAULT_SEED = 7

# relative tolerance of the lambda1 check
LAMBDA1_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    kind: str  # "run", "suite" or "section": how the report is read
    operations: int  # case runs, or Monte Carlo checks, per invocation


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-l6", ("run", "--case", "counterexample", "--level", "6"), "run", 1),
        Workload(
            "directions-l5",
            ("run", "--case", "counterexample", "--level", "5", "--samples", "128"),
            "run",
            1,
        ),
        Workload("suite-l3-5", ("suite", "--levels", "3,4,5", "--cases", "all"), "suite", 12),
        Workload("section-avg", ("section-avg", "--m", "4", "--samples", "400000"), "section", 20),
    )
}

# lambda1 per (case, level) with n = 2, recorded at seed 7; seeds 7, 8 and
# 123 agree to 2e-14 relative
LAMBDA1_REFERENCE = {
    ("sphere-hyperplane", 2): 2.0462552806403718,
    ("sphere-hyperplane", 3): 2.0115447079262974,
    ("sphere-hyperplane", 4): 2.00288535095035,
    ("sphere-hyperplane", 5): 2.0007213106503845,
    ("counterexample", 2): 2.0392764916037702,
    ("counterexample", 3): 2.0098083572057615,
    ("counterexample", 4): 2.0024517927927317,
    ("counterexample", 5): 2.0006129543375164,
    ("counterexample", 6): 2.0001532405047024,
    ("cylinder-curve", 2): 2.0445093075059493,
    ("cylinder-curve", 3): 2.011110543622558,
    ("cylinder-curve", 4): 2.002776956682135,
    ("cylinder-curve", 5): 2.000694221277712,
    ("lightlike-hyperplane", 2): 2.0462552806403727,
    ("lightlike-hyperplane", 3): 2.011544707926297,
    ("lightlike-hyperplane", 4): 2.0028853509503532,
    ("lightlike-hyperplane", 5): 2.000721310650374,
}

# SHA-256 of each workload's report file at DEFAULT_SEED, timings off
REPORT_SHA256 = {
    "solve-l6": "e29dace11be2283e5d8c9997d9de69945f76b5a5f72b1271fde5c383942dcf12",
    "directions-l5": "0d2e7147a7dd597817fb86c89538faa7740aa3c35c5f64894cbee70f46aa48c9",
    "suite-l3-5": "7aefaf3fcb035dbca1db798c2ad3e87b96b03748fb22367a66f4a9c1684f60b8",
    "section-avg": "43d017dcacff9237701c85494c38a8d036d42f92593e86131dfa1676ee25c9df",
}
