"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Tracer, changed_attributes, layer_metrics, package_attributes, self_times  # noqa: E402
from workloads import LAMBDA1_REFERENCE, WORKLOADS, Workload  # noqa: E402

# each workload's command line at a size that runs in about a second
TINY = {
    "solve-l6": Workload("solve-l6", ("run", "--case", "counterexample", "--level", "3"), "run", 1),
    "directions-l5": Workload(
        "directions-l5",
        ("run", "--case", "counterexample", "--level", "3", "--samples", "16"),
        "run",
        1,
    ),
    "suite-l3-5": Workload("suite-l3-5", ("suite", "--levels", "2,3", "--cases", "all"), "suite", 8),
    "section-avg": Workload("section-avg", ("section-avg", "--m", "4", "--samples", "20000"), "section", 20),
}


@pytest.fixture(scope="module")
def tiny_children():
    return {name: bench.run_child(w, 7, traced=False) for name, w in TINY.items()}


def test_tiny_sizes_cover_every_workload():
    assert TINY.keys() == WORKLOADS.keys()
    for name, w in TINY.items():
        assert w.kind == WORKLOADS[name].kind
        assert w.argv[0] == WORKLOADS[name].argv[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, tiny_children):
    child = tiny_children[name]
    assert child["error"] is None
    assert bench.check_operations(TINY[name], child) == (TINY[name].operations, 0, [])
    assert child["wall_s"] > 0 and child["setup_s"] > 0 and child["peak_rss_mb"] > 0


def test_perturbed_lambda1_reference_is_a_failure(tiny_children):
    child = tiny_children["solve-l6"]
    references = dict(LAMBDA1_REFERENCE)
    references[("counterexample", 3)] *= 1 + 1e-9
    attempted, failed, problems = bench.check_operations(TINY["solve-l6"], child, references)
    assert (attempted, failed) == (1, 1)
    assert "differs from" in problems[0]


def test_perturbed_reference_fails_one_suite_row(tiny_children):
    child = tiny_children["suite-l3-5"]
    references = dict(LAMBDA1_REFERENCE)
    references[("cylinder-curve", 2)] *= 1 - 1e-9
    assert bench.check_operations(TINY["suite-l3-5"], child, references)[:2] == (8, 1)


def test_crashed_child_fails_every_operation():
    child = {"error": "Traceback (most recent call last):\nValueError: boom\n", "report": None}
    assert bench.check_operations(WORKLOADS["suite-l3-5"], child) == (12, 12, ["ValueError: boom"])


def test_unreadable_report_fails_every_operation():
    child = {"error": None, "rc": 0, "report": b'{"cases": "truncated'}
    attempted, failed, problems = bench.check_operations(WORKLOADS["section-avg"], child)
    assert (attempted, failed) == (20, 20)
    assert problems[0].startswith("unreadable report")


def test_nonzero_exit_with_passing_report_is_a_failure(tiny_children):
    child = dict(tiny_children["section-avg"], rc=1)
    assert bench.check_operations(TINY["section-avg"], child)[:2] == (20, 20)


def test_traced_run_leaves_report_and_package_unchanged(tiny_children):
    traced = bench.run_child(TINY["directions-l5"], 7, traced=True)
    assert traced["report"] == tiny_children["directions-l5"]["report"]
    assert traced["changed_attributes"] == []
    metrics = layer_metrics(traced["trace"]["spans"], traced["trace"]["counts"])
    assert metrics["pipeline.cases"] == 1
    assert metrics["fem.lu_solves"] == metrics["fem.solve_iterations"] > 0
    assert metrics["bounds.m_form_calls"] > 0 and metrics["bounds.infimum_s"] > 0


def test_tracer_restores_every_lorentzlab_attribute(tmp_path):
    sys.path.insert(0, str(bench.SRC))
    import lorentzlab.cli
    import lorentzlab.fem

    before = package_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert lorentzlab.fem.splu is not before[("lorentzlab.fem", "splu")]
        assert changed_attributes(before, package_attributes())
        argv = ["run", "--case", "counterexample", "--level", "2", "--out", str(tmp_path / "r.json")]
        assert tracer.call("cli.main", None, lorentzlab.cli.main, (argv,)) == 0
    finally:
        tracer.uninstall()
    assert changed_attributes(before, package_attributes()) == []
    metrics = layer_metrics(tracer.spans, tracer.counts)
    assert metrics["fem.geometry_calls"] == 4
    assert metrics["meshes.vertices"] == 162
    assert all(end is not None and end >= start for _, start, end, _ in tracer.spans)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_grouped_calls_record_only_the_outermost_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("bounds.inner", "bounds", lambda: 1)

    assert tracer.call("bounds.outer", "bounds", inner) == 1
    assert [s[0] for s in tracer.spans] == ["bounds.outer"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-l6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
