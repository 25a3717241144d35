import concurrent.futures
import json
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lorentzlab import bounds, cli, meshes, pipeline
from lorentzlab.bounds import BoundEngine
from lorentzlab.cli import main
from lorentzlab.errors import NumericalError, UsageError
from lorentzlab.immersions import immersion_from_spec
from lorentzlab.pipeline import (
    RunConfig,
    RunReport,
    report_to_csv,
    report_to_json,
    run_case,
    run_suite,
    section_average_battery,
)
from oracles import (
    bound_catalogue_loop,
    run_suite_serial,
    section_average_battery_serial,
    section_check,
)


@pytest.fixture(scope="module")
def sphere_report():
    return run_case(RunConfig(case="sphere-hyperplane", level=3, samples=4))


@pytest.fixture(scope="module")
def counter_report():
    return run_case(RunConfig(case="counterexample", level=3, samples=4))


def test_config_validation():
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", level=-1)
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", samples=0)
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", fmt="xml")
    with pytest.raises(UsageError):
        run_case(RunConfig(case="not-a-case"))
    with pytest.raises(UsageError):
        run_case(RunConfig(case="custom-spec-file"))


def test_sphere_case_passes_with_equality_flags(sphere_report):
    report = sphere_report
    assert report.verdict == "pass"
    assert report.failures == []
    by_name = {}
    for bound in report.bounds:
        by_name.setdefault(bound["name"], []).append(bound)
    assert all(b["holds"] for b in by_name["reilly"])
    assert all(b["holds"] for b in by_name["projected-curvature"])
    # equality detected at the hyperplane normal
    assert report.equality[0]["verdict"] == "equality-case"
    assert report.equality[0]["projection_bound_rel_slack"] <= 2e-2
    cert = by_name["reilly-causal-certificate"][0]
    assert cert["status"] == "ok" and cert["meta"]["equality"]


def test_counterexample_case_reilly_violated_as_expected(counter_report):
    report = counter_report
    assert report.verdict == "pass"
    reilly = [b for b in report.bounds if b["name"] == "reilly"][0]
    assert reilly["holds"] is False
    assert reilly["expected_holds"] is False
    assert reilly["as_expected"] is True
    for bound in report.bounds:
        if bound["name"].startswith("projected-curvature"):
            assert bound["holds"]
    assert all(e["verdict"] != "equality-case" for e in report.equality)
    assert "causal_defect_search" in report.identities
    assert not report.identities["causal_defect_search"]["found"]


def test_counterexample_n1_same_verdict_shape():
    report = run_case(RunConfig(case="counterexample", n=1, level=3, samples=3))
    assert report.verdict == "pass"
    reilly = [b for b in report.bounds if b["name"] == "reilly"][0]
    assert reilly["holds"] is False and reilly["as_expected"] is True
    assert report.lambda1["value"] == pytest.approx(1.0, rel=1e-2)


def test_every_bound_carries_anchor_and_schema_fields(sphere_report):
    payload = sphere_report.to_dict()
    assert payload["schema_version"] == "1"
    for bound in payload["bounds"]:
        assert bound["anchor"]
        for key in ("name", "lhs", "rhs", "slack", "holds", "tol", "status"):
            assert key in bound


def test_report_json_deterministic():
    config = RunConfig(case="counterexample", level=2, samples=3, mc_samples=5000)
    # a fresh mesh first, then the memoized one with its ND order filled
    pipeline._build_mesh.cache_clear()
    first = report_to_json(run_case(config))
    second = report_to_json(run_case(config))
    assert first == second


def test_timings_excluded_by_default_included_on_request():
    config = RunConfig(case="sphere-hyperplane", level=2, samples=2, mc_samples=5000)
    report = run_case(config)
    assert report.to_dict()["timings"] is None
    timed = run_case(
        RunConfig(
            case="sphere-hyperplane", level=2, samples=2, mc_samples=5000, include_timings=True
        )
    )
    assert set(timed.to_dict()["timings"]) == {"setup", "assemble_solve", "bounds", "identities"}
    # a suite times its shared set-up once, and every run carries it
    reports, _ = run_suite(["sphere-hyperplane", "counterexample"], [1, 2],
                           replace(config, include_timings=True))
    assert len({report.timings["setup"] for report in reports}) == 1


def test_csv_flattens_bounds(sphere_report):
    text = report_to_csv(sphere_report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("case,level,name,anchor")
    assert len(lines) == 1 + len(sphere_report.bounds)


def test_custom_spec_file_case(tmp_path):
    spec = {"gallery": "round-sphere", "n": 2, "params": {"radius": 1.25, "m": 5}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    report = run_case(
        RunConfig(case="custom-spec-file", spec_file=str(path), level=3, samples=3)
    )
    assert report.verdict == "pass"
    assert report.lambda1["value"] == pytest.approx(2.0 / 1.25**2, rel=1e-2)
    # the reference is the round sphere of radius 1.25, not the unit sphere
    assert report.lambda1["reference"] == 2.0 / 1.25**2
    assert report.lambda1["rel_error"] == abs(report.lambda1["value"] - 1.28) / 1.28
    assert report.lambda1["rel_error"] < 1e-2


@pytest.mark.parametrize(
    "case, params, closed_form",
    [
        ("sphere-hyperplane", {"radius": 1.5}, lambda n: Fraction(n) / Fraction(1.5) ** 2),
        ("counterexample", {}, {1: Fraction(5, 8), 2: Fraction(26, 15)}.get),
        ("cylinder-curve", {"scale": 2.0}, {1: Fraction(29, 32), 2: Fraction(29, 15)}.get),
        ("lightlike-hyperplane", {}, Fraction),
    ],
)
@pytest.mark.parametrize("n", [1, 2])
def test_reilly_slice_matches_the_closed_form(case, params, closed_form, n):
    # n times the mean of <H, H>: 1/r^2 on a sphere of radius r, 1 on the
    # null hyperplane, and 1 - (1-t^2)^2 / (n c)^2 on a cylinder of scale c,
    # whose mean is 3/8 on the circle and 8/15 on the 2-sphere
    config = RunConfig(case=case, n=n, level=0, samples=1, mc_samples=1000, **params)
    value = run_case(config).identities["reilly_rhs_slice"]
    exact = float(closed_form(n))
    assert abs(value - exact) <= 1e-15 * exact


def test_cli_spec_file_report_echoes_the_n_it_ran(tmp_path):
    # the spec file's n wins over the run's default n = 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"gallery": "counterexample", "n": 1, "params": {}}), encoding="utf-8")
    out = tmp_path / "r.json"
    argv = ["run", "--case", "custom-spec-file", "--spec-file", str(spec), "--level", "2"]
    assert main(argv + ["--samples", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["n"] == 1
    assert payload["bounds"][0]["meta"]["vertices"] == 64


@pytest.mark.parametrize(
    "spec, echo",
    [
        ({"gallery": "round-sphere", "n": 2, "params": {"radius": 1.5}}, {"n": 2, "radius": 1.5}),
        ({"gallery": "cylinder-curve", "n": 1, "params": {"scale": -3.0}}, {"n": 1, "scale": -3.0}),
        ({"gallery": "lightlike-hyperplane", "n": 1, "params": {"amplitude": 0.25}},
         {"n": 1, "amplitude": 0.25}),
        # gallery items without the parameter leave its default
        ({"gallery": "counterexample", "n": 1}, {"n": 1}),
        ({"gallery": "cylinder-curve", "n": 1, "params": {"curve": "line"}}, {"n": 1}),
    ],
    ids=["round-sphere", "hyperbola", "lightlike-hyperplane", "counterexample", "line"],
)
def test_spec_file_report_echoes_its_parameters(tmp_path, spec, echo):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    config = RunConfig(case="custom-spec-file", spec_file=str(path), level=0, samples=1,
                       mc_samples=1000)
    report = run_case(config)
    expected = {"n": 2, "radius": 1.0, "scale": 2.0, "amplitude": 0.5} | echo
    assert {key: report.config[key] for key in expected} == expected


def test_case_run_computes_geometry_and_mean_curvature_once(monkeypatch):
    from lorentzlab import bounds, fem, quadrature

    calls = {"mesh_geometry": 0, "mean_curvature_vertices": 0}
    # every module binding each function is looked up through
    bindings = {"mesh_geometry": (fem,), "mean_curvature_vertices": (quadrature, bounds)}
    for name, modules in bindings.items():
        original = getattr(modules[0], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            assert getattr(module, name) is original
            monkeypatch.setattr(module, name, counted)
    run_case(RunConfig(case="counterexample", level=2, samples=2, mc_samples=5000))
    assert calls == {"mesh_geometry": 1, "mean_curvature_vertices": 1}


def test_bound_tables_match_one_direction_oracles_bitwise(monkeypatch):
    engines = []

    class RecordingEngine(BoundEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(pipeline, "BoundEngine", RecordingEngine)
    verdicts, paths = set(), set()
    coarse_messages = fine_messages = 0
    runs = [
        {"case": case, "n": n, "level": level, "tol_eq": tol_eq}
        for case in ("sphere-hyperplane", "counterexample", "cylinder-curve", "lightlike-hyperplane")
        for n, levels in ((2, (0, 2, 3, 4)), (1, (3,)))
        for level in levels
        # 0.1 puts the sphere below the equality tolerance, the
        # counterexample between it and the strict threshold, and
        # part of the lightlike-hyperplane residuals above that
        for tol_eq in (None, 0.1)
    ] + [
        # gates that fail on a fine mesh
        {"case": "sphere-hyperplane", "level": 3, "tol_eq": 1e-9, "tol_disc": 1e-9},
        {"case": "counterexample", "level": 3, "tol_eq": 10.0},
    ]
    for overrides in runs:
        config = RunConfig(samples=40, mc_samples=5000, **overrides)
        report = run_case(config)
        bounds, equality, gated = bound_catalogue_loop(engines.pop(), config)
        assert report.bounds == bounds
        assert report.equality == equality
        # key order and the repr of every float, -0.0 included
        assert json.dumps(report.bounds) == json.dumps(bounds)
        assert json.dumps(report.equality) == json.dumps(equality)
        # below level 3 a discretization-sensitive check only warns
        coarse = config.level < 3
        assert report.failures == [msg for msg, sensitive, _ in gated if not (sensitive and coarse)]
        assert report.warnings == [msg + note for msg, sensitive, note in gated if sensitive and coarse]
        coarse_messages += len(report.warnings)
        fine_messages += len(report.failures)
        verdicts.update(e["verdict"] for e in equality)
        paths.add("certificate" if bounds[-1]["name"] == "reilly-causal-certificate" else "search")
    assert verdicts == {"equality-case", "inconclusive", "strict"}
    assert paths == {"certificate", "search"}
    assert fine_messages > 0
    assert coarse_messages > 0


def test_run_suite_convergence_and_validation():
    with pytest.raises(UsageError):
        run_suite([], [2], RunConfig(case="sphere-hyperplane"))
    reports, summary = run_suite(
        ["sphere-hyperplane"], [2, 3], RunConfig(case="sphere-hyperplane", samples=3, mc_samples=5000)
    )
    assert summary["verdict"] == "pass"
    errs = [row["lambda1_rel_error"] for row in summary["rows"]]
    assert errs[0] > errs[1]


SUITE_CASES = ["sphere-hyperplane", "counterexample", "cylinder-curve", "lightlike-hyperplane"]


def test_suite_reports_match_standalone_runs():
    base = RunConfig(case="sphere-hyperplane", samples=3, mc_samples=20_000)
    standalone = []
    for case in SUITE_CASES:
        for level in (2, 3):
            # a mesh of its own, as in a fresh process
            pipeline._build_mesh.cache_clear()
            standalone.append(report_to_json(run_case(replace(base, case=case, level=level))))
    # the suite starts as a fresh process too, then shares across its runs
    pipeline._build_mesh.cache_clear()
    reports, _ = run_suite(SUITE_CASES, [2, 3], base)
    assert [report_to_json(r) for r in reports] == standalone


def test_suite_shares_meshes_orders_and_monte_carlo_checks(monkeypatch):
    calls = Counter()
    bindings = [
        (pipeline, "build_icosphere_mesh"),
        (meshes, "nested_dissection_order"),
        (pipeline, "monte_carlo_section_integral"),
    ]
    for module, name in bindings:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    requested = set()

    class Requesting(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            if fn is pipeline._section_check:
                requested.add(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Requesting)
    at_runs = []
    evaluate = pipeline._evaluate_case

    def recorded(*args):
        at_runs.append((Counter(calls), set(requested)))
        return evaluate(*args)

    monkeypatch.setattr(pipeline, "_evaluate_case", recorded)
    built = []
    build = pipeline._build_case

    def building(config):
        built.append(config.case)
        return build(config)

    monkeypatch.setattr(pipeline, "_build_case", building)
    pipeline._build_mesh.cache_clear()
    run_suite(SUITE_CASES, [1, 2], RunConfig(case="sphere-hyperplane", samples=2, mc_samples=5000))
    # each case is built once, not once per run
    assert built == SUITE_CASES
    # once per level, and once per ambient dimension (4, and 5 for lightlike-hyperplane)
    assert calls == {name: 2 for _, name in bindings}
    # the meshes and orders are built before the first run, so no two runs
    # can compute one; the checks are started before it and may still be
    # running on the suite's helper, whose future every run of an m shares
    checks = {(4, 5000, 7), (5, 5000, 7)}
    assert [
        (counts["build_icosphere_mesh"], counts["nested_dissection_order"], keys)
        for counts, keys in at_runs
    ] == [(2, 2, checks)] * 8


def test_suite_meshes_are_read_only(monkeypatch):
    built = []
    build = pipeline.build_icosphere_mesh

    def recording(level):
        built.append(build(level))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_icosphere_mesh", recording)
    pipeline._build_mesh.cache_clear()
    mesh = pipeline._build_mesh(2, 1)
    coarse = mesh.coarse
    arrays = (mesh.vertices, mesh.simplices, mesh.parents, coarse.vertices, coarse.simplices)
    copies = [array.copy() for array in arrays]
    run_suite(["counterexample"], [1], RunConfig(case="counterexample", samples=2, mc_samples=5000))
    assert len(built) == 1 and built[0] is mesh and mesh.coarse is coarse
    # the mesh is complete when it is built: the solve factors the coarse
    # level as the mesh numbers it, and renumbers nothing
    for array, copy in zip(arrays, copies):
        assert np.array_equal(array, copy)
        with pytest.raises(ValueError):
            array[0] = 0


def _patch_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)), raising=False)


def _record_suite(monkeypatch, hold: bool) -> list:
    """Record ("start" or "end", case, level, thread, live threads) as
    every run of a suite starts and ends. With `hold`, each run on the
    calling thread waits until the helper has started a run."""
    events = []
    lock = threading.Lock()
    caller = threading.current_thread()
    helper_started = threading.Event()
    evaluate = pipeline._evaluate_case

    def record(kind, config) -> None:
        with lock:
            events.append((kind, config.case, config.level, threading.current_thread(),
                           threading.active_count()))

    def recorded(config, *args):
        record("start", config)
        if threading.current_thread() is not caller:
            helper_started.set()
        elif hold:
            assert helper_started.wait(timeout=60)
        try:
            return evaluate(config, *args)
        finally:
            record("end", config)

    monkeypatch.setattr(pipeline, "_evaluate_case", recorded)
    return events


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_suite_reports_do_not_depend_on_cpu_count(monkeypatch, cpus):
    base = RunConfig(case="sphere-hyperplane", samples=2, mc_samples=5000)
    levels = [1, 3, 2]
    standalone = []
    for case in SUITE_CASES:
        for level in levels:
            pipeline._build_mesh.cache_clear()
            standalone.append(report_to_json(run_case(replace(base, case=case, level=level))))
    serial_reports, serial_summary = run_suite_serial(SUITE_CASES, levels, base)
    assert [report_to_json(r) for r in serial_reports] == standalone
    _patch_cpus(monkeypatch, cpus)
    pipeline._build_mesh.cache_clear()
    reports, summary = run_suite(SUITE_CASES, levels, base)
    assert [report_to_json(r) for r in reports] == standalone
    assert summary == serial_summary


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_suite_shares_its_finest_level_from_both_ends_of_one_queue(monkeypatch, cpus):
    _patch_cpus(monkeypatch, cpus)
    caller = threading.current_thread()
    before = threading.active_count()
    base = RunConfig(case="sphere-hyperplane", samples=2, mc_samples=5000)
    # (cases, levels, hold); a held calling thread lets the helper reach
    # the queue while it is still full
    suites = [
        (SUITE_CASES, [2, 0, 1], True),
        (SUITE_CASES, [1], True),
        (["counterexample"], [0, 2, 1], False),
        (["counterexample"], [1], False),
    ]
    for cases, levels, hold in suites:
        with monkeypatch.context() as patch:
            events = _record_suite(patch, hold)
            run_suite(cases, levels, base)
        number = {run: i for i, run in enumerate((c, level) for c in cases for level in levels)}
        finest = [number[case, max(levels)] for case in cases]
        starts = [(number[case, level], thread, live)
                  for kind, case, level, thread, live in events if kind == "start"]
        assert sorted(i for i, _, _ in starts) == list(range(len(number)))
        helpers = {thread for _, thread, _ in starts if thread is not caller}
        assert len(helpers) <= 1
        assert all(thread.name.startswith("suite") for thread in helpers)
        assert all(live <= before + 1 for _, _, live in starts)
        # the calling thread takes from the front, the helper from the back
        mine = [i for i, thread, _ in starts if thread is caller and i in finest]
        theirs = [i for i, thread, _ in starts if thread is not caller and i in finest]
        assert mine + theirs[::-1] == finest
        assert mine[0] == finest[0]
        if len(cases) > 1:
            # the helper's first run is the last in the queue
            assert [i for i, thread, _ in starts if thread is not caller][0] == finest[-1]
        else:
            assert theirs == []
        in_flight = peak = 0
        for kind, case, level, _, _ in events:
            if level == max(levels):
                in_flight += 1 if kind == "start" else -1
                peak = max(peak, in_flight)
        assert peak == (2 if len(cases) > 1 else 1)
    assert threading.active_count() == before


def test_suite_queue_hands_out_each_run_once_under_fast_thread_switching(monkeypatch):
    # a lost update on the shared queue would run a run twice or drop one
    cases = SUITE_CASES * 6
    base = RunConfig(case="sphere-hyperplane", samples=2, mc_samples=2000)
    events = _record_suite(monkeypatch, hold=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports, _ = run_suite(cases, [0], base)
    finally:
        sys.setswitchinterval(interval)
    caller = threading.current_thread()
    starts = [(thread, case) for kind, case, _, thread, _ in events if kind == "start"]
    assert len(starts) == len(cases) == len(reports)
    assert [report.config["case"] for report in reports] == cases
    mine = sum(thread is caller for thread, _ in starts)
    # the caller's runs are the queue's front, in report order
    assert [case for thread, case in starts if thread is caller] == cases[:mine]
    assert sorted(case for thread, case in starts if thread is not caller) == sorted(cases[mine:])


@pytest.mark.parametrize(
    "failing",
    [
        # (case, level) of the failing runs; the first in report order is raised
        [("counterexample", 1), ("cylinder-curve", 0)],  # the calling thread's lane first
        [("counterexample", 0), ("cylinder-curve", 1)],  # the helper's lane first
        [("sphere-hyperplane", 0), ("sphere-hyperplane", 1), ("lightlike-hyperplane", 0)],
        # the helper's first, stolen, finest-level run and a coarser run before it
        [("cylinder-curve", 0), ("lightlike-hyperplane", 1)],
    ],
    ids=["finest-lane-first", "coarse-lane-first", "both-lanes-early", "stolen-run-and-coarser"],
)
def test_cli_suite_numerical_failure_in_a_lane_exits_3(monkeypatch, capsys, failing):
    _patch_cpus(monkeypatch, 2)
    evaluate = pipeline._evaluate_case

    def failing_run(config, *args):
        if (config.case, config.level) in failing:
            raise NumericalError(f"injected failure at {config.case} level {config.level}")
        return evaluate(config, *args)

    # the serial oracle's `run_case` evaluates through it too
    monkeypatch.setattr(pipeline, "_evaluate_case", failing_run)
    argv = ["suite", "--levels", "0,1", "--cases", "all", "--samples", "2", "--mc-samples", "1000"]
    monkeypatch.setattr(cli, "run_suite", run_suite_serial)
    assert main(argv) == 3
    serial = capsys.readouterr()
    monkeypatch.setattr(cli, "run_suite", run_suite)
    before = set(threading.enumerate())
    assert main(argv) == 3
    captured = capsys.readouterr()
    case, level = failing[0]
    assert captured.out == serial.out == ""
    expected = f"numerical failure: injected failure at {case} level {level}\n"
    assert captured.err == serial.err == expected
    assert set(threading.enumerate()) <= before


def test_cli_suite_unknown_case_exits_2_before_any_run(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a run or a helper thread was started for bad input")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(pipeline, "_evaluate_case", refuse)
    for cases in ("nosuch", "counterexample,nosuch"):
        assert main(["suite", "--levels", "1,2", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown case 'nosuch'")


def _check_threads(monkeypatch) -> list:
    """Record the name of the thread that computes every run's Monte Carlo
    section check."""
    names = []
    estimator = pipeline.monte_carlo_section_integral

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return estimator(*args, **kwargs)

    monkeypatch.setattr(pipeline, "monte_carlo_section_integral", recorded)
    return names


@pytest.mark.parametrize("case", ["counterexample", "lightlike-hyperplane"])
def test_run_reports_do_not_depend_on_cpu_count(monkeypatch, case):
    config = RunConfig(case=case, level=2, samples=3, mc_samples=20_000)
    names = _check_threads(monkeypatch)
    reports = {}
    for cpus in (1, 2, 4):
        _patch_cpus(monkeypatch, cpus)
        names.clear()
        before = set(threading.enumerate())
        reports[cpus] = run_case(config)
        assert set(threading.enumerate()) <= before
        # on the helper of the run's suite of one, at every CPU count
        assert names == ["suite_0"]
    assert report_to_json(reports[1]) == report_to_json(reports[2]) == report_to_json(reports[4])
    m = 5 if case == "lightlike-hyperplane" else 4
    oracle = section_check(m, config.mc_samples, config.seed)
    assert reports[1].identities["section_average_mc"] == oracle._asdict()
    # a rerun draws its check again and writes the same bytes
    names.clear()
    assert report_to_json(run_case(config)) == report_to_json(reports[1])
    assert len(names) == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_run_numerical_failure_in_the_solve_exits_3_and_joins_the_helper(monkeypatch, capsys,
                                                                             cpus):
    def failing(pencil):
        raise NumericalError("injected solve failure")

    monkeypatch.setattr(bounds, "solve_lambda1", failing)
    names = _check_threads(monkeypatch)
    _patch_cpus(monkeypatch, cpus)
    before = set(threading.enumerate())
    assert main(["run", "--case", "counterexample", "--level", "1", "--mc-samples", "5000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: injected solve failure\n"
    assert set(threading.enumerate()) <= before
    # the check was submitted before the solve, and the helper ran it before the run raised
    assert names == ["suite_0"]


# each named case: its gallery item, a non-default parameter, and its
# expectation row (reilly_holds, equality_direction, certificate of m)
NAMED_CASES = {
    # an integer, as a --config file may give it
    "sphere-hyperplane": ("round-sphere", {"radius": 2}, (True, True, lambda m: np.eye(m)[0])),
    "counterexample": ("counterexample", {}, (False, False, None)),
    "cylinder-curve": ("cylinder-curve", {"scale": -3.0}, (False, None, None)),
    "lightlike-hyperplane": ("lightlike-hyperplane", {"amplitude": 0.25},
                             (True, None, lambda m: np.eye(m)[0] + np.eye(m)[-1])),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", NAMED_CASES)
def test_named_case_is_its_gallery_item(case, n):
    item, params, (reilly_holds, equality_direction, certificate) = NAMED_CASES[case]
    config = RunConfig(case=case, n=n, **params)
    imm, expect, as_run = pipeline._build_case(config)
    spec_imm, _ = immersion_from_spec({"gallery": item, "n": n, "params": params})
    p = pipeline._build_mesh(n, 2).vertices
    assert type(imm) is type(spec_imm)
    for a, b in ((imm.eval(p), spec_imm.eval(p)),
                 (imm.mean_curvature(p), spec_imm.mean_curvature(p))):
        assert a.tobytes() == b.tobytes()
    assert expect.lambda1_reference == n / params.get("radius", 1.0) ** 2
    assert (expect.reilly_holds, expect.equality_direction) == (reilly_holds, equality_direction)
    if certificate is None:
        assert expect.certificate is None
    else:
        assert np.array_equal(expect.certificate, certificate(imm.m))
    # a named case runs the config it was given: the item takes float(2),
    # and the report still echoes the 2
    assert as_run == config
    assert [type(getattr(as_run, key)) for key in params] == list(map(type, params.values()))


# every gallery parameter's sign and magnitude, from underflow to overflow
EXTREMES = [sign + value for value in ("1e-300", "1e-153", "1e-3", "1", "1e103", "1e154", "1e300")
            for sign in ("", "-")]


# some inputs still warn on their way to a documented exit (ROADMAP item 5)
@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("n", ["1", "2"])
@pytest.mark.parametrize("case, flag", [("sphere-hyperplane", "--radius"),
                                        ("counterexample", None),
                                        ("cylinder-curve", "--scale"),
                                        ("lightlike-hyperplane", "--amplitude")])
def test_every_extreme_parameter_ends_in_a_documented_exit_code(capsys, case, flag, n):
    for value in EXTREMES if flag else [None]:
        argv = ["run", "--case", case, "--n", n, "--level", "1", "--samples", "1",
                "--mc-samples", "2000", "--format", "csv"]
        if flag:
            argv.append(f"{flag}={value}")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert len(err.splitlines()) == 1, argv
            assert err.startswith(("error: ", "numerical failure: ")), argv
        if code == 1:
            assert "FAIL: " in err, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--case", "counterexample", "--n", "3"], "meshes are available for n = 1"),
        (["run", "--case", "nosuch"], "unknown case 'nosuch'"),
        (["run", "--case", "custom-spec-file", "--spec-file", "{spec}"], "is not valid JSON"),
        # a suite has no --spec-file: its spec-file case is refused
        (["suite", "--levels", "1,2", "--cases", "counterexample,custom-spec-file"],
         "custom-spec-file case needs --spec-file"),
        (["run", "--case", "counterexample", "--seed", "-1"], "seed must be nonnegative"),
        (["suite", "--levels", "1,2", "--seed", "-3"], "seed must be nonnegative"),
        # n / r^2 underflows the radius's square, or overflows it
        (["run", "--case", "sphere-hyperplane", "--radius", "1e-200"],
         "radius 1e-200 is out of range"),
        (["run", "--case", "sphere-hyperplane", "--radius", "1e200"],
         "radius 1e+200 is out of range"),
        (["run", "--case", "custom-spec-file", "--spec-file", "{tiny}"],
         "radius 1e-200 is out of range"),
    ],
    ids=["run-n3", "run-unknown-case", "run-bad-spec", "suite-spec-file-case", "run-negative-seed",
         "suite-negative-seed", "run-tiny-radius", "run-huge-radius", "run-spec-tiny-radius"],
)
def test_cli_bad_input_exits_2_before_any_thread(monkeypatch, capsys, tmp_path, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a helper thread was started for bad input")

    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"gallery": "round-sphere", "n": 2, "params": {"radius": 1e-200}}))
    _patch_cpus(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(pipeline, "monte_carlo_section_integral", refuse)
    before = set(threading.enumerate())
    assert main([arg.format(spec=spec, tiny=tiny) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert set(threading.enumerate()) <= before


_METRIC_OUT_OF_RANGE = ("element 0 has metric scale ",
                        ", out of range: its squares under- or overflow float64")


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param("sphere-hyperplane --radius 1e-100", _METRIC_OUT_OF_RANGE, id="1e-100"),
        pytest.param("sphere-hyperplane --radius 1e-150", _METRIC_OUT_OF_RANGE, id="1e-150"),
        pytest.param("sphere-hyperplane --radius 1e100", _METRIC_OUT_OF_RANGE, id="1e100"),
        # at n = 1 the metric is its own scale; an overflowed chord Gram is NaN
        pytest.param("sphere-hyperplane --n 1 --radius 1e-154", _METRIC_OUT_OF_RANGE,
                     id="n1-1e-154"),
        pytest.param("lightlike-hyperplane --n 1 --amplitude 1e160", _METRIC_OUT_OF_RANGE,
                     id="n1-amplitude-1e160"),
        pytest.param("lightlike-hyperplane --n 1 --amplitude=-1e300", _METRIC_OUT_OF_RANGE,
                     id="n1-amplitude--1e300"),
        # the metric is in range, but psi_hat'M psi_hat grows as r^3 and overflows
        pytest.param("sphere-hyperplane --n 1 --radius 1e103",
                     ("the position field's Gram pair is not finite: its scale 1e+103",
                      " is out of range for float64"), id="n1-gram-1e103"),
        pytest.param("sphere-hyperplane --n 1 --radius 1e154",
                     ("the position field's Gram pair is not finite: its scale 1e+154",
                      " is out of range for float64"), id="n1-gram-1e154"),
        pytest.param("cylinder-curve --n 1 --scale 1e300",
                     ("the position field's Gram pair is not finite: its scale 1e+300",
                      " is out of range for float64"), id="n1-gram-scale-1e300"),
    ],
)
def test_cli_out_of_range_metric_exits_2_silently_and_joins_the_helper(monkeypatch, capsys, args,
                                                                       message):
    # the input is in range, but the squares of the element metric's entries,
    # or a field's Gram pair, under- or overflow: that says nothing about the
    # metric's sign or the bounds
    names = _check_threads(monkeypatch)
    before = set(threading.enumerate())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--case", *args.split(), "--level", "1", "--mc-samples", "5000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message[0])
    assert captured.err.endswith(message[1] + "\n") and captured.err.count("\n") == 1
    assert set(threading.enumerate()) <= before
    assert names == ["suite_0"]


@pytest.mark.parametrize("radius", ["1e20", "1e30", "1e40", "1e60", "1e100"])
def test_cli_circle_at_extreme_radius_exits_0(capsys, radius):
    # the test-field check compares a field's weight with its own Gram
    # scale, and the float32 coarse factor sees its operator scaled by a
    # power of two, so neither depends on the radius (K scales as 1/r at n = 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--case", "sphere-hyperplane", "--n", "1", "--level", "3",
                     "--radius", radius, "--mc-samples", "5000", "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_check_outlives_its_suite(monkeypatch, cpus):
    # two suites in one process share no check: each draws its own, once
    # per ambient dimension (4 for counterexample, 5 for lightlike-hyperplane),
    # on its helper at every CPU count
    _patch_cpus(monkeypatch, cpus)
    names = _check_threads(monkeypatch)
    base = RunConfig(case="counterexample", samples=2, mc_samples=5000)
    cases = ["counterexample", "lightlike-hyperplane"]
    suites = []
    for _ in range(2):
        names.clear()
        before = set(threading.enumerate())
        reports, _ = run_suite(cases, [1, 2], base)
        assert set(threading.enumerate()) <= before
        assert names == ["suite_0"] * 2
        suites.append([report_to_json(r) for r in reports])
    assert suites[0] == suites[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_check_is_not_kept(monkeypatch, capsys, cpus):
    # a failed check fails its run where the run reads it, and the next run
    # of the same (m, mc_samples, seed) draws it again
    _patch_cpus(monkeypatch, cpus)
    estimator = pipeline.monte_carlo_section_integral
    failures = [NumericalError("injected check failure")]

    def failing_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return estimator(*args, **kwargs)

    monkeypatch.setattr(pipeline, "monte_carlo_section_integral", failing_once)
    argv = ["run", "--case", "counterexample", "--level", "1", "--samples", "2",
            "--mc-samples", "5000", "--seed", "11"]
    before = set(threading.enumerate())
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: injected check failure\n"
    assert set(threading.enumerate()) <= before
    config = RunConfig(case="counterexample", level=1, samples=2, mc_samples=5000, seed=11)
    report = run_case(config)
    assert report.identities["section_average_mc"] == section_check(4, 5000, 11)._asdict()


def test_runs_and_suites_do_not_read_the_cpu_count(monkeypatch):
    base = RunConfig(case="counterexample", samples=2, mc_samples=5000)
    levels = [1, 2]
    standalone = [report_to_json(run_case(replace(base, level=level))) for level in levels]

    def refuse():
        raise AssertionError("a run or a suite read the CPU count")

    monkeypatch.setattr(pipeline, "_cpu_count", refuse)
    assert [report_to_json(run_case(replace(base, level=level))) for level in levels] == standalone
    reports, _ = run_suite(["counterexample"], levels, base)
    assert [report_to_json(r) for r in reports] == standalone


def test_section_average_battery_passes():
    result = section_average_battery(4, 100_000, seed=7)
    assert result["verdict"] == "pass"
    assert len(result["cases"]) == 20


def _battery_threads(monkeypatch) -> set:
    """Record the name of every thread that runs a battery check."""
    names = set()
    for name in ("monte_carlo_section_integral", "monte_carlo_sphere_integral"):
        estimator = getattr(pipeline, name)

        def recorded(*args, _estimator=estimator):
            names.add(threading.current_thread().name)
            return _estimator(*args)

        monkeypatch.setattr(pipeline, name, recorded)
    return names


@pytest.mark.parametrize("seed", [1, 7])
def test_section_average_battery_does_not_depend_on_worker_count(monkeypatch, seed):
    names = _battery_threads(monkeypatch)
    reports = {}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                            raising=False)
        names.clear()
        reports[cpus] = report_to_json(section_average_battery(4, 20_000, seed))
        assert 1 <= len(names) <= cpus
        assert all(name.startswith("section-avg") for name in names)
    assert reports[1] == reports[4] == report_to_json(section_average_battery_serial(4, 20_000, seed))


# --- CLI ------------------------------------------------------------------------


def test_cli_run_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--case",
            "sphere-hyperplane",
            "--level",
            "2",
            "--samples",
            "2",
            "--mc-samples",
            "5000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "pass"
    assert payload["config"]["case"] == "sphere-hyperplane"


def test_cli_output_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    args = [
        "run",
        "--case",
        "counterexample",
        "--level",
        "2",
        "--samples",
        "2",
        "--mc-samples",
        "5000",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    args = ["run", "--case", "counterexample", "--level", "2", "--samples", "2", "--mc-samples", "5000"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert summary == "case=counterexample level=2 verdict=pass\n"
    # the config echo records --out; every other byte is the printed report
    echoed = json.dumps({"out": str(out)})[1:-1]
    assert out.read_bytes() == printed.replace('"out": null', echoed, 1).encode("utf-8")


def test_cli_csv_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["run", "--case", "sphere-hyperplane", "--level", "2", "--samples", "2",
            "--mc-samples", "5000", "--format", "csv"]
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("case,level,name,anchor")
    assert capsys.readouterr().out == "case=sphere-hyperplane level=2 verdict=pass\n"
    # without --out the report itself goes to stdout, as a JSON report does
    assert main(argv) == 0
    assert capsys.readouterr().out == text


def test_cli_config_file_with_flag_override(tmp_path):
    config = {"level": 2, "samples": 2, "mc_samples": 5000, "seed": 11}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(
        ["run", "--case", "sphere-hyperplane", "--config", str(path), "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["level"] == 2
    assert payload["config"]["seed"] == 3  # flag wins over file


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--case", "bogus"]) == 2
    assert main(["run", "--case", "custom-spec-file"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}), encoding="utf-8")
    assert main(["run", "--case", "sphere-hyperplane", "--config", str(bad)]) == 2
    assert main(["suite", "--levels", "x,y"]) == 2
    assert main(["suite", "--cases", " ", "--levels", "2"]) == 2
    capsys.readouterr()
    # every float field must be finite
    for case, flag, value in (
        ("sphere-hyperplane", "--tol-eq", "nan"),
        ("sphere-hyperplane", "--tol-disc", "nan"),
        ("sphere-hyperplane", "--radius", "nan"),
        ("sphere-hyperplane", "--radius", "inf"),
        ("cylinder-curve", "--scale", "nan"),
        ("sphere-hyperplane", "--tol-eq", "inf"),
        ("lightlike-hyperplane", "--amplitude", "nan"),
    ):
        assert main(["run", "--case", case, "--level", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[2:].replace('-', '_')} must be finite, got {float(value)!r}\n"
    # the dimension is checked before the axis, which needs m = n + 2 >= 3
    assert main(["run", "--case", "sphere-hyperplane", "--n", "0", "--level", "2"]) == 2
    assert capsys.readouterr().err == "error: intrinsic dimension must be at least 1\n"


def test_cli_malformed_spec_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"gallery": "round-sphere", "n": 2', encoding="utf-8")
    assert main(["run", "--case", "custom-spec-file", "--spec-file", str(spec)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"level": 2,', encoding="utf-8")
    assert main(["run", "--case", "sphere-hyperplane", "--config", str(config)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # valid JSON that is not an object
    for content in ("null", "5", '["case"]', '"level"'):
        config.write_text(content, encoding="utf-8")
        assert main(["run", "--case", "sphere-hyperplane", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: config file {config} must hold a JSON object\n"


def test_cli_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"level": "two"}), encoding="utf-8")
    assert main(["run", "--case", "sphere-hyperplane", "--config", str(config)]) == 2
    assert "level must be of type int" in capsys.readouterr().err
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", samples=True)
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", level=2.0)
    assert RunConfig(case="sphere-hyperplane", radius=2, tol_eq=None).radius == 2


def test_cli_negative_cylinder_scale_violates_classical_bound(tmp_path):
    # HyperbolicArc(-1) is the time reflection of HyperbolicArc(1)
    out = tmp_path / "report.json"
    args = ["run", "--case", "cylinder-curve", "--level", "3", "--scale", "-1"]
    assert main(args + ["--samples", "2", "--mc-samples", "5000", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "pass"
    reilly = next(b for b in report["bounds"] if b["anchor"] == "reilly")
    assert reilly["holds"] is False and reilly["as_expected"] is True


def test_cli_zero_cylinder_scale_exits_2(capsys):
    args = ["run", "--case", "cylinder-curve", "--level", "2", "--scale", "0"]
    assert main(args) == 2
    assert "scale must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0.105", "2.9e-3", "2.8e-3", "1e-3", "1e-8", "-1e-3"])
def test_cli_short_cylinder_scale_exits_2_without_warnings(capsys, scale):
    # below about 0.11, cosh^2 - sinh^2 rounds off 1 by more than TAU_UNIT;
    # below about 2.8e-3, cosh(1 / scale) overflows and the speed is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--case", "cylinder-curve", "--level", "2", f"--scale={scale}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: curve HyperbolicArc(scale={float(scale)!r}) "
                            "must be unit-speed spacelike on [-1, 1]\n")


def test_cli_non_numeric_spec_field_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"gallery": "round-sphere", "n": "two"}), encoding="utf-8")
    assert main(["run", "--case", "custom-spec-file", "--spec-file", str(spec)]) == 2
    assert "bad value in immersion spec" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"gallery": "counterexample", "n": 1.9}, "n"),
        ({"gallery": "counterexample", "n": 2.0}, "n"),
        ({"gallery": "counterexample", "n": True}, "n"),
        ({"gallery": "round-sphere", "n": 2, "params": {"m": 4.7}}, "m"),
        ({"gallery": "round-sphere", "params": {"radius": NAN}}, "radius"),
        ({"gallery": "round-sphere", "params": {"radius": INF}}, "radius"),
        ({"gallery": "round-sphere", "params": {"center": [0.0, NAN, 0.0, 0.0]}}, "center"),
        ({"gallery": "round-sphere", "params": {"center": [0.0, 0.0, -INF, 0.0]}}, "center"),
        ({"gallery": "round-sphere", "params": {"axis": [NAN, 0.0, 0.0, 0.0]}}, "axis"),
        ({"gallery": "cylinder-curve", "params": {"scale": INF}}, "scale"),
        ({"gallery": "cylinder-curve", "params": {"scale": NAN}}, "scale"),
        ({"gallery": "lightlike-hyperplane", "params": {"amplitude": NAN}}, "amplitude"),
        ({"gallery": "lightlike-hyperplane", "params": {"amplitude": False}}, "amplitude"),
    ],
)
def test_cli_spec_field_that_is_not_a_finite_number_or_an_integer_exits_2(
    tmp_path, capsys, spec, key
):
    # json writes NaN and Infinity, which json reads back as floats
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["run", "--case", "custom-spec-file", "--spec-file", str(path), "--level", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad value in immersion spec: {key!r} must be"), err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"gallery": "round-sphere", "n": 2, "params": {"raduis": 2.0}},
         "unknown or unused round-sphere params: ['raduis']"),
        ({"gallery": "round-sphere", "n": 2, "radius": 2.0}, "unknown immersion spec keys: ['radius']"),
        ({"gallery": "counterexample", "params": {"scale": 2.0}},
         "unknown or unused counterexample params: ['scale']"),
        ({"gallery": "cylinder-curve", "params": {"curve": "circle"}},
         "unknown curve 'circle'; choose hyperbola or line"),
        # a line has no scale
        ({"gallery": "cylinder-curve", "params": {"curve": "line", "scale": 2.0}},
         "unknown or unused cylinder-curve params: ['scale']"),
    ],
    ids=["params", "top-level", "counterexample", "curve", "line-scale"],
)
def test_cli_unknown_spec_key_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["run", "--case", "custom-spec-file", "--spec-file", str(path), "--level", "0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_out_directory_exits_2(tmp_path, capsys):
    args = ["run", "--case", "sphere-hyperplane", "--level", "2", "--samples", "2"]
    assert main(args + ["--mc-samples", "5000", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_forbidden_equality_direction_warns_on_coarse_mesh(tmp_path):
    # the axis residual (0.21 at level 0) is below the level-0 equality
    # tolerance (0.4), so the coarse mesh reports a false equality direction
    out = tmp_path / "report.json"
    args = ["run", "--case", "counterexample", "--n", "1", "--level", "0"]
    assert main(args + ["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["failures"] == []
    assert "detected an equality direction where none should exist" in report["warnings"]


def test_cli_run_prints_warnings_to_stderr(capsys):
    args = ["run", "--case", "counterexample", "--n", "1", "--level", "0"]
    assert main(args) == 0
    captured = capsys.readouterr()
    report = run_case(RunConfig(case="counterexample", n=1, level=0))
    assert captured.out == report_to_json(report)
    assert captured.err == "".join(f"WARN: {w}\n" for w in report.warnings)
    assert "WARN: detected an equality direction where none should exist\n" in captured.err


def test_cli_forbidden_equality_direction_fails_on_fine_mesh(capsys):
    args = ["run", "--case", "counterexample", "--level", "3", "--tol-eq", "10"]
    assert main(args + ["--samples", "2", "--mc-samples", "5000"]) == 1
    assert "detected an equality direction where none should exist" in capsys.readouterr().err


def test_cli_numerical_failure_exits_3(monkeypatch, capsys):
    from lorentzlab import cli
    from lorentzlab.errors import EigenSolveError

    def boom(config):
        raise EigenSolveError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_case", boom)
    assert main(["run", "--case", "sphere-hyperplane"]) == 3
    capsys.readouterr()


def test_tolerance_overrides_take_effect():
    # an absurdly tight discretization gate flips the equality-case bound
    strict = run_case(
        RunConfig(
            case="sphere-hyperplane", level=2, samples=2, mc_samples=5000, tol_disc=1e-9
        )
    )
    reilly = [b for b in strict.bounds if b["name"] == "reilly"][0]
    assert reilly["tol"] == 1e-9
    assert reilly["holds"] is False  # slack is discretization noise
    # a forced coarse equality threshold flips the counterexample verdict
    loose = run_case(
        RunConfig(
            case="counterexample", level=2, samples=2, mc_samples=5000, tol_eq=2.0
        )
    )
    assert all(e["verdict"] == "equality-case" for e in loose.equality)
    with pytest.raises(UsageError):
        RunConfig(case="sphere-hyperplane", tol_disc=-1.0)


def test_cli_suite_smoke(capsys):
    code = main(
        ["suite", "--levels", "2", "--cases", "sphere-hyperplane", "--samples", "2", "--mc-samples", "5000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "suite verdict: pass" in out


def test_cli_suite_prints_warnings_to_stderr(tmp_path, capsys):
    out = tmp_path / "suite.json"
    args = ["suite", "--levels", "1", "--cases", "counterexample", "--samples", "2"]
    assert main(args + ["--mc-samples", "5000", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    warnings = json.loads(out.read_text(encoding="utf-8"))["reports"][0]["warnings"]
    assert warnings
    assert captured.err == "".join(f"WARN: counterexample level 1: {w}\n" for w in warnings)
    assert captured.out.endswith("suite verdict: pass\n")


def test_cli_section_avg(capsys):
    code = main(["section-avg", "--m", "4", "--samples", "50000", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"


def test_cli_section_avg_out_file_matches_stdout(tmp_path, capsys):
    args = ["section-avg", "--m", "4", "--samples", "20000", "--seed", "7"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "avg.json"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed


def test_cli_section_avg_bad_input_exits_2(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started for bad input")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    for args, message in (
        (["--m", "4", "--samples", "1"], "need at least two Monte Carlo samples"),
        (["--m", "4", "--samples", "0"], "need at least two Monte Carlo samples"),
        (["--m", "2", "--samples", "100"], "ambient dimension must be at least 3"),
        (["--m", "4", "--seed", "-1"], "seed must be nonnegative"),
    ):
        assert main(["section-avg"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_cli_section_avg_numerical_failure_in_a_worker_exits_3(monkeypatch, capsys):
    estimator = pipeline.monte_carlo_sphere_integral

    def failing(q, samples, seed):
        if seed == 7 + 202:  # the third sphere check
            raise NumericalError("injected failure")
        return estimator(q, samples, seed)

    monkeypatch.setattr(pipeline, "monte_carlo_sphere_integral", failing)
    before = set(threading.enumerate())
    assert main(["section-avg", "--samples", "2000", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: injected failure\n"
    assert set(threading.enumerate()) <= before


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzlab", "section-avg", "--samples", "20000"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0


def test_cli_never_loads_scipy_special(tmp_path):
    # the slice rules are numpy-only, so the import chain and a run of
    # each kind stay clear of scipy.special and its start-up cost
    script = (
        "import sys\n"
        "import lorentzlab.cli\n"
        "out = sys.argv[1]\n"
        "lorentzlab.cli.main(['run', '--case', 'counterexample', '--level', '2', '--out', out])\n"
        "lorentzlab.cli.main(['suite', '--levels', '1', '--cases', 'all', '--samples', '2',"
        " '--mc-samples', '1000', '--out', out])\n"
        "lorentzlab.cli.main(['section-avg', '--samples', '1000', '--out', out])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _types(value):
    """The value's structure with every leaf replaced by its type."""
    if isinstance(value, dict):
        return {key: _types(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [_types(item) for item in value]
    return type(value)


SMALL = ["--samples", "2", "--mc-samples", "5000"]


@pytest.mark.parametrize(
    "argv, shows",
    [
        (["run", "--case", "sphere-hyperplane", "--level", "2", "--timings", *SMALL],
         lambda payload: payload["bounds"][-1]["name"] == "reilly-causal-certificate"),
        (["run", "--case", "counterexample", "--level", "2", *SMALL],
         lambda payload: "causal_defect_search" in payload["identities"]),
        (["suite", "--levels", "1", "--cases", "counterexample,lightlike-hyperplane", *SMALL],
         lambda payload: len(payload["reports"]) == 2),
        (["section-avg", "--samples", "2000"], lambda payload: len(payload["cases"]) == 20),
    ],
    ids=["certificate", "defect-search", "suite", "section-avg"],
)
def test_written_reports_are_json_native(monkeypatch, tmp_path, argv, shows):
    # every value is a JSON type where it is made: a tuple or a numpy
    # scalar would read back as a value of another type
    written = []
    monkeypatch.setattr(cli, "write_report", lambda report, path, fmt="json": written.append(report))
    main(argv + ["--out", str(tmp_path / "report.json")])
    (report,) = written
    payload = report.to_dict() if isinstance(report, RunReport) else report
    assert shows(payload)
    loaded = json.loads(report_to_json(payload))
    assert loaded == payload
    assert _types(loaded) == _types(payload)
