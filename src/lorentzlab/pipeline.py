"""Named verification cases: full pipeline runs, suites, and reports.

A case run builds the mesh and immersion, solves the eigenproblem, then
evaluates the bound catalogue, integral identities and equality
diagnostics, and compares everything against the case's expectations.
Reports are plain dictionaries with a stable field order; with timings
disabled (the default) the JSON output is byte-identical across repeated
runs of the same configuration.
"""

from __future__ import annotations

import collections
import concurrent.futures
import csv
import functools
import io
import json
import math
import numbers
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bounds import BoundEngine, TAU_DISC
from .errors import UsageError
from .immersions import immersion_from_spec, load_immersion_spec
from .meshes import ParamMesh, build_circle_mesh, build_icosphere_mesh
from .minkowski import SymBilinearForm, boost_direction, sample_timelike_directions, sq_norm
from .quadrature import (
    beltrami_residual,
    minkowski_projected_identities,
    minkowski_residual,
    monte_carlo_section_integral,
    monte_carlo_sphere_integral,
    sphere_slice_integral,
)

SCHEMA_VERSION = "1"

__all__ = [
    "RunConfig",
    "RunReport",
    "run_case",
    "run_suite",
    "section_average_battery",
    "report_to_json",
    "report_to_csv",
    "write_report",
    "CASE_NAMES",
]


# value types a RunConfig field accepts, by its annotation
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


@dataclass
class RunConfig:
    case: str
    n: int = 2
    level: int = 4
    samples: int = 10
    seed: int = 7
    mc_samples: int = 200_000
    radius: float = 1.0
    scale: float = 2.0
    amplitude: float = 0.5
    tol_disc: float | None = None
    tol_eq: float | None = None
    out: str | None = None
    fmt: str = "json"
    include_timings: bool = False
    spec_file: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            # bool is an int subclass, so it is refused apart
            if not isinstance(value, _FIELD_TYPES[kind]) or (
                isinstance(value, bool) and kind != "bool"
            ):
                raise UsageError(f"{f.name} must be of type {f.type}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value!r}")
        if self.level < 0:
            raise UsageError("level must be nonnegative")
        if self.samples < 1:
            raise UsageError("need at least one direction sample")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.mc_samples < 2:
            raise UsageError("need at least two Monte Carlo samples")
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"unknown format {self.fmt!r}")
        for name in ("tol_disc", "tol_eq"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise UsageError(f"{name} must be positive")


def _axis(m: int) -> np.ndarray:
    a = np.zeros(m)
    a[0] = 1.0
    return a


@dataclass(frozen=True)
class CaseExpectation:
    """What a named case must show; None where the case makes no claim."""

    reilly_holds: bool | None  # does the classical bound hold?
    equality_direction: bool | None  # does an equality direction exist?
    certificate: np.ndarray | None  # causal direction to certify; None runs the search
    lambda1_reference: float


# case name -> its gallery item (None: the spec file names it), the
# RunConfig field the item reads, and its expectation row: reilly_holds,
# equality_direction and the certificate of the built immersion
_CASES = {
    "sphere-hyperplane": ("round-sphere", "radius", (True, True, lambda imm: _axis(imm.m))),
    "counterexample": ("counterexample", None, (False, False, None)),
    # a negative scale is the time reflection, an isometric image
    "cylinder-curve": ("cylinder-curve", "scale", (False, None, None)),
    "lightlike-hyperplane": ("lightlike-hyperplane", "amplitude",
                             (True, None, lambda imm: imm.null_normal)),
    "custom-spec-file": (None, None, (None, None, None)),
}
CASE_NAMES = tuple(_CASES)


def _build_case(config: RunConfig):
    """Immersion, expectation row and the config as run of a named case,
    built as a spec file naming its gallery item would be: a spec file
    also sets n and the radius, scale or amplitude it was built with."""
    if config.case not in _CASES:
        raise UsageError(f"unknown case {config.case!r}; choose from {', '.join(CASE_NAMES)}")
    item, param, (reilly_holds, equality_direction, certify) = _CASES[config.case]
    if item is not None:
        params = {} if param is None else {param: getattr(config, param)}
        imm, taken = immersion_from_spec({"gallery": item, "n": config.n, "params": params})
    elif config.spec_file:
        imm, taken = load_immersion_spec(config.spec_file)
        # the report echoes what the spec file set
        config = replace(config, **taken)
    else:
        raise UsageError("custom-spec-file case needs --spec-file")
    # every gallery immersion is isometric to a round sphere, of the radius
    # the item took, or 1; its first eigenvalue is n / r^2
    radius = taken.get("radius", 1.0)
    try:
        reference = imm.n / radius**2
    except (ZeroDivisionError, OverflowError):  # radius**2 under- or overflows
        reference = math.nan
    if not 0.0 < reference < math.inf:
        raise UsageError(
            f"radius {radius!r} is out of range: n / radius^2 must be a finite positive float")
    certificate = None if certify is None else certify(imm)
    return imm, CaseExpectation(reilly_holds, equality_direction, certificate, reference), config


@functools.lru_cache(maxsize=None)
def _build_mesh(n: int, level: int) -> ParamMesh:
    """The parameter mesh of dimension n at a level, with its coarse level:
    built once per (n, level) and read-only, so the runs of a process share it."""
    if n == 1:
        mesh = build_circle_mesh(level)
    elif n == 2:
        mesh = build_icosphere_mesh(level)
    else:
        raise UsageError("meshes are available for n = 1 and n = 2 only")
    arrays = [mesh.vertices, mesh.simplices]
    if mesh.coarse is not None:
        arrays += [mesh.parents, mesh.coarse.vertices, mesh.coarse.simplices]
    for array in arrays:
        array.flags.writeable = False
    return mesh


def _section_check(m: int, mc_samples: int, seed: int):
    """A run's section averaging check. It is not a function of the
    immersion or the mesh, and it draws from generators seeded by `seed`
    alone, so its value does not depend on the thread that computes it."""
    rng = np.random.default_rng(seed + 3)
    q = SymBilinearForm.random(m, rng)
    return monte_carlo_section_integral(q, _axis(m), mc_samples, seed=seed + 4)


@dataclass
class RunReport:
    config: dict
    lambda1: dict
    volume: float
    bounds: list
    identities: dict
    equality: list
    verdict: str
    failures: list
    warnings: list = field(default_factory=list)
    timings: dict | None = None

    def to_dict(self) -> dict:
        # shallow, in declared field order: `asdict` would deep-copy the payload
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}}


def run_case(config: RunConfig) -> RunReport:
    """Execute the full pipeline for one case; deterministic per config.
    A run is a suite of one run: `run_suite` builds, schedules and joins it."""
    return run_suite([config.case], [config.level], config)[0][0]


def _evaluate_case(config: RunConfig, imm, expect: CaseExpectation, mesh: ParamMesh,
                   check, stamps: dict) -> RunReport:
    """The report of a built case on its mesh: the one per-run path of
    every run. `check` returns the run's Monte Carlo check and `stamps`
    holds the set-up time."""
    t1 = time.perf_counter()
    engine = BoundEngine(mesh, imm, tol_disc=config.tol_disc or TAU_DISC)
    stamps["assemble_solve"] = time.perf_counter() - t1

    # the axis, then the sampled directions
    directions = sample_timelike_directions(imm.m, config.samples, seed=config.seed)

    t2 = time.perf_counter()
    failures: list[str] = []
    warnings: list[str] = []
    bounds: list[dict] = []
    # below level 3 the discretization error is comparable to the
    # discretization-aware gate, so checks sensitive to it only warn
    coarse = config.level < 3

    def gate(message: str, sensitive: bool, note: str = "") -> None:
        """Record a missed expectation as a failure, or as a warning (with
        `note` appended) for a discretization-sensitive check on a coarse mesh."""
        if sensitive and coarse:
            warnings.append(message + note)
        else:
            failures.append(message)

    stamp = {"vertices": mesh.num_vertices, "level": mesh.level}

    def add_entries(tables, expected: bool | None = True, tag: str = " dir{}") -> None:
        """Append the bound entries of tables with one row count, row by row
        and table by table within a row, and gate each missed expectation;
        `tag` is formatted with the row number."""
        rows = 1 if tables[0].directions is None else len(tables[0].directions)

        def column(values) -> list:
            return np.broadcast_to(values, (rows,)).tolist()

        columns = [
            (
                table,
                *map(column, (table.lhs, table.rhs, table.slack, table.holds)),
                [None] * rows if table.directions is None else table.directions.tolist(),
                {key: column(values) for key, values in table.meta.items()},
            )
            for table in tables
        ]
        for j in range(rows):
            for table, lhs, rhs, slack, holds, dirs, meta in columns:
                entry = {
                    "name": table.name,
                    "anchor": table.anchor,
                    "lhs": lhs[j],
                    "rhs": rhs[j],
                    "slack": slack[j],
                    "holds": holds[j],
                    "tol": table.tol,
                    "status": table.status,
                    "direction": dirs[j],
                    "expected_holds": expected,
                    "as_expected": None if expected is None else holds[j] == expected,
                    "meta": {key: values[j] for key, values in meta.items()} | stamp,
                }
                bounds.append(entry)
                if entry["as_expected"] is False:
                    gate(
                        f"{table.name}{tag.format(j)}: holds={holds[j]}, expected {expected}",
                        table.tol >= engine.tol_disc,
                        " (unresolved at this refinement)",
                    )

    add_entries([engine.reilly()], expect.reilly_holds, tag="")
    add_entries([engine.mean_curvature_field_bound(directions[:3]),
                 *engine.position_field_bounds(directions[:3])])
    add_entries(engine.test_field_bounds(directions[:4]))
    catalogue = engine.direction_catalogue(directions, tau_eq=config.tol_eq)
    add_entries([catalogue.sharp, catalogue.plain])
    infimum = engine.infimum_over_directions(max(config.samples, 20), seed=config.seed + 1)
    add_entries([infimum], tag="")

    # the equality entries: the rows of the diagnostic's columns
    columns = {"direction": directions, **catalogue.equality}
    equality_entries = [
        dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))
    ]
    sharp_equality_found = any(
        e["projection_bound_rel_slack"] <= TAU_DISC and e["verdict"] == "equality-case"
        for e in equality_entries
    )

    certificate_search = None
    if expect.certificate is not None:
        certificate = engine.reilly_causal_certificate(expect.certificate)
        add_entries([certificate], tag=" certificate")
        if not certificate.meta["equality"]:
            gate("certificate equality sub-checks failed", True)
    else:
        certificate_search = engine.causal_defect_search(
            max(4 * config.samples, 40), seed=config.seed + 2
        )
        if expect.reilly_holds is False and certificate_search["found"]:
            gate("found a causal defect direction on a case violating the classical bound", False)

    if expect.equality_direction is True and not sharp_equality_found:
        gate("expected an equality direction, none detected", True)
    # the equality tolerance halves per level while the residual of a true
    # non-equality case does not shrink, so a coarse mesh can admit one
    if expect.equality_direction is False and any(
        e["verdict"] == "equality-case" for e in equality_entries
    ):
        gate("detected an equality direction where none should exist", True)
    stamps["bounds"] = time.perf_counter() - t2

    # integral identities, all from the engine's geometry, psi_hat and H
    t3 = time.perf_counter()
    geom, psi_hat, h = engine.geometry, engine.positions_hat, engine.mean_curvature
    vol = engine.volume
    # the axis and the first sampled direction
    projected = [
        minkowski_projected_identities(engine.pencil, psi_hat, h, a) for a in directions[:2]
    ]
    identities = {
        "minkowski_residual_rel": abs(minkowski_residual(geom, h)) / vol,
        "minkowski_projected_rel": [abs(first) / vol for first, _ in projected],
        "position_curvature_rel": [abs(second) / vol for _, second in projected],
        "beltrami_l2": beltrami_residual(engine.pencil, h),
        # <H, H> of every gallery immersion depends on the height only
        "reilly_rhs_slice": imm.n
        * sphere_slice_integral(imm.n, lambda p: sq_norm(imm.mean_curvature(p)))
        / sphere_slice_integral(imm.n, lambda p: np.ones(len(p))),
        "reilly_rhs_mesh": imm.n * engine.curvature_sq_integral / vol,
    }

    mc = check()
    identities["section_average_mc"] = mc._asdict()
    # wide deterministic alarm; a real defect lands far outside any gate
    if mc.z > 4.0:
        gate("section averaging Monte Carlo check missed 4 standard errors", False)
    stamps["identities"] = time.perf_counter() - t3

    if certificate_search is not None:
        identities["causal_defect_search"] = certificate_search
    lambda_ref = expect.lambda1_reference
    lambda_block = {
        "value": engine.lambda1,
        "reference": lambda_ref,
        "rel_error": abs(engine.lambda1 - lambda_ref) / lambda_ref,
        "iterations": engine.spectrum.iterations,
        "residual": engine.spectrum.residual,
        "near_degenerate": engine.spectrum.near_degenerate,
    }
    return RunReport(
        config=asdict(config),
        lambda1=lambda_block,
        volume=vol,
        bounds=bounds,
        identities=identities,
        equality=equality_entries,
        verdict="pass" if not failures else "fail",
        failures=failures,
        warnings=warnings,
        timings=stamps if config.include_timings else None,
    )


def run_suite(cases: list[str], levels: list[int], base: RunConfig):
    """Per-case refinement sweep with a convergence table; a standalone
    run is a suite of one case at one level.

    Every case is built once, then each (n, level) mesh with its ND order,
    on the calling thread, so bad input is refused before any thread
    starts and no run writes a shared mesh; the time this set-up takes is
    every run's `setup` stamp. The Monte Carlo check of each ambient
    dimension is then started on one helper thread, first in its queue.
    The finest level's runs wait in one queue in report order. The
    calling thread takes its first run before the helper starts, then
    takes the rest from the front. After the checks, the helper takes one
    run from the back, if any is left, then runs the coarser runs in
    report order, then takes from the back what the calling thread has
    not started. So at most two finest-level engines are in flight, and a
    one-case suite, and so every `lab run`, never shares its finest
    level. Every run reads its check when it reaches its identities. Once
    a run fails, no run numbered above the lowest failure starts, and
    every run numbered below it still runs, so the failure raised once the
    helper has finished is the one a serial loop would raise. Reports
    match standalone runs byte for byte.
    """
    if not cases or not levels:
        raise UsageError("suite needs nonempty case and level lists")
    t0 = time.perf_counter()
    built = [_build_case(replace(base, case=case)) for case in cases]
    runs = [(replace(config, level=level), imm, expect, _build_mesh(imm.n, level))
            for imm, expect, config in built for level in levels]
    setup = time.perf_counter() - t0
    finest = max(levels)
    fine = collections.deque(i for i, (config, *_) in enumerate(runs) if config.level == finest)
    coarse = [i for i, (config, *_) in enumerate(runs) if config.level != finest]
    reports: list = [None] * len(runs)
    errors: dict[int, Exception] = {}
    lock = threading.Lock()  # guards `fine` and `errors`

    def take(pop) -> int | None:
        """A finest-level run from one end of the queue, None if it is empty."""
        with lock:
            return pop() if fine else None

    def start(i: int | None) -> bool:
        """Evaluate run i, unless it is None or numbered above a failed
        run; False if it does not start."""
        with lock:
            if i is None or (errors and i > min(errors)):
                return False
        config, imm, expect, mesh = runs[i]
        try:
            reports[i] = _evaluate_case(config, imm, expect, mesh, checks[imm.m],
                                        {"setup": setup})
        except Exception as exc:  # raised on the calling thread below
            with lock:
                errors[i] = exc
        return True

    def helper_lane() -> None:
        """One finest-level run early, beside the calling thread's first,
        which peaks lower than stealing only at the end; then the coarser
        runs; then the finest-level runs that are left."""
        start(take(fine.pop))
        for i in coarse:
            if not start(i):
                break
        while start(take(fine.pop)):
            pass

    with concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="suite") as pool:
        # one check per ambient dimension, a function of m, mc_samples and seed
        checks = {}
        for imm, _, config in built:
            if imm.m not in checks:
                checks[imm.m] = pool.submit(
                    _section_check, imm.m, config.mc_samples, config.seed).result
        i = fine.popleft()
        helper = pool.submit(helper_lane)
        while start(i):
            i = take(fine.popleft)
        helper.result()
    if errors:
        raise errors[min(errors)]

    table = [
        {
            "case": config.case,
            "level": config.level,
            "lambda1": report.lambda1["value"],
            "lambda1_rel_error": report.lambda1["rel_error"],
            "minkowski_residual_rel": report.identities["minkowski_residual_rel"],
            "beltrami_l2": report.identities["beltrami_l2"],
            "verdict": report.verdict,
        }
        for (config, *_), report in zip(runs, reports)
    ]
    overall = "pass" if all(r.verdict == "pass" for r in reports) else "fail"
    return reports, {"rows": table, "verdict": overall}


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def section_average_battery(m: int, samples: int, seed: int) -> dict:
    """Monte Carlo vs closed form for the averaging identities.

    Five seeded random forms against three directions (axis plus two
    boosts) on the light-cone section, plus the round-sphere analogue.
    The forms are drawn first, in order; the 20 checks then run on a
    thread per CPU. Each check draws from a generator of its own seed, so
    the report does not depend on the worker count or the scheduling.
    """
    if m < 3:
        raise UsageError(f"ambient dimension must be at least 3, got {m}")
    if samples < 2:
        raise UsageError("need at least two Monte Carlo samples")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    spatial = np.zeros((2, m - 1))  # two spatial unit vectors
    spatial[0, 0] = 1.0
    spatial[1, :2] = (0.6, 0.8)
    dirs = [_axis(m), boost_direction(0.5, spatial[0]), boost_direction(1.0, spatial[1])]
    section_forms = [SymBilinearForm.random(m, rng) for _ in range(5)]
    sphere_forms = [SymBilinearForm.random(m, rng) for _ in range(5)]
    # (lemma, form, direction, estimator, its arguments)
    checks = [
        ("section", i, j, monte_carlo_section_integral, (q, a, samples, seed + 100 + 3 * i + j))
        for i, q in enumerate(section_forms)
        for j, a in enumerate(dirs)
    ] + [
        ("sphere", i, None, monte_carlo_sphere_integral, (q, samples, seed + 200 + i))
        for i, q in enumerate(sphere_forms)
    ]
    pool = concurrent.futures.ThreadPoolExecutor(_cpu_count(), thread_name_prefix="section-avg")
    try:
        futures = [pool.submit(estimator, *args) for *_, estimator, args in checks]
        results = [future.result() for future in futures]
    finally:
        # after a failed check, the checks not yet started are dropped
        pool.shutdown(cancel_futures=True)

    cases = [
        {"lemma": lemma, "form": form, "direction": direction, **check._asdict(),
         "pass": bool(check.z <= 4.0)}
        for (lemma, form, direction, _, _), check in zip(checks, results)
    ]
    ok = all(entry["pass"] for entry in cases)
    return {
        "schema_version": SCHEMA_VERSION,
        "m": m,
        "samples": samples,
        "seed": seed,
        "cases": cases,
        "verdict": "pass" if ok else "fail",
    }


def report_to_json(report: RunReport | dict) -> str:
    payload = report.to_dict() if isinstance(report, RunReport) else report
    return json.dumps(payload, indent=2) + "\n"


# the CSV columns: the run's case and level, then bound entry keys
_CSV_COLUMNS = ("case", "level", "name", "anchor", "lhs", "rhs", "slack", "holds", "tol",
                "status", "expected_holds", "as_expected", "direction")


def report_to_csv(report: RunReport) -> str:
    """Flatten the bound reports only: floats are written as their repr,
    None as an empty field and a direction as its space-separated entries."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    run = {"case": report.config["case"], "level": report.config["level"]}
    for b in report.bounds:
        direction = "" if b["direction"] is None else " ".join(map(repr, b["direction"]))
        writer.writerow(b | run | {"direction": direction})
    return buf.getvalue()


def write_report(report: RunReport | dict, path: str, fmt: str = "json") -> None:
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
