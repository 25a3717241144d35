"""Span tracer that instruments lorentzlab from outside.

`Tracer.install()` replaces public functions and methods of the package
with wrappers at every module attribute or class attribute where callers
look them up, for example `lorentzlab.bounds.solve_lambda1` and
`lorentzlab.quadrature.mesh_geometry` (both bindings of one function)
or `BoundEngine.m_form`. Each wrapped call records a span
`[name, start, end, parent]` in memory; a few wrappers also add to work
counters. `Tracer.uninstall()` puts every original object back. Nothing
in the package is edited.

`layer_metrics()` turns the spans and counters of one traced run into
the benchmark's per-layer metrics. Self time is a span's duration minus
the time its direct child spans cover; spans are strictly nested because
the program runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# BoundEngine methods grouped into the catalogue families the benchmark
# reports separately; every other public method counts only towards
# bounds.engine_s.
BOUND_FAMILIES = {
    "test_field_mean_curvature": "test_field",
    "test_field_position": "test_field",
    "test_field_projected": "test_field",
    "test_field_bound": "test_field",
    "mean_curvature_field_bound": "test_field",
    "position_field_bounds": "test_field",
    "projected_curvature_bound": "projected",
    "projected_curvature_sq_integral": "projected",
    "equality_diagnostic": "equality",
    "equality_tolerance": "equality",
    "infimum_over_directions": "infimum",
    "causal_defect_search": "defect_search",
    "reilly_causal_certificate": "certificate",
}

QUADRATURE_IDENTITIES = (
    "mean_curvature_vertices",
    "minkowski_residual",
    "minkowski_projected_identities",
    "beltrami_residual",
    "sphere_slice_integral",
)
QUADRATURE_MC = ("monte_carlo_section_integral", "monte_carlo_sphere_integral")

PER_LAYER_METRICS = (
    ("meshes.build_s", "s"),
    ("meshes.vertices", "count"),
    ("immersions.eval_calls", "count"),
    ("immersions.eval_s", "s"),
    ("fem.geometry_calls", "count"),
    ("fem.geometry_s", "s"),
    ("fem.assemble_s", "s"),
    ("fem.stiffness_nnz", "count"),
    ("fem.solve_s", "s"),
    ("fem.factor_s", "s"),
    ("fem.iterate_s", "s"),
    ("fem.solve_iterations", "count"),
    ("fem.lu_solves", "count"),
    ("fem.factor_nnz", "count"),
    ("bounds.engine_s", "s"),
    ("bounds.test_field_s", "s"),
    ("bounds.projected_s", "s"),
    ("bounds.equality_s", "s"),
    ("bounds.infimum_s", "s"),
    ("bounds.defect_search_s", "s"),
    ("bounds.certificate_s", "s"),
    ("bounds.k_form_calls", "count"),
    ("bounds.m_form_calls", "count"),
    ("quadrature.identities_s", "s"),
    ("quadrature.mean_curvature_calls", "count"),
    ("quadrature.mc_s", "s"),
    ("quadrature.mc_samples", "count"),
    ("pipeline.cases", "count"),
    ("pipeline.report_s", "s"),
    ("pipeline.report_bytes", "bytes"),
    ("pipeline.report_changed", "count"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)
# the metrics the spans and counters give; the rest come from the runner
TRACED_METRICS = tuple(
    name
    for name, _ in PER_LAYER_METRICS
    if name not in ("pipeline.report_bytes", "pipeline.report_changed", "process.cpu_s", "trace.overhead_s")
)


class _CountingLU:
    """Stands in for the factor object `splu` returns and counts solves."""

    def __init__(self, lu, counts: Counter):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["fem.lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _is_code(value) -> bool:
    return callable(value) or isinstance(value, (staticmethod, classmethod, property))


def package_attributes(prefix: str = "lorentzlab") -> dict:
    """Every function, class and method the package's modules hold.

    Maps (owner name, attribute) to the object itself, so two snapshots
    compare by identity. Data attributes are left out: the program fills
    caches such as `meshes._ICO_COORDS` on first use.
    """
    out = {}
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in vars(module).items():
            if not _is_code(value):
                continue
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    if _is_code(cls_value):
                        out[(f"{mod_name}.{attr}", cls_attr)] = cls_value
    return out


def changed_attributes(before: dict, after: dict) -> list:
    """Keys whose object differs between two `package_attributes` snapshots."""
    keys = set(before) | set(after)
    return sorted(k for k in keys if before.get(k, k) is not after.get(k, k))


class Tracer:
    """Records nested spans and counters while installed; one per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open_groups: Counter = Counter()
        self._patches: list[tuple] = []

    # recording ---------------------------------------------------------------

    def call(self, name: str, group: str | None, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        With a `group`, a call made while another span of the same group
        is open records no span of its own: its time stays with the
        outermost call of the group.
        """
        kwargs = kwargs or {}
        if group is not None and self._open_groups[group]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        if group is not None:
            self._open_groups[group] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            if group is not None:
                self._open_groups[group] -= 1
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def _span_wrapper(self, name, fn, group=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, group, fn, args, kwargs)
            return after(result, args, kwargs) if after is not None else result

        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patching ----------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, target, make):
        """Replace every package module attribute bound to `target`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("lorentzlab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._patch(module, attr, make())

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import lorentzlab.bounds as bounds
        import lorentzlab.fem as fem
        import lorentzlab.immersions as immersions
        import lorentzlab.meshes as meshes
        import lorentzlab.pipeline as pipeline
        import lorentzlab.quadrature as quadrature

        counts = self.counts

        def add(counter, value):
            counts[counter] += value

        def fn_span(layer, fn, group=None, after=None):
            name = f"{layer}.{fn.__name__}"
            self._patch_everywhere(fn, lambda: self._span_wrapper(name, fn, group, after))

        def method_span(cls, attr, layer, group=None, after=None):
            fn = vars(cls)[attr]
            name = f"{layer}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._span_wrapper(name, fn, group, after))

        def counted(counter, after=None):
            def hook(result, args, kwargs):
                add(counter, 1)
                return after(result, args, kwargs) if after is not None else result

            return hook

        def mesh_done(result, args, kwargs):
            add("meshes.vertices", result.num_vertices)
            return result

        def assembled(result, args, kwargs):
            add("fem.stiffness_nnz", result.stiffness.nnz)
            return result

        def solved(result, args, kwargs):
            add("fem.solve_iterations", result.iterations)
            return result

        def factored(result, args, kwargs):
            # computed fill of the factor, not a measured size
            add("fem.factor_nnz", result.L.nnz + result.U.nnz)
            return _CountingLU(result, counts)

        def mc_done(fn):
            signature = inspect.signature(fn)

            def hook(result, args, kwargs):
                add("quadrature.mc_samples", signature.bind(*args, **kwargs).arguments["samples"])
                return result

            return hook

        fn_span("meshes", meshes.build_icosphere_mesh, after=mesh_done)
        fn_span("meshes", meshes.build_circle_mesh, after=mesh_done)
        method_span(immersions.Immersion, "eval", "immersions",
                    after=counted("immersions.eval_calls"))
        fn_span("fem", fem.mesh_geometry, after=counted("fem.geometry_calls"))
        fn_span("fem", fem.assemble_pencil, after=assembled)
        fn_span("fem", fem.solve_lambda1, after=solved)
        fn_span("fem", fem.splu, after=factored)

        engine = bounds.BoundEngine
        for attr, value in list(vars(engine).items()):
            if attr in ("k_form", "m_form"):
                self._patch(engine, attr, self._count_wrapper(f"bounds.{attr}_calls", value))
            elif inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
                method_span(engine, attr, "bounds", group="bounds")

        for name in QUADRATURE_IDENTITIES:
            after = counted("quadrature.mean_curvature_calls") if name == "mean_curvature_vertices" else None
            fn_span("quadrature", getattr(quadrature, name), after=after)
        for name in QUADRATURE_MC:
            fn = getattr(quadrature, name)
            fn_span("quadrature", fn, after=mc_done(fn))

        fn_span("pipeline", pipeline.run_case, after=counted("pipeline.cases"))
        fn_span("pipeline", pipeline.report_to_json, group="report")
        fn_span("pipeline", pipeline.write_report, group="report")
        method_span(pipeline.RunReport, "to_dict", "pipeline", group="report")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one traced run (times in seconds).

    Times are self times, except `fem.solve_s` (the whole eigensolve,
    factorization included), `fem.factor_s` (the `splu` call) and
    `pipeline.report_s` (the outermost report call).
    """
    own = self_times(spans)
    total = Counter()
    for (name, start, end, _), self_s in zip(spans, own):
        layer, _, rest = name.partition(".")
        func = rest.rsplit(".", 1)[-1]
        if layer == "meshes":
            total["meshes.build_s"] += self_s
        elif layer == "immersions":
            total["immersions.eval_s"] += self_s
        elif name == "fem.mesh_geometry":
            total["fem.geometry_s"] += self_s
        elif name == "fem.assemble_pencil":
            total["fem.assemble_s"] += self_s
        elif name == "fem.solve_lambda1":
            total["fem.solve_s"] += end - start
            total["fem.iterate_s"] += self_s
        elif name == "fem.splu":
            total["fem.factor_s"] += end - start
        elif layer == "bounds":
            total["bounds.engine_s"] += self_s
            family = BOUND_FAMILIES.get(func)
            if family is not None:
                total[f"bounds.{family}_s"] += self_s
        elif layer == "quadrature":
            key = "quadrature.mc_s" if func in QUADRATURE_MC else "quadrature.identities_s"
            total[key] += self_s
        elif name in ("pipeline.report_to_json", "pipeline.write_report", "pipeline.RunReport.to_dict"):
            total["pipeline.report_s"] += end - start
    total.update(counts)
    return {name: float(total[name]) for name in TRACED_METRICS}
