"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failing criterion shows up as a failing test.
"""

import math
import time

import numpy as np
import pytest

from lorentzlab.bounds import BoundEngine
from lorentzlab.fem import assemble_pencil, solve_lambda1
from lorentzlab.immersions import (
    CounterexampleSphere,
    CylinderSphere,
    HyperbolicArc,
    HyperplaneSphere,
    NullHyperplaneSphere,
)
from lorentzlab.meshes import build_circle_mesh, build_icosphere_mesh
from lorentzlab.minkowski import (
    SymBilinearForm,
    boost_direction,
    sample_timelike_directions,
    section_integral_exact,
    sphere_integral_exact,
    sq_norm,
)
from lorentzlab.quadrature import (
    mean_curvature_vertices,
    minkowski_projected_identities,
    minkowski_residual,
    monte_carlo_section_integral,
    monte_carlo_sphere_integral,
    sphere_slice_integral,
)
from oracles import (
    chart_at,
    fd_hessian,
    fd_jacobian,
    hessian,
    jacobian,
    k_form,
    m_form,
    make_test_field_projected,
    recenter_to_gravity_origin,
    signed_gradient_trace_density,
    tangential_sq,
    translated,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])
ROUNDOFF_FLOOR = 1e-12  # residuals below this are machine noise, not mesh error


def unit_sphere(n=2):
    m = n + 2
    axis = np.zeros(m)
    axis[0] = 1.0
    return HyperplaneSphere(n, 1.0, np.zeros(m), axis)


def gallery_level4():
    mesh = build_icosphere_mesh(4)
    circle = build_circle_mesh(4)
    return [
        ("sphere-hyperplane", mesh, unit_sphere()),
        ("counterexample-n2", mesh, CounterexampleSphere(2)),
        ("counterexample-n1", circle, CounterexampleSphere(1)),
        ("cylinder-curve", mesh, CylinderSphere(2, HyperbolicArc(2.0))),
        ("lightlike-hyperplane", mesh, NullHyperplaneSphere(2, 0.5)),
    ]


@pytest.fixture(scope="module")
def engines():
    return {name: BoundEngine(mesh, imm) for name, mesh, imm in gallery_level4()}


@pytest.fixture(scope="module")
def counter_engine_l5():
    return BoundEngine(build_icosphere_mesh(5), CounterexampleSphere(2))


def conclude(number, detail):
    print(f"\nACCEPTANCE {number}: PASS - {detail}")


def test_criterion_1_sphere_eigenvalue():
    results = {}
    for level, tol in ((4, 2e-2), (5, 5e-3)):
        pencil = assemble_pencil(build_icosphere_mesh(level), unit_sphere())
        start = time.perf_counter()
        spec = solve_lambda1(pencil)
        elapsed = time.perf_counter() - start
        rel = abs(spec.lambda1 - 2.0) / 2.0
        assert rel <= tol, f"level {level}: rel error {rel:.3e} > {tol}"
        assert elapsed <= 30.0, f"level {level}: solve took {elapsed:.1f}s"
        results[level] = (spec.lambda1, rel, elapsed)
    conclude(
        1,
        f"lambda1 level4={results[4][0]:.6f} (rel {results[4][1]:.2e}), "
        f"level5={results[5][0]:.6f} (rel {results[5][1]:.2e}), solves "
        f"{results[4][2]:.2f}s/{results[5][2]:.2f}s",
    )


def test_criterion_2_counterexample_n2(engines):
    target = 26.0 / 15.0
    imm = CounterexampleSphere(2)
    slice_rhs = (
        2.0
        * sphere_slice_integral(2, lambda p: sq_norm(imm.mean_curvature(p)))
        / sphere_slice_integral(2, lambda p: np.ones(len(p)))
    )
    assert abs(slice_rhs - target) <= 1e-6

    report = engines["counterexample-n2"].reilly()
    assert abs(report.rhs - target) / target <= 1e-2
    assert not report.holds, "classical bound should be violated"
    assert report.lhs > report.rhs
    assert target <= 16.0 / 9.0 + 1e-12  # consistent with the published margin
    conclude(
        2,
        f"slice rhs={slice_rhs:.9f} (=26/15), mesh rhs={report.rhs:.6f}, "
        f"lambda1={report.lhs:.6f}, violation detected",
    )


def test_criterion_3_counterexample_n1(engines):
    report = engines["counterexample-n1"].reilly()
    assert report.rhs < 1.0
    assert not report.holds
    assert engines["counterexample-n1"].lambda1 == pytest.approx(1.0, rel=1e-2)
    # slice value for the circle: mean curvature square averages to 5/8
    imm = CounterexampleSphere(1)
    slice_rhs = (
        sphere_slice_integral(1, lambda p: sq_norm(imm.mean_curvature(p)))
        / sphere_slice_integral(1, lambda p: np.ones(len(p)))
    )
    assert slice_rhs == pytest.approx(5.0 / 8.0, abs=1e-9)
    conclude(3, f"rhs={report.rhs:.6f} < 1 = lambda1, violation detected (slice 5/8)")


def _rejection_forms(qseed, count, min_exact, exact_values):
    rng = np.random.default_rng(qseed)
    forms = []
    while len(forms) < count:
        q = SymBilinearForm.random(4, rng)
        if min(abs(e) for e in exact_values(q)) >= min_exact:
            forms.append(q)
    return forms


def test_criterion_4_averaging_lemmas():
    directions = [
        AXIS4,
        boost_direction(0.5, np.array([1.0, 0.0, 0.0])),
        boost_direction(1.0, np.array([0.6, 0.8, 0.0])),
    ]
    # forms are rejection-sampled so the exact values are large enough for
    # a relative comparison to be meaningful
    section_forms = _rejection_forms(
        21, 5, 6.0, lambda q: [section_integral_exact(q, a) for a in directions]
    )
    worst_z = worst_rel = 0.0
    k = 0
    for q in section_forms:
        for a in directions:
            exact = section_integral_exact(q, a)
            mc = monte_carlo_section_integral(q, a, 1_000_000, seed=5000 + k)
            k += 1
            z = abs(mc.estimate - exact) / mc.stderr
            rel = abs(mc.estimate - exact) / abs(exact)
            assert z <= 3.0, f"section form z={z:.2f}"
            assert rel <= 5e-3, f"section form rel={rel:.2e}"
            worst_z = max(worst_z, z)
            worst_rel = max(worst_rel, rel)

    euclid_forms = _rejection_forms(21, 5, 6.0, lambda q: [sphere_integral_exact(q)])
    for k, q in enumerate(euclid_forms):
        exact = sphere_integral_exact(q)
        mc = monte_carlo_sphere_integral(q, 1_000_000, seed=6000 + k)
        z = abs(mc.estimate - exact) / mc.stderr
        rel = abs(mc.estimate - exact) / abs(exact)
        assert z <= 3.0, f"euclid form z={z:.2f}"
        assert rel <= 5e-3, f"euclid form rel={rel:.2e}"
        worst_z = max(worst_z, z)
        worst_rel = max(worst_rel, rel)
    conclude(4, f"20 Monte Carlo checks at 1e6 samples: worst z={worst_z:.2f}, worst rel={worst_rel:.2e}")


def test_criterion_5_volume_identities():
    worst = 0.0
    for name, _, imm in gallery_level4():
        residuals = []
        for level in (2, 3, 4):
            if imm.n == 1:
                mesh = build_circle_mesh(level)
            else:
                mesh = build_icosphere_mesh(level)
            pencil = assemble_pencil(mesh, imm)
            geom = pencil.geometry
            h = mean_curvature_vertices(imm, pencil)
            res = abs(minkowski_residual(geom, h)) / geom.total_volume
            residuals.append(res)
        assert residuals[-1] <= 1e-3, f"{name}: residual {residuals[-1]:.2e}"
        worst = max(worst, residuals[-1])
        if residuals[0] > ROUNDOFF_FLOOR:
            assert residuals[0] > residuals[1] > residuals[2], f"{name}: {residuals}"

        if imm.n == 1:
            mesh = build_circle_mesh(4)
        else:
            mesh = build_icosphere_mesh(4)
        recentered = recenter_to_gravity_origin(imm, mesh)
        pencil = assemble_pencil(mesh, recentered)
        geom = pencil.geometry
        h = mean_curvature_vertices(recentered, pencil)
        a = np.concatenate(([1.0], np.zeros(imm.m - 1)))
        for direction in (a, boost_direction(0.5, _spatial_unit(imm.m))):
            first, second = minkowski_projected_identities(pencil, geom.positions, h, direction)
            assert abs(first) / geom.total_volume <= 1e-3, name
            assert abs(second) / geom.total_volume <= 1e-3, name
            worst = max(worst, abs(first) / geom.total_volume, abs(second) / geom.total_volume)
    conclude(5, f"volume identities within 1e-3*Vol on all gallery cases (worst {worst:.2e})")


def _spatial_unit(m):
    u = np.zeros(m - 1)
    u[0] = 0.6
    u[1] = 0.8
    return u


def test_criterion_6_equality_case(engines):
    eng = engines["sphere-hyperplane"]
    catalogue = eng.direction_catalogue([AXIS4])
    report = catalogue.plain
    rel_slack = abs(report.slack[0]) / max(abs(eng.lambda1), abs(report.rhs[0]))
    assert rel_slack <= 1e-2
    verdict = catalogue.equality["verdict"][0]
    radius_h = catalogue.equality["radius_from_curvature"][0]
    radius_lam = catalogue.equality["radius_from_lambda1"][0]
    assert verdict == "equality-case"
    assert abs(radius_h - radius_lam) <= 1e-2
    assert radius_lam == pytest.approx(1.0, rel=1e-2)
    conclude(
        6,
        f"plain projected bound slack rel {rel_slack:.2e}, verdict {verdict}, "
        f"radius {radius_h:.4f} vs sqrt(n/lambda1)={radius_lam:.4f}",
    )


def test_criterion_7_strictness(engines, counter_engine_l5):
    eng4 = engines["counterexample-n2"]
    eng5 = counter_engine_l5
    directions = sample_timelike_directions(4, 10, seed=7)[1:]
    min_slack = math.inf
    worst_shift = 0.0
    c4, c5 = eng4.direction_catalogue(directions), eng5.direction_catalogue(directions)
    for j in range(len(directions)):
        for r4, r5 in ((c4.sharp, c5.sharp), (c4.plain, c5.plain)):
            assert r4.slack[j] > 0.0
            shift = abs(r5.slack[j] / r4.slack[j] - 1.0)
            assert shift <= 0.2, f"slack unstable: {r4.slack[j]:.4f} -> {r5.slack[j]:.4f}"
            min_slack = min(min_slack, r4.slack[j])
            worst_shift = max(worst_shift, shift)
        assert c4.equality["verdict"][j] == "strict"
    conclude(
        7,
        f"10 directions: min slack {min_slack:.4f} > 0, refinement shift <= {worst_shift:.1%}, "
        f"all verdicts strict",
    )


def test_criterion_8_master_inequality_and_trace_identities(engines):
    checked = 0
    for name, engine in engines.items():
        for report in engine.test_field_bounds(sample_timelike_directions(engine.imm.m, 5, seed=23)):
            assert report.holds.all(), (name, report.meta["provenance"])
            checked += report.holds.size

        # gradient-trace identities at level 4
        density = signed_gradient_trace_density(
            engine.mesh, engine.imm, engine.positions_hat, geometry=engine.geometry
        )
        l1_position = float(
            engine.geometry.volumes @ np.abs(density - engine.imm.n)
        ) / engine.volume
        assert l1_position <= 1e-2, name

        # the identity's discretization constant grows like cosh^2 of the
        # boost, so the stated bound is checked at the axis and a mild boost
        recentered = recenter_to_gravity_origin(engine.imm, engine.mesh)
        axis = np.concatenate(([1.0], np.zeros(engine.imm.m - 1)))
        for a in (axis, boost_direction(0.5, _spatial_unit(engine.imm.m))):
            field = make_test_field_projected(engine.mesh, recentered, a)
            density_a = signed_gradient_trace_density(
                engine.mesh, recentered, field, geometry=engine.geometry
            )
            pointwise = tangential_sq(recentered, engine.mesh.vertices, a)
            per_element = pointwise[engine.mesh.simplices].mean(axis=1)
            l1_projected = float(
                engine.geometry.volumes @ np.abs(density_a - (engine.imm.n + per_element))
            ) / engine.volume
            assert l1_projected <= 1e-2, f"{name}: {l1_projected:.3e}"
    conclude(8, f"{checked} master-inequality reports hold; trace identities within 1e-2*Vol")


def test_criterion_9_property_suite(engines):
    # discrete minimum principle, stiffness kernel
    eng = engines["counterexample-n2"]
    rng = np.random.default_rng(17)
    ones = np.ones(eng.mesh.num_vertices)
    m_ones = eng.pencil.mass @ ones
    for _ in range(20):
        f = rng.standard_normal(eng.mesh.num_vertices)
        f -= (m_ones @ f) / eng.volume
        assert k_form(eng, f) >= eng.lambda1 * m_form(eng, f) * (1.0 - 1e-9)
    kernel_norm = float(np.linalg.norm(eng.pencil.stiffness @ ones))
    assert kernel_norm <= 1e-10

    # translation invariance of the projected-curvature bounds
    mesh = build_icosphere_mesh(4)
    imm = CounterexampleSphere(2)
    moved = translated(imm, np.array([0.3, -1.0, 2.0, 0.7]))
    eng_moved = BoundEngine(mesh, moved)
    a = boost_direction(0.7, np.array([0.0, 0.6, 0.8]))
    worst = 0.0
    c1, c2 = eng.direction_catalogue([a]), eng_moved.direction_catalogue([a])
    for r1, r2 in ((c1.plain, c2.plain), (c1.sharp, c2.sharp)):
        lhs1, lhs2 = eng.lambda1, eng_moved.lambda1
        worst = max(worst, abs(r2.rhs[0] - r1.rhs[0]) / abs(r1.rhs[0]), abs(lhs2 - lhs1) / abs(lhs1))
    assert worst <= 1e-10

    # derivative cross-checks for every gallery immersion
    for name, _, imm in gallery_level4():
        rng_pts = np.random.default_rng(29)
        pts = rng_pts.standard_normal((100, imm.n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        worst_jac = worst_hess = 0.0
        for p in pts:
            chart = chart_at(p)
            u = chart.from_manifold(p)
            jac = jacobian(imm, p)
            fd = fd_jacobian(imm, chart, u)
            worst_jac = max(worst_jac, np.abs(jac - fd).max() / max(1.0, np.abs(jac).max()))
            hess = hessian(imm, p)
            fdh = fd_hessian(imm, chart, u)
            worst_hess = max(
                worst_hess, np.abs(hess - fdh).max() / max(1.0, np.abs(hess).max())
            )
        assert worst_jac <= 1e-6, name
        assert worst_hess <= 1e-4, name
    conclude(
        9,
        f"minimum principle exact, |K 1|={kernel_norm:.1e}, translation shift {worst:.1e}, "
        f"derivative cross-checks within 1e-6/1e-4",
    )
