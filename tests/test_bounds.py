import numpy as np
import pytest

from lorentzlab.bounds import BoundEngine, TAU_BOUND
from lorentzlab.errors import DomainError, UsageError
from lorentzlab.fem import mesh_geometry
from lorentzlab.immersions import (
    CounterexampleSphere,
    CylinderSphere,
    HyperbolicArc,
    HyperplaneSphere,
    NullHyperplaneSphere,
)
from lorentzlab.meshes import build_circle_mesh, build_icosphere_mesh
from lorentzlab.minkowski import boost_direction, sample_timelike_directions
from oracles import (
    equality_residuals,
    f_direction,
    field_grams,
    field_k_trace,
    field_m_trace,
    gradient_squared_per_element,
    k_form,
    m_form,
    make_test_field_mean_curvature,
    make_test_field_position,
    make_test_field_projected,
    projected_curvature_bound,
    projected_position,
    rayleigh_defect_matrix,
    recenter_to_gravity_origin,
    signed_gradient_trace_density,
    signature_orthonormalize,
    tangential_sq,
    translated,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])


def unit_sphere(n=2):
    m = n + 2
    axis = np.zeros(m)
    axis[0] = 1.0
    return HyperplaneSphere(n, 1.0, np.zeros(m), axis)


@pytest.fixture(scope="module")
def sphere_engine():
    return BoundEngine(build_icosphere_mesh(4), unit_sphere())


@pytest.fixture(scope="module")
def counter_engine():
    return BoundEngine(build_icosphere_mesh(4), CounterexampleSphere(2))


@pytest.fixture(scope="module")
def null_engine():
    return BoundEngine(build_icosphere_mesh(4), NullHyperplaneSphere(2, 0.5))


def engines_for_cases(level=3):
    mesh = build_icosphere_mesh(level)
    circle = build_circle_mesh(level)
    return [
        BoundEngine(mesh, unit_sphere()),
        BoundEngine(mesh, CounterexampleSphere(2)),
        BoundEngine(circle, CounterexampleSphere(1)),
        BoundEngine(mesh, CylinderSphere(2, HyperbolicArc(2.0))),
        BoundEngine(mesh, NullHyperplaneSphere(2, 0.5)),
    ]


@pytest.fixture(scope="module")
def case_engines():
    return engines_for_cases(level=3)


# --- Gram-matrix evaluation against direct sparse forms ------------------------------


def _magnitude(A, fields) -> float:
    """|F|'|A||F| summed over columns: bounds the rounding of any form in F."""
    f = np.abs(fields).reshape(fields.shape[0], -1)
    return float(np.sum(f * (abs(A) @ f)))


def test_gram_forms_match_sparse_oracle(case_engines):
    rtol = 1e-12
    for eng in case_engines:
        name = type(eng.imm).__name__
        K, M = eng.pencil.stiffness, eng.pencil.mass
        psi, h = eng.positions_hat, eng.mean_curvature
        m, lam = eng.imm.m, eng.lambda1
        assert abs(eng.curvature_sq_integral - field_m_trace(eng, h)) <= rtol * _magnitude(M, h)
        for a in sample_timelike_directions(m, 8, seed=41):
            b = eng.signs * a
            f_psi, f_h = psi @ b, h @ b
            # the Gram forms never see the cancellation inside V b
            g_psi, g_h = np.abs(psi) @ np.abs(b), np.abs(h) @ np.abs(b)

            def close(value, expected, scale):
                assert abs(value - expected) <= rtol * scale, (name, a, value, expected)

            close(eng.tangential_energy(a), k_form(eng, f_psi), _magnitude(K, g_psi))
            close(
                eng.rayleigh_defect(a),
                k_form(eng, f_psi) - lam * m_form(eng, f_psi),
                _magnitude(K, g_psi) + lam * _magnitude(M, g_psi),
            )
            catalogue = eng.direction_catalogue([a])
            close(
                catalogue.sharp.meta["curvature_integral"][0],
                field_m_trace(eng, h) + m_form(eng, f_h),
                _magnitude(M, h) + _magnitude(M, g_h),
            )
            mc = eng.mean_curvature_field_bound([a]).meta
            close(mc["numerator"][0], m * k_form(eng, f_h) + field_k_trace(eng, h),
                  m * _magnitude(K, g_h) + _magnitude(K, h))
            close(mc["denominator"][0], m * m_form(eng, f_h) + field_m_trace(eng, h),
                  m * _magnitude(M, g_h) + _magnitude(M, h))
            first, _ = eng.position_field_bounds([a])
            close(first.lhs[0], lam * (m * m_form(eng, f_psi) + field_m_trace(eng, psi)),
                  lam * (m * _magnitude(M, g_psi) + _magnitude(M, psi)))
            close(first.meta["tangential"][0], k_form(eng, f_psi), _magnitude(K, g_psi))

            w = projected_position(psi, a)
            report = eng.test_field_bounds([a])[2]
            g_w = np.abs(psi) @ (1.0 + np.abs(np.outer(b, a)))  # magnitude of psi_hat T
            close(report.lhs[0], lam * (m * m_form(eng, w @ b) + field_m_trace(eng, w)),
                  lam * (m + 1) * _magnitude(M, g_w))
            close(report.rhs[0], m * k_form(eng, w @ b) + field_k_trace(eng, w),
                  (m + 1) * _magnitude(K, g_w))

            diag = catalogue.equality
            expected = equality_residuals(eng, a)
            for key in ("residual_rel", "residual_rel_canonical", "causal_residual_sq"):
                assert diag[key][0] == pytest.approx(expected[key], rel=1e-12, abs=1e-300), key
            mu_scale = float(eng.geometry.lumped @ np.abs(expected["a_component"]))
            close(diag["a_component_integral"][0], expected["a_component_integral"], mu_scale)


def test_sampled_searches_match_direction_loop(case_engines):
    for eng in case_engines:
        dirs = sample_timelike_directions(eng.imm.m, 12, seed=3)
        loop = [projected_curvature_bound(eng, a, sharp=True).rhs for a in dirs]
        report = eng.infimum_over_directions(12, seed=3)
        assert report.rhs == pytest.approx(min(loop), rel=1e-12)
        search = eng.causal_defect_search(16, seed=5)
        ell = np.array(search["direction"])
        q = eng.rayleigh_defect(ell)
        assert search["defect_rel"] == pytest.approx(
            abs(q) / (eng.lambda1 * np.trace(eng.gram_m_pos) * (ell @ ell)), rel=1e-12
        )


# --- test fields ----------------------------------------------------------------


def test_mean_curvature_field_centering():
    mesh = build_icosphere_mesh(4)
    field = make_test_field_mean_curvature(mesh, CounterexampleSphere(2))
    assert field.centered
    assert np.abs(field.center_residual).max() <= 1e-3

    sphere_field = make_test_field_mean_curvature(mesh, unit_sphere())
    assert sphere_field.centered
    assert np.abs(sphere_field.center_residual).max() <= 1e-12


def test_mean_curvature_field_center_residual_decreases():
    values = []
    for level in (2, 3, 4):
        mesh = build_icosphere_mesh(level)
        field = make_test_field_mean_curvature(mesh, CounterexampleSphere(2))
        values.append(np.abs(field.center_residual).max())
    assert values[0] > values[1] > values[2]


def test_position_field_requires_recentering():
    mesh = build_icosphere_mesh(2)
    imm = CounterexampleSphere(2)
    with pytest.raises(UsageError):
        make_test_field_position(mesh, imm)
    recentered = recenter_to_gravity_origin(imm, mesh)
    field = make_test_field_position(mesh, recentered)
    assert field.centered
    assert np.abs(field.center_residual).max() <= 1e-12


def test_projected_field_kills_direction_component():
    mesh = build_icosphere_mesh(2)
    recentered = recenter_to_gravity_origin(CounterexampleSphere(2), mesh)
    field = make_test_field_projected(mesh, recentered, AXIS4)
    assert np.abs(field.values[:, 0]).max() < 1e-14


# --- signed gradient trace ---------------------------------------------------------


def test_gradient_trace_of_position_is_dimension(counter_engine):
    eng = counter_engine
    density = signed_gradient_trace_density(
        eng.mesh, eng.imm, eng.positions_hat, geometry=eng.geometry
    )
    assert np.abs(density - 2.0).max() < 1e-10


def test_gradient_trace_of_projected_position(counter_engine):
    eng = counter_engine
    a = boost_direction(0.5, np.array([0.6, 0.8, 0.0]))
    field = projected_position(eng.positions_hat, a)
    density = signed_gradient_trace_density(eng.mesh, eng.imm, field, geometry=eng.geometry)
    s = f_direction(eng, eng.positions_hat, a)
    grad_sq = gradient_squared_per_element(eng.geometry, s)
    assert np.abs(density - (2.0 + grad_sq)).max() < 1e-10


def test_gradient_trace_identity_vs_pointwise_converges():
    imm = CounterexampleSphere(2)
    a = boost_direction(0.4, np.array([0.0, 0.6, 0.8]))
    l1 = []
    for level in (3, 4):
        mesh = build_icosphere_mesh(level)
        recentered = recenter_to_gravity_origin(imm, mesh)
        geom, _ = mesh_geometry(mesh, recentered)
        field = make_test_field_projected(mesh, recentered, a)
        density = signed_gradient_trace_density(mesh, recentered, field, geometry=geom)
        pointwise = tangential_sq(recentered, mesh.vertices, a)
        per_element = pointwise[mesh.simplices].mean(axis=1)
        l1.append(float(geom.volumes @ np.abs(density - (2.0 + per_element))) / geom.total_volume)
    assert l1[0] > l1[1]
    assert l1[1] <= 1e-2


def test_gradient_trace_of_scalar_times_direction(counter_engine):
    # a mean-zero scalar times a timelike direction has trace -|grad f|^2
    eng = counter_engine
    rng = np.random.default_rng(4)
    f = rng.standard_normal(eng.mesh.num_vertices)
    field = np.outer(f, AXIS4)
    density = signed_gradient_trace_density(eng.mesh, eng.imm, field, geometry=eng.geometry)
    grad_sq = gradient_squared_per_element(eng.geometry, f)
    assert np.abs(density + grad_sq).max() < 1e-10


def test_gradient_trace_basis_independence(counter_engine):
    eng = counter_engine
    field = eng.mean_curvature
    base = signed_gradient_trace_density(eng.mesh, eng.imm, field, geometry=eng.geometry)
    rng = np.random.default_rng(8)
    basis, signs = signature_orthonormalize([rng.standard_normal(4) for _ in range(6)], need=4)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    recomputed = np.zeros_like(base)
    for b, eps in zip(basis, signs):
        f_b = field @ (eta @ b)
        recomputed += eps * gradient_squared_per_element(eng.geometry, f_b)
    scale = np.abs(base).max()
    assert np.abs(recomputed - base).max() <= 1e-9 * max(scale, 1.0)


# --- master inequality ---------------------------------------------------------------


def test_master_inequality_all_cases_and_fields():
    for eng in engines_for_cases(level=3):
        h_field = make_test_field_mean_curvature(eng.mesh, eng.imm, pencil=eng.pencil)
        reports = eng.test_field_bounds(sample_timelike_directions(eng.imm.m, 3, seed=21))
        assert [r.meta["provenance"] for r in reports] == [
            "mean-curvature", "position", "projected-position"
        ]
        assert [r.meta["centered"] for r in reports] == [h_field.centered, True, True]
        for report in reports:
            assert report.holds.all(), (type(eng.imm).__name__, report.meta["provenance"])


def test_position_fields_read_the_test_fields_lambda1_sides_bitwise(case_engines):
    # a report has the test fields at four directions and the position
    # fields at the first three: on those rows the left-hand sides agree
    for eng in case_engines:
        dirs = sample_timelike_directions(eng.imm.m, 4, seed=7)
        _, position, projected = eng.test_field_bounds(dirs)
        first, second = eng.position_field_bounds(dirs[:3])
        name = type(eng.imm).__name__
        assert np.array_equal(position.lhs[:3], first.lhs), name
        assert np.array_equal(projected.lhs[:3], second.lhs), name


def test_master_inequality_holds_at_level5():
    eng = BoundEngine(build_icosphere_mesh(5), CounterexampleSphere(2))
    for report in eng.test_field_bounds(sample_timelike_directions(4, 2, seed=31)):
        assert report.holds.all()


def test_master_inequality_equality_case_slack(sphere_engine):
    report = sphere_engine.test_field_bounds([AXIS4])[0]
    assert report.holds[0]
    assert report.slack[0] / max(abs(report.lhs[0]), abs(report.rhs[0])) <= 1e-2


def test_master_inequality_reduces_to_minimum_principle(counter_engine):
    eng = counter_engine
    rng = np.random.default_rng(9)
    f = rng.standard_normal(eng.mesh.num_vertices)
    m_ones = eng.pencil.mass @ np.ones(eng.mesh.num_vertices)
    f -= (m_ones @ f) / eng.volume
    m = eng.imm.m
    report = eng._test_field("custom", *field_grams(eng, np.outer(f, AXIS4)), AXIS4[None], m)
    # both sides carry the factor m - 1 relative to the minimum principle
    assert report.lhs[0] == pytest.approx(
        eng.lambda1 * (m - 1) * m_form(eng, f), rel=1e-12
    )
    assert report.rhs[0] == pytest.approx((m - 1) * k_form(eng, f), rel=1e-12)
    assert report.holds[0]


def test_vanishing_test_field_is_rejected(counter_engine):
    zero = np.zeros((counter_engine.mesh.num_vertices, 4))
    with pytest.raises(DomainError):
        counter_engine._test_field(
            "custom", *field_grams(counter_engine, zero), AXIS4[None], counter_engine.imm.m
        )


# --- named bounds ---------------------------------------------------------------------


def test_reilly_sphere_equality(sphere_engine):
    report = sphere_engine.reilly()
    assert report.holds
    assert report.rhs == pytest.approx(2.0, rel=2e-3)
    assert abs(report.slack) / 2.0 <= 1e-2


def test_reilly_counterexample_violated(counter_engine):
    report = counter_engine.reilly()
    assert not report.holds
    assert report.rhs == pytest.approx(26.0 / 15.0, rel=1e-2)
    # margin comfortably beyond the published bound gap
    assert report.lhs - report.rhs >= 2.0 / 9.0 * 0.5


def test_reilly_cylinder_violated():
    eng = BoundEngine(build_icosphere_mesh(4), CylinderSphere(2, HyperbolicArc(2.0)))
    report = eng.reilly()
    assert not report.holds
    assert report.rhs == pytest.approx(2.0 * 29.0 / 30.0, rel=1e-2)


def test_mean_curvature_field_bound(sphere_engine, counter_engine):
    eq = sphere_engine.mean_curvature_field_bound([AXIS4])
    assert eq.holds[0] and abs(eq.slack[0]) / 2.0 <= 1e-2
    strict = counter_engine.mean_curvature_field_bound([AXIS4])
    assert strict.holds[0] and strict.slack[0] > 0


def test_position_field_bounds_hold_exactly():
    for eng in engines_for_cases(level=3):
        first, second = eng.position_field_bounds(sample_timelike_directions(eng.imm.m, 3, seed=5))
        assert first.holds.all() and second.holds.all()
        scale = np.maximum(abs(first.lhs), abs(first.rhs))
        assert (first.slack >= -TAU_BOUND * scale).all()


def test_position_field_bounds_sphere_reduce_to_classical(sphere_engine):
    first, second = sphere_engine.position_field_bounds([AXIS4])
    # orthogonal hyperplane: tangential term vanishes, both collapse
    assert first.meta["tangential"][0] <= 1e-20
    assert first.lhs[0] == pytest.approx(second.lhs[0], rel=1e-12)
    assert first.rhs[0] == pytest.approx(second.rhs[0], rel=1e-12)
    assert first.rhs[0] == pytest.approx(2.0 * sphere_engine.volume, rel=1e-12)


def test_projection_bounds_sphere_equality(sphere_engine):
    catalogue = sphere_engine.direction_catalogue([AXIS4])
    for report in (catalogue.sharp, catalogue.plain):
        assert report.holds[0]
        assert abs(report.slack[0]) / 2.0 <= 1e-2
    # boosted directions keep the equality (exactly 2 in the continuum)
    boosted = boost_direction(0.8, np.array([0.0, 1.0, 0.0]))
    sharp_b = sphere_engine.direction_catalogue([boosted]).sharp
    assert abs(sharp_b.rhs[0] - 2.0) <= 2e-2


def test_projection_bounds_counterexample_strict(counter_engine):
    catalogue = counter_engine.direction_catalogue(sample_timelike_directions(4, 10, seed=7)[1:])
    sharp, plain = catalogue.sharp, catalogue.plain
    for j in range(10):
        assert sharp.holds[j] and sharp.slack[j] > 0
        assert plain.holds[j] and plain.slack[j] > 0
        # the tangential correction can only lower the bound
        assert sharp.rhs[j] <= plain.rhs[j]


def test_projection_bound_translation_invariance():
    mesh = build_icosphere_mesh(3)
    imm = CounterexampleSphere(2)
    moved = translated(imm, np.array([0.7, -2.0, 4.0, 1.3]))
    a = boost_direction(0.6, np.array([1.0, 0.0, 0.0]))
    eng = BoundEngine(mesh, imm)
    eng_moved = BoundEngine(mesh, moved)
    c1, c2 = eng.direction_catalogue([a]), eng_moved.direction_catalogue([a])
    for r1, r2 in ((c1.plain, c2.plain), (c1.sharp, c2.sharp)):
        assert r2.rhs[0] == pytest.approx(r1.rhs[0], rel=1e-10)
    assert eng_moved.lambda1 == pytest.approx(eng.lambda1, rel=1e-10)


def test_infimum_over_directions(counter_engine, sphere_engine):
    report = counter_engine.infimum_over_directions(50, seed=11)
    assert report.holds and report.rhs > counter_engine.lambda1
    # subset minimum is monotone under the prefix-stable sampler
    small = counter_engine.infimum_over_directions(20, seed=11)
    assert report.rhs <= small.rhs

    # for the round sphere the direction landscape is exactly flat at the
    # eigenvalue, so the sampled minimum sits at the axis value
    sphere_report = sphere_engine.infimum_over_directions(50, seed=11)
    axis_value = sphere_engine.direction_catalogue([AXIS4]).sharp.rhs[0]
    assert sphere_report.rhs == pytest.approx(axis_value, rel=2e-2)
    assert sphere_report.rhs == pytest.approx(2.0, rel=2e-2)


def test_infimum_reports_axis_on_flat_landscape():
    # every sample ties to rounding on the round sphere; the axis is reported
    eng = BoundEngine(build_icosphere_mesh(3), unit_sphere())
    report = eng.infimum_over_directions(20, seed=8)
    assert report.directions.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert report.meta["boost"] == 0.0


# --- defect form and certificates --------------------------------------------------


def test_rayleigh_defect_matrix_positive_semidefinite(counter_engine):
    q = rayleigh_defect_matrix(counter_engine)
    assert np.allclose(q, q.T, atol=1e-10)
    eigs = np.linalg.eigvalsh(q)
    assert eigs.min() >= -TAU_BOUND * np.abs(q).max()


def test_rayleigh_defect_matrix_exactly_symmetric_psd(case_engines):
    for eng in case_engines:
        q = rayleigh_defect_matrix(eng)
        assert np.array_equal(q, q.T)
        assert np.linalg.eigvalsh(q).min() >= -1e-12 * np.abs(q).max()
        e1 = np.eye(eng.imm.m)[1]
        assert eng.rayleigh_defect(e1) == pytest.approx(q[1, 1], rel=1e-15)


def test_rayleigh_defect_sphere_examples(sphere_engine):
    assert sphere_engine.rayleigh_defect(AXIS4) == pytest.approx(0.0, abs=1e-20)
    # hyperplane coordinates are eigenfunctions, so their defect is small
    coord = np.array([0.0, 1.0, 0.0, 0.0])
    scale = sphere_engine.lambda1 * sphere_engine.volume
    assert abs(sphere_engine.rayleigh_defect(coord)) <= 1e-2 * scale


def test_certificate_sphere_equality(sphere_engine):
    report = sphere_engine.reilly_causal_certificate(AXIS4)
    assert report.status == "ok"
    assert report.holds
    assert report.meta["equality"]
    assert report.meta["volume_identity_ratio"] == pytest.approx(1.0, rel=1e-2)


def test_certificate_null_normal(null_engine):
    ell = null_engine.imm.null_normal
    report = null_engine.reilly_causal_certificate(ell)
    assert report.status == "ok"
    assert report.holds
    # residual is null-parallel: causal square vanishes, Euclidean does not
    assert report.meta["causal_residual_sq"] <= 1e-3
    assert report.meta["euclid_residual_sq"] > 1e-2
    assert report.meta["equality"]


def test_certificate_defect_vanishes_on_shipped_directions(sphere_engine, null_engine):
    for eng, ell in ((sphere_engine, AXIS4), (null_engine, null_engine.imm.null_normal)):
        report = eng.reilly_causal_certificate(ell)
        assert report.meta["precondition_ok"]
        assert abs(report.meta["defect_rel"]) <= 1e-12


def test_certificate_counterexample_precondition_fails(counter_engine):
    report = counter_engine.reilly_causal_certificate(AXIS4)
    assert report.status == "precondition-failed"
    search = counter_engine.causal_defect_search(40, seed=3)
    assert not search["found"]


def test_direction_catalogue_rejects_a_non_unit_row(counter_engine):
    dirs = sample_timelike_directions(4, 3, seed=5)
    dirs[2] *= 2.0
    with pytest.raises(DomainError, match="got <a,a> = -4.0"):
        counter_engine.direction_catalogue(dirs)


def test_certificate_rejects_spacelike_direction(counter_engine):
    with pytest.raises(DomainError):
        counter_engine.reilly_causal_certificate(np.array([0.0, 1.0, 0.0, 0.0]))


# --- equality diagnostics ------------------------------------------------------------


def test_equality_diagnostic_sphere(sphere_engine):
    diag = sphere_engine.direction_catalogue([AXIS4]).equality
    assert diag["verdict"][0] == "equality-case"
    assert diag["tangential_ratio"][0] <= 1e-12
    assert diag["radius_from_curvature"][0] == pytest.approx(diag["radius_from_lambda1"][0], rel=1e-2)
    assert abs(diag["a_component_integral"][0]) <= 1e-10
    # equality persists at boosted directions
    boosted = sphere_engine.direction_catalogue(sample_timelike_directions(4, 5, seed=13)[1:])
    assert all(verdict == "equality-case" for verdict in boosted.equality["verdict"])


def test_equality_diagnostic_counterexample_strict(counter_engine):
    diag = counter_engine.direction_catalogue(sample_timelike_directions(4, 10, seed=7)).equality
    for j in range(11):
        assert diag["verdict"][j] == "strict"
        assert abs(diag["a_component_integral"][j]) <= 1e-10


def test_equality_diagnostic_null_graph_strict(null_engine):
    diag = null_engine.direction_catalogue([np.concatenate(([1.0], np.zeros(4)))]).equality
    assert diag["verdict"][0] == "strict"
    # the residual is nearly null, so its causal square is tiny
    assert abs(diag["causal_residual_sq"][0]) <= 1e-2


@pytest.mark.parametrize("key", ("residual_rel", "residual_rel_canonical", "causal_residual_sq"))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("k", (-3, 1, 5))
def test_dilated_sphere_keeps_residual_rel_bitwise(n, k, key):
    # residual_rel is rho / psi times n / lambda1: a sphere of radius
    # r = 2^k scales rho by 1/r, psi by r and lambda1 by 1/r^2, each
    # exactly, so the product has no unit and keeps the unit sphere's bits;
    # the causal square of the residual, 1/r^2, takes the same factor
    mesh = build_icosphere_mesh(3) if n == 2 else build_circle_mesh(3)
    dirs = sample_timelike_directions(n + 2, 8, seed=11)

    def residual(radius):
        imm = HyperplaneSphere(n, radius, np.zeros(n + 2), np.eye(n + 2)[0])
        return BoundEngine(mesh, imm).direction_catalogue(dirs).equality[key]

    assert np.array_equal(residual(2.0**k), residual(1.0))


def test_equality_tolerance_tracks_level():
    mesh3 = build_icosphere_mesh(3)
    eng3 = BoundEngine(mesh3, unit_sphere())
    assert eng3.equality_tolerance() == pytest.approx(2 * BoundEngine(
        build_icosphere_mesh(4), unit_sphere()
    ).equality_tolerance())
    assert eng3.direction_catalogue([AXIS4]).equality["verdict"][0] == "equality-case"
