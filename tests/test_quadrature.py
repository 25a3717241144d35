import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from lorentzlab import quadrature
from lorentzlab.errors import NumericalError, UsageError
from lorentzlab.fem import assemble_pencil, mesh_geometry
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
    inner,
    section_integral_exact,
    sphere_integral_exact,
    unit_sphere_volume,
)
from lorentzlab.quadrature import (
    MC_BLOCK,
    SLICE_NODES,
    beltrami_residual,
    mean_curvature_vertices,
    minkowski_projected_identities,
    minkowski_residual,
    monte_carlo_section_integral,
    monte_carlo_sphere_integral,
    sphere_slice_integral,
)
from oracles import (
    apply_discrete_laplacian,
    gradient_squared_per_element,
    integrate_over_mesh,
    recenter_to_gravity_origin,
    sample_spherical_section,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])


def unit_sphere(n=2):
    m = n + 2
    axis = np.zeros(m)
    axis[0] = 1.0
    return HyperplaneSphere(n, 1.0, np.zeros(m), axis)


def closed_h_gallery():
    return [
        unit_sphere(),
        CounterexampleSphere(2),
        CylinderSphere(2, HyperbolicArc(2.0)),
        NullHyperplaneSphere(2, 0.5),
    ]


def slice_oracle(n, phi, panels=200_000):
    """Dense midpoint rule for the weighted slice integral, independent of
    the Gauss-Jacobi path. Adequate for smooth integrands."""
    t = (np.arange(panels) + 0.5) / panels * 2.0 - 1.0
    weight = (1.0 - t * t) ** ((n - 2) / 2.0)
    return unit_sphere_volume(n - 1) * float(np.mean(phi(t) * weight)) * 2.0


def of_height(phi):
    """The slice integrand that reads phi of the height of each point."""
    return lambda p: phi(p[:, 0])


ONE = of_height(np.ones_like)


# --- mesh integrals -------------------------------------------------------------


def test_mesh_integral_of_one_is_volume():
    mesh = build_icosphere_mesh(4)
    imm = unit_sphere()
    out = integrate_over_mesh(mesh, imm, np.ones(mesh.num_vertices))
    assert out == pytest.approx(4 * math.pi, rel=1.5e-3)

    circle = build_circle_mesh(4)
    two = HyperplaneSphere(1, 2.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    out = integrate_over_mesh(circle, two, np.ones(256))
    assert out == pytest.approx(4 * math.pi, rel=1e-3)


def test_mesh_integral_of_height_squared():
    # E[t^2] = 1/(n+1) on the unit n-sphere
    mesh = build_icosphere_mesh(4)
    imm = unit_sphere()
    t2 = mesh.vertices[:, 0] ** 2
    out = integrate_over_mesh(mesh, imm, t2)
    vol = integrate_over_mesh(mesh, imm, np.ones(mesh.num_vertices))
    assert out == pytest.approx(vol / 3.0, rel=1e-3)


def test_mesh_integral_accepts_element_data_and_rejects_garbage():
    mesh = build_icosphere_mesh(2)
    imm = unit_sphere()
    geom, _ = mesh_geometry(mesh, imm)
    per_element = integrate_over_mesh(mesh, imm, np.ones(len(mesh.simplices)), geometry=geom)
    per_vertex = integrate_over_mesh(mesh, imm, np.ones(mesh.num_vertices), geometry=geom)
    assert per_element == pytest.approx(per_vertex, rel=1e-12)
    with pytest.raises(UsageError):
        integrate_over_mesh(mesh, imm, np.ones(7), geometry=geom)


def test_mesh_integral_vector_density():
    mesh = build_icosphere_mesh(3)
    imm = CounterexampleSphere(2)
    h = mean_curvature_vertices(imm, assemble_pencil(mesh, imm))
    out = integrate_over_mesh(mesh, imm, h)
    assert out.shape == (4,)


def test_nonnegative_density_gives_nonnegative_integral():
    mesh = build_icosphere_mesh(3)
    imm = CounterexampleSphere(2)
    rng = np.random.default_rng(0)
    density = rng.random(mesh.num_vertices)
    assert integrate_over_mesh(mesh, imm, density) >= 0.0


# --- slice integrals -------------------------------------------------------------


@pytest.mark.parametrize("count", [SLICE_NODES])
@pytest.mark.parametrize("n", [1, 2])
def test_slice_rule_matches_scipy_gauss_jacobi(n, count):
    x, w = quadrature._slice_rule(n)
    x_ref, w_ref = roots_jacobi(count, (n - 2) / 2.0, (n - 2) / 2.0)
    assert np.abs(x - x_ref).max() <= 2e-15
    assert np.abs(w - w_ref).max() <= 2e-13 * w_ref.max()


@pytest.mark.parametrize("n", [1, 2])
def test_slice_rule_is_cached_read_only(n):
    x, w = quadrature._slice_rule(n)
    x_fresh, w_fresh = quadrature._slice_rule.__wrapped__(n)
    again = quadrature._slice_rule(n)
    for cached, repeat, fresh in ((x, again[0], x_fresh), (w, again[1], w_fresh)):
        assert np.array_equal(repeat, cached) and np.array_equal(fresh, cached)
        assert not cached.flags.writeable and not repeat.flags.writeable


def test_slice_total_volume():
    assert sphere_slice_integral(2, ONE) == pytest.approx(4 * math.pi)
    assert sphere_slice_integral(1, ONE) == pytest.approx(2 * math.pi)


@pytest.mark.parametrize("n", [0, 3, 4])
def test_slice_refuses_dimensions_without_a_mesh(n):
    with pytest.raises(UsageError, match="n = 1 and n = 2 only"):
        sphere_slice_integral(n, ONE)


@pytest.mark.parametrize("n", [1, 2])
def test_slice_first_moment_identity(n):
    out = sphere_slice_integral(n, of_height(lambda t: 1.0 - t * t))
    assert out == pytest.approx(n / (n + 1) * unit_sphere_volume(n), rel=1e-13)


def test_slice_quartic_moment_oracle():
    # moments on the 2-sphere: E[t^2] = 1/3, E[t^4] = 1/5, so the mean of
    # (1-t^2)^2 is 8/15; frozen against the dense midpoint oracle
    phi = lambda t: (1.0 - t * t) ** 2
    oracle = slice_oracle(2, phi)
    assert oracle == pytest.approx(8.0 / 15.0 * 4 * math.pi, rel=1e-9)
    out = sphere_slice_integral(2, of_height(phi))
    assert out == pytest.approx(8.0 / 15.0 * 4 * math.pi, rel=1e-14)


def test_slice_matches_oracle_on_transcendental_integrand():
    phi = lambda t: np.cosh(t)
    assert sphere_slice_integral(2, of_height(phi)) == pytest.approx(
        slice_oracle(2, phi), rel=1e-8
    )
    # mean of cosh over the 2-sphere is sinh(1)
    assert sphere_slice_integral(2, of_height(phi)) / (4 * math.pi) == pytest.approx(
        math.sinh(1.0), rel=1e-13
    )


def test_slice_rejects_non_finite():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            sphere_slice_integral(2, of_height(lambda t: 1.0 / (t - t)))


def test_slice_vs_mesh_agreement():
    mesh = build_icosphere_mesh(4)
    imm = unit_sphere()
    geom, _ = mesh_geometry(mesh, imm)
    t = mesh.vertices[:, 0]
    for phi in (
        lambda x: np.ones_like(x),
        lambda x: x * x,
        lambda x: (1 - x * x) ** 2,
        lambda x: np.cosh(x),
        lambda x: np.exp(-x),
    ):
        on_mesh = float(geom.lumped @ phi(t))
        exact = sphere_slice_integral(2, of_height(phi))
        assert on_mesh == pytest.approx(exact, rel=4e-3)


# --- volume identity residuals ----------------------------------------------------


def test_minkowski_residual_sphere_is_exact():
    pencil = assemble_pencil(build_icosphere_mesh(3), unit_sphere())
    out = minkowski_residual(pencil.geometry, mean_curvature_vertices(unit_sphere(), pencil))
    assert abs(out) < 1e-14


@pytest.mark.parametrize(
    "imm", [CounterexampleSphere(2), CylinderSphere(2, HyperbolicArc(2.0))],
    ids=["counterexample", "cylinder"],
)
def test_minkowski_residual_decreases_and_is_small(imm):
    values = []
    for level in (2, 3, 4):
        mesh = build_icosphere_mesh(level)
        pencil = assemble_pencil(mesh, imm)
        geom = pencil.geometry
        out = minkowski_residual(geom, mean_curvature_vertices(imm, pencil))
        values.append(abs(out) / geom.total_volume)
    assert values[0] > values[1] > values[2]
    assert values[-1] <= 1e-3


@pytest.mark.parametrize("boost", [0.0, 0.6])
def test_projected_identities_counterexample(boost):
    imm = CounterexampleSphere(2)
    values = []
    for level in (3, 4):
        mesh = build_icosphere_mesh(level)
        recentered = recenter_to_gravity_origin(imm, mesh)
        pencil = assemble_pencil(mesh, recentered)
        geom = pencil.geometry
        h = mean_curvature_vertices(recentered, pencil)
        a = boost_direction(boost, np.array([0.0, 0.6, 0.8]))
        first, second = minkowski_projected_identities(pencil, geom.positions, h, a)
        values.append((abs(first) / geom.total_volume, abs(second) / geom.total_volume))
    assert values[-1][0] <= 1e-3 and values[-1][1] <= 1e-3
    assert values[0][0] >= values[1][0] and values[0][1] >= values[1][1]


def test_identities_read_the_stiffness_like_the_direct_references():
    imm = CounterexampleSphere(2)
    mesh = build_icosphere_mesh(3)
    pencil = assemble_pencil(mesh, recenter_to_gravity_origin(imm, mesh))
    geom = pencil.geometry
    h = mean_curvature_vertices(imm, pencil)
    # the Beltrami Laplacian is the lumped-mass Laplacian, bit for bit
    lap = apply_discrete_laplacian(pencil, geom.positions)
    diff_sq = ((lap - 2.0 * h) ** 2).sum(axis=1)
    # summed in einsum's order, as every vertex reduction of the package is
    direct = float(np.sqrt(np.einsum("i,i->", geom.lumped, diff_sq) / geom.total_volume))
    assert beltrami_residual(pencil, h) == direct
    # the second identity's tangential term, the stiffness form of
    # s = <psi, a>, is the summed element gradient energy
    a = boost_direction(0.8, np.array([0.0, 0.6, 0.8]))
    _, second = minkowski_projected_identities(pencil, geom.positions, h, a)
    s = inner(geom.positions, a)
    pos_a = geom.positions + s[:, None] * a
    h_a = h + inner(h, a)[:, None] * a
    cross_int = float(geom.lumped @ inner(pos_a, h_a))
    per_element = float(geom.volumes @ gradient_squared_per_element(geom, s))
    expected = cross_int + geom.total_volume + per_element / 2.0
    assert second == pytest.approx(expected, abs=1e-12 * geom.total_volume)


def test_projected_identities_sphere_reduce_to_exact():
    mesh = build_icosphere_mesh(3)
    imm = unit_sphere()
    pencil = assemble_pencil(mesh, imm)
    geom = pencil.geometry
    first, second = minkowski_projected_identities(
        pencil, geom.positions, mean_curvature_vertices(imm, pencil), AXIS4
    )
    assert abs(first) < 1e-13
    assert abs(second) < 1e-13


def test_curvature_field_mean_tends_to_zero():
    imm = CounterexampleSphere(2)
    norms = []
    for level in (2, 3, 4):
        mesh = build_icosphere_mesh(level)
        pencil = assemble_pencil(mesh, imm)
        geom = pencil.geometry
        h = mean_curvature_vertices(imm, pencil)
        norms.append(np.abs(geom.lumped @ h).max() / geom.total_volume)
    assert norms[0] > norms[1] > norms[2]
    assert norms[-1] <= 1e-3


def test_projected_curvature_energy_is_positive():
    for imm in closed_h_gallery():
        mesh = build_icosphere_mesh(3)
        pencil = assemble_pencil(mesh, imm)
        geom = pencil.geometry
        h = mean_curvature_vertices(imm, pencil)
        a = np.concatenate(([1.0], np.zeros(imm.m - 1)))
        h_a = h + inner(h, a)[:, None] * a
        density = inner(h_a, h_a)
        assert (density >= -1e-12).all()
        assert float(geom.lumped @ density) > 0.0


# --- Monte Carlo -------------------------------------------------------------------


def test_monte_carlo_eta_form_is_zero():
    eta = SymBilinearForm(np.diag([-1.0, 1.0, 1.0, 1.0]))
    out = monte_carlo_section_integral(eta, AXIS4, 50_000, seed=1)
    assert abs(out.estimate) <= 1e-10
    assert out.stderr <= 1e-10


def test_monte_carlo_matches_exact_for_time_form():
    q = SymBilinearForm(np.diag([1.0, 0.0, 0.0, 0.0]))
    out = monte_carlo_section_integral(q, AXIS4, 50_000, seed=2)
    assert out.estimate == pytest.approx(4 * math.pi, abs=1e-10)


def test_monte_carlo_random_forms_within_three_stderr():
    rng = np.random.default_rng(6)
    for k in range(3):
        q = SymBilinearForm.random(4, rng)
        a = boost_direction(0.3 * k, np.array([0.0, 1.0, 0.0]))
        out = monte_carlo_section_integral(q, a, 200_000, seed=50 + k)
        assert out.exact == section_integral_exact(q, a)
        assert abs(out.estimate - out.exact) <= 3.0 * out.stderr
        assert out.z == abs(out.estimate - out.exact) / out.stderr


def test_monte_carlo_error_scaling():
    q = SymBilinearForm.random(4, np.random.default_rng(5))
    exact = section_integral_exact(q, AXIS4)
    sizes = [1_000, 10_000, 100_000, 1_000_000]
    errs = []
    for size in sizes:
        runs = [
            abs(monte_carlo_section_integral(q, AXIS4, size, seed=s).estimate - exact)
            for s in range(8)
        ]
        errs.append(np.mean(runs))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_monte_carlo_sphere_analogue():
    rng = np.random.default_rng(10)
    q = SymBilinearForm.random(4, rng)
    out = monte_carlo_sphere_integral(q, 200_000, seed=3)
    assert out.exact == sphere_integral_exact(q)
    assert abs(out.estimate - out.exact) <= 3.0 * out.stderr


@pytest.fixture
def sample_values(monkeypatch):
    """The per-sample values of each Monte Carlo estimate, in call order,
    captured on their way into the check."""
    seen = []
    build = quadrature._monte_carlo_check

    def record(vals, *args):
        seen.append(vals.copy())
        return build(vals, *args)

    monkeypatch.setattr(quadrature, "_monte_carlo_check", record)
    return seen


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("boost", [0.0, 1.0, 2.0])
def test_section_values_match_sampled_points(sample_values, m, boost):
    # the reduced quadratic in g against Q(v, v) at the points v = a + u,
    # over one draw, for counts that do and do not divide into MC_BLOCK rows
    spatial = np.arange(1.0, m)
    a = boost_direction(boost, spatial / np.linalg.norm(spatial))
    q = SymBilinearForm.random(m, np.random.default_rng(m))
    tol = 1e-12 * np.linalg.norm(q.matrix, 2) * (1.0 + a @ a)
    for count in (2 * MC_BLOCK, MC_BLOCK + 777):
        monte_carlo_section_integral(q, a, count, seed=31)
        v = sample_spherical_section(a, np.random.default_rng(31), count)
        expected = q(v, v)
        assert sample_values[-1].shape == (count,)
        assert np.abs(sample_values[-1] - expected).max() <= tol


@pytest.mark.parametrize("m", [3, 4, 5])
def test_sphere_values_match_normalized_draws(sample_values, m):
    q = SymBilinearForm.random(m, np.random.default_rng(m))
    tol = 1e-12 * np.linalg.norm(q.matrix, 2)
    for count in (2 * MC_BLOCK, MC_BLOCK + 777):
        monte_carlo_sphere_integral(q, count, seed=32)
        g = np.random.default_rng(32).standard_normal((count, m))
        v = g / np.linalg.norm(g, axis=1, keepdims=True)
        expected = q(v, v)
        assert np.abs(sample_values[-1] - expected).max() <= tol


@pytest.mark.parametrize("size", [2, 3, MC_BLOCK + 777, 400_000])
def test_in_place_statistics_match_numpy_bitwise(size):
    vals = np.random.default_rng(size).standard_normal(size) * 3.0 + 1.5
    mean, std = quadrature._mean_and_std(vals.copy())
    assert mean == vals.mean()
    assert std == vals.std(ddof=1)


def test_monte_carlo_input_checks():
    q = SymBilinearForm.random(4, np.random.default_rng(0))
    for samples in (1, 0):
        with pytest.raises(UsageError, match="two Monte Carlo samples"):
            monte_carlo_section_integral(q, AXIS4, samples, seed=0)
        with pytest.raises(UsageError, match="two Monte Carlo samples"):
            monte_carlo_sphere_integral(q, samples, seed=0)
    with pytest.raises(UsageError, match="dimensions differ"):
        monte_carlo_section_integral(q, AXIS4[:3], 100, seed=0)

