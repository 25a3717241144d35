import math

import numpy as np
import pytest

from lorentzlab.errors import DomainError, UsageError
from lorentzlab.immersions import (
    CounterexampleSphere,
    CylinderSphere,
    HyperbolicArc,
    HyperplaneSphere,
    LineCurve,
    NullHyperplaneSphere,
    immersion_from_spec,
)
from lorentzlab.meshes import build_icosphere_mesh
from lorentzlab.minkowski import inner, metric_signs, sq_norm
from oracles import (
    chart_at,
    counterexample_normal_fields,
    fd_hessian,
    fd_jacobian,
    gravity_center,
    hessian,
    jacobian,
    recenter_to_gravity_origin,
    shape_at,
    tangential_sq,
    translated,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])


def random_sphere_points(n, count, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((count, n + 1))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def slice_points(n, t):
    """The parameter points (t, sqrt(1-t^2), 0, ...) the slice integrals read."""
    p = np.zeros((t.size, n + 1))
    p[:, 0] = t
    p[:, 1] = np.sqrt(1.0 - t * t)
    return p


def gallery():
    return [
        HyperplaneSphere(2, 1.0, np.zeros(4), AXIS4),
        HyperplaneSphere(2, 1.7, np.array([0.3, 0.1, -0.4, 2.0]), AXIS4),
        CounterexampleSphere(1),
        CounterexampleSphere(2),
        CylinderSphere(2, HyperbolicArc(2.0)),
        CylinderSphere(2, LineCurve()),
        NullHyperplaneSphere(2, 0.5),
    ]


@pytest.mark.parametrize("imm", gallery(), ids=lambda im: type(im).__name__ + str(im.n))
def test_chart_derivatives_match_finite_differences(imm):
    pts = random_sphere_points(imm.n, 100, seed=42)
    worst_jac = worst_hess = 0.0
    for p in pts:
        chart = chart_at(p)
        u = chart.from_manifold(p)
        jac = jacobian(imm, p)
        scale = max(1.0, np.abs(jac).max())
        worst_jac = max(worst_jac, np.abs(jac - fd_jacobian(imm, chart, u)).max() / scale)
        hess = hessian(imm, p)
        hscale = max(1.0, np.abs(hess).max())
        worst_hess = max(worst_hess, np.abs(hess - fd_hessian(imm, chart, u)).max() / hscale)
    assert worst_jac <= 1e-6
    assert worst_hess <= 1e-4


def test_chart_roundtrip_and_unit_image():
    pts = random_sphere_points(2, 50, seed=1)
    for p in pts:
        chart = chart_at(p)
        u = chart.from_manifold(p)
        back = chart.to_manifold(u)
        assert np.allclose(back, p, atol=1e-12)
        assert abs(np.linalg.norm(back) - 1.0) < 1e-12


def test_counterexample_normal_fields():
    imm = CounterexampleSphere(2)
    pts = random_sphere_points(2, 50, seed=3)
    n1, n2 = counterexample_normal_fields(pts)
    assert np.abs(sq_norm(n1) + 1.0).max() < 1e-12
    assert np.abs(sq_norm(n2) - 1.0).max() < 1e-12
    assert np.abs(inner(n1, n2)).max() < 1e-12
    # closed-form mean curvature decomposes over the normal frame
    t = pts[:, 0]
    h = imm.mean_curvature(pts)
    expected = ((1.0 - t * t) / imm.n)[:, None] * n1 - n2
    assert np.abs(h - expected).max() < 1e-12


def test_counterexample_curvature_square_values():
    imm = CounterexampleSphere(2)
    # poles and equator of the parameter sphere
    equator = np.array([0.0, 1.0, 0.0])
    pole = np.array([1.0, 0.0, 0.0])
    assert float(sq_norm(imm.mean_curvature(equator))) == pytest.approx(0.75)
    assert float(sq_norm(imm.mean_curvature(pole))) == pytest.approx(1.0)
    sample = shape_at(imm, equator)
    assert float(sq_norm(sample.mean_curvature)) == pytest.approx(0.75, abs=1e-10)


def test_counterexample_metric_is_round():
    imm = CounterexampleSphere(2)
    pts = random_sphere_points(2, 100, seed=8)
    for p in pts:
        chart = chart_at(p)
        u = chart.from_manifold(p)
        s_jac = chart.jac(u)
        round_gram = s_jac.T @ s_jac
        jac = jacobian(imm, p)
        gram = np.einsum("ci,c,cj->ij", jac, metric_signs(imm.m), jac)
        assert np.abs(gram - round_gram).max() <= 1e-10


def test_cylinder_acceleration_is_causal():
    curve = HyperbolicArc(2.0)
    t = np.linspace(-1, 1, 41)
    assert (inner(curve.d2(t), curve.d2(t)) <= 0).all()
    imm = CylinderSphere(2, curve)
    assert (sq_norm(imm.mean_curvature(slice_points(2, t))) <= 1.0 + 1e-12).all()


def test_cylinder_over_line_is_unit_sphere_in_hyperplane():
    imm = CylinderSphere(2, LineCurve())
    pts = random_sphere_points(2, 30, seed=5)
    pos = imm.eval(pts)
    assert np.abs(pos[:, 0]).max() < 1e-12  # constant time slice
    assert np.allclose(sq_norm(imm.mean_curvature(pts)), 1.0)


def test_cylinder_rejects_non_unit_speed():
    class BadCurve(LineCurve):
        def d1(self, t):
            return 2.0 * super().d1(t)

    with pytest.raises(DomainError):
        CylinderSphere(2, BadCurve())


def test_round_sphere_geometry():
    imm = HyperplaneSphere(2, 1.0, np.zeros(4), AXIS4)
    pts = random_sphere_points(2, 40, seed=4)
    pos = imm.eval(pts)
    assert np.abs(inner(pos, AXIS4)).max() < 1e-12
    sample = shape_at(imm, pts[0])
    spatial = imm.eval(pts[0])
    assert np.allclose(sample.mean_curvature, -spatial, atol=1e-10)
    assert float(sq_norm(sample.mean_curvature)) == pytest.approx(1.0, abs=1e-10)

    scaled = HyperplaneSphere(2, 2.5, np.zeros(4), AXIS4)
    p = pts[1]
    jac = jacobian(scaled, p)
    chart = chart_at(p)
    u = chart.from_manifold(p)
    round_gram = chart.jac(u).T @ chart.jac(u)
    gram = np.einsum("ci,c,cj->ij", jac, metric_signs(4), jac)
    assert np.allclose(gram, 2.5**2 * round_gram, atol=1e-9)
    assert float(sq_norm(scaled.mean_curvature(p))) == pytest.approx(1.0 / 2.5**2)


def test_lightlike_sphere_structure():
    imm = NullHyperplaneSphere(2, 0.5)
    pts = random_sphere_points(2, 30, seed=6)
    pos = imm.eval(pts)
    assert np.abs(pos[:, 0] - pos[:, -1]).max() < 1e-15  # inside x1 = xm
    assert np.allclose(sq_norm(imm.mean_curvature(pts)), 1.0)
    assert float(sq_norm(imm.null_normal)) == 0.0


@pytest.mark.parametrize("imm", gallery(), ids=lambda im: type(im).__name__ + str(im.n))
def test_shape_sample_frames(imm):
    pts = random_sphere_points(imm.n, 12, seed=10)
    rng = np.random.default_rng(2)
    signs_m = metric_signs(imm.m)
    for p in pts:
        s = shape_at(imm, p, a=np.concatenate(([1.0], np.zeros(imm.m - 1))))
        # tangent orthonormal and spacelike
        tg = np.array([[inner(x, y) for y in s.tangent_frame] for x in s.tangent_frame])
        assert np.allclose(tg, np.eye(imm.n), atol=1e-9)
        # normal frame signature
        ng = np.array([[inner(x, y) for y in s.normal_frame] for x in s.normal_frame])
        assert np.allclose(ng, np.diag(s.normal_signs), atol=1e-9)
        assert (s.normal_signs < 0).sum() == 1
        # cross orthogonality
        cross = np.array([[inner(x, y) for y in s.normal_frame] for x in s.tangent_frame])
        assert np.abs(cross).max() < 1e-9
        # frame completeness reconstructs a random vector
        v = rng.standard_normal(imm.m)
        recon = sum(float(inner(v, e)) * e for e in s.tangent_frame) + sum(
            eps * float(inner(v, nu)) * nu
            for nu, eps in zip(s.normal_frame, s.normal_signs)
        )
        assert np.abs(recon - v).max() <= 1e-9
        # direction decomposition
        a = np.asarray(s.direction)
        assert np.abs(s.direction_tangent + s.direction_normal - a).max() <= 1e-9
        assert np.abs(inner(s.mean_curvature_projected, a)) <= 1e-9
        # second fundamental form is normal valued
        for e in s.tangent_frame:
            assert np.abs(np.einsum("ijc,c,c->ij", s.second_fundamental, signs_m, e)).max() < 1e-8


@pytest.mark.parametrize("imm", gallery(), ids=lambda im: type(im).__name__ + str(im.n))
def test_shape_mean_curvature_matches_closed_form(imm):
    pts = random_sphere_points(imm.n, 15, seed=20)
    for p in pts:
        s = shape_at(imm, p)
        assert np.abs(s.mean_curvature - imm.mean_curvature(p)).max() < 1e-8


def test_projected_curvature_square_identity():
    imm = CounterexampleSphere(2)
    pts = random_sphere_points(2, 10, seed=30)
    a = np.array([math.cosh(0.8), math.sinh(0.8), 0.0, 0.0])
    for p in pts:
        s = shape_at(imm, p, a=a)
        h = s.mean_curvature
        lhs = float(sq_norm(s.mean_curvature_projected))
        rhs = float(sq_norm(h)) + float(inner(h, a)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        assert lhs >= 0.0


def test_tangential_sq_matches_shape_frames():
    imm = CounterexampleSphere(2)
    pts = random_sphere_points(2, 10, seed=31)
    a = np.array([math.cosh(0.4), 0.0, math.sinh(0.4), 0.0])
    batched = tangential_sq(imm, pts, a)
    for k, p in enumerate(pts):
        s = shape_at(imm, p, a=a)
        direct = float(sq_norm(s.direction_tangent))
        assert batched[k] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_recenter_examples():
    mesh = build_icosphere_mesh(3)
    centered = HyperplaneSphere(2, 1.0, np.zeros(4), AXIS4)
    assert np.abs(gravity_center(centered, mesh)).max() < 1e-12

    shifted = HyperplaneSphere(2, 1.0, np.array([0.0, 5.0, 0.0, 0.0]), AXIS4)
    c = gravity_center(shifted, mesh)
    assert np.allclose(c, [0.0, 5.0, 0.0, 0.0], atol=1e-12)
    back = recenter_to_gravity_origin(shifted, mesh)
    assert np.abs(gravity_center(back, mesh)).max() < 1e-12

    counter = CounterexampleSphere(2)
    c = gravity_center(counter, mesh)
    # odd components vanish by the antipodal symmetry of the mesh
    assert np.abs(c[1:]).max() < 1e-12
    assert c[0] == pytest.approx(math.sinh(1.0), abs=2e-3)


def test_translated_preserves_derivatives_and_curvature():
    imm = CounterexampleSphere(2)
    moved = translated(imm, np.array([0.4, -1.0, 2.0, 0.3]))
    p = random_sphere_points(2, 1, seed=7)[0]
    assert np.allclose(moved.eval(p) - imm.eval(p), [0.4, -1.0, 2.0, 0.3])
    assert np.array_equal(jacobian(moved, p), jacobian(imm, p))
    assert np.array_equal(moved.mean_curvature(p), imm.mean_curvature(p))


# beyond the gallery: both signs and a short cylinder scale, the line, a
# sphere in higher codimension, and n = 1
HEIGHT_ONLY_EXTRAS = [
    CylinderSphere(2, HyperbolicArc(-1.0)),
    CylinderSphere(2, HyperbolicArc(0.7)),
    CylinderSphere(1, HyperbolicArc(-1.0)),
    CylinderSphere(1, HyperbolicArc(0.7)),
    CylinderSphere(1, LineCurve()),
    HyperplaneSphere(2, 1.5, np.zeros(5), np.eye(5)[0]),
    HyperplaneSphere(1, 1.5, np.zeros(5), np.eye(5)[0]),
    NullHyperplaneSphere(1, 2.0),
]


@pytest.mark.parametrize(
    "imm", gallery() + HEIGHT_ONLY_EXTRAS, ids=lambda im: type(im).__name__ + str(im.n)
)
def test_height_profile_matches_mean_curvature(imm):
    # the slice integrals read <H, H> at one point per height, so it must
    # take the same value at every point of that height
    pts = random_sphere_points(imm.n, 200, seed=12)
    at_points = sq_norm(imm.mean_curvature(pts))
    on_slice = sq_norm(imm.mean_curvature(slice_points(imm.n, pts[:, 0])))
    assert np.abs(at_points - on_slice).max() <= 1e-12


def test_dimension_guards():
    with pytest.raises(DomainError):
        HyperplaneSphere(2, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        HyperplaneSphere(2, -1.0, np.zeros(4), AXIS4)


def test_immersion_from_spec():
    imm, config = immersion_from_spec({"gallery": "counterexample", "n": 1})
    assert isinstance(imm, CounterexampleSphere) and imm.m == 3
    assert config == {"n": 1}
    imm, config = immersion_from_spec(
        {"gallery": "round-sphere", "n": 2, "params": {"radius": 2.0, "m": 5}}
    )
    assert isinstance(imm, HyperplaneSphere) and imm.m == 5
    assert config == {"n": 2, "radius": 2.0}
    imm, config = immersion_from_spec(
        {"gallery": "cylinder-curve", "n": 2, "params": {"curve": "line"}}
    )
    assert isinstance(imm, CylinderSphere) and config == {"n": 2}
    with pytest.raises(UsageError):
        immersion_from_spec({"gallery": "nope"})
    with pytest.raises(UsageError):
        immersion_from_spec({})
