"""Reference evaluations the library is checked against.

`BoundEngine` evaluates every bound from m x m Gram matrices built once
per engine. The helpers here recompute the same numbers the direct way,
one sparse stiffness or mass product per vertex field, and build test
fields from a mesh and an immersion without an engine; `field_grams`
turns any vertex field into the Gram pair the engine's master inequality
reads. Every bound family and the equality diagnostic are evaluated one
direction and one report entry at a time, with the formulas the bound
tables must reproduce bit for bit, and the direction samplers are rerun
one sample at a time. The consistent mass is converted to CSR on
its own, apart from the stiffness whose pattern the assembly shares.
The icosphere is rebuilt one midpoint at a time, the way the
array build must number it.
The nested-dissection ordering is rebuilt one part per recursive call,
the element stiffness is summed by one einsum over the edge-difference
matrix, and the first eigenvalue is recomputed by shift-invert Lanczos on
SuperLU's own COLAMD factor, with the constant mode left in the spectrum
instead of deflated, and by LOBPCG preconditioned with a float64 factor of
the whole fine pencil instead of the two-grid cycle, and on a small mesh
by a dense eigensolve of the whole pencil.
Pointwise chart data (tangential parts of a direction, per-element
signed gradient traces) and the gravity-center recentering are the
continuum references for the engine's discrete identities. Light-cone
section samples are formed as points v = a + u, the direct way the Monte
Carlo estimators' reduced quadratic must reproduce, with the form
evaluated on them by `form_values`, and the section averaging battery is rerun as one serial loop with the closed forms
evaluated apart from the estimators.

The pointwise geometry is rebuilt from first principles: stereographic
charts, exact ambient derivatives of every gallery class
(`ambient_jacobian`/`ambient_hessian`), chart derivatives from them by
the chain rule, and `shape_at` (frames by signature Gram-Schmidt, second
fundamental form and mean curvature at one point), which the
closed-form mean curvature of every gallery immersion is checked
against. The same Gram-Schmidt is the reference for the package's
closed-form section frame. Central finite
differences in the chart check the exact derivatives in turn. Mesh
integrals, facet incidences and the Euler characteristic are the direct
references for the assembled volumes and for mesh topology; the
lumped-mass Laplacian and per-element squared gradients are the direct
references for the stiffness reads of the identities.
"""

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, lobpcg, splu

from lorentzlab.bounds import (
    H_CENTER_TOL,
    STRICT_FACTOR,
    TAU_BOUND,
    TAU_DISC,
    TAU_ELLE,
    TAU_EQ,
    TIE_RTOL,
)
from lorentzlab.errors import DomainError, NotSpacelikeError, NumericalError, UsageError
from lorentzlab.fem import assemble_pencil, mesh_geometry
from lorentzlab.immersions import (
    CylinderSphere,
    HyperplaneSphere,
    Immersion,
    NullHyperplaneSphere,
)
from lorentzlab.meshes import _ICO_FACES, ND_LEAF, ParamMesh, _icosahedron_vertices
from lorentzlab.minkowski import (
    S_MAX,
    SymBilinearForm,
    boost_direction,
    inner,
    metric_signs,
    require_unit_timelike,
    section_integral_exact,
    sq_norm,
    spacelike_complement_basis,
    sphere_integral_exact,
)
from lorentzlab import pipeline
from lorentzlab.pipeline import _build_case
from lorentzlab.quadrature import (
    mean_curvature_vertices,
    monte_carlo_section_integral,
    monte_carlo_sphere_integral,
)

TAU_CENTER = 1e-8
TAU_FRAME = 1e-8


class DegenerateFrameError(NumericalError):
    """Frame construction hit a pivot below tolerance."""


def signature_orthonormalize(candidates, need=None, pivot_tol: float = TAU_FRAME):
    """Modified Gram-Schmidt under the indefinite product.

    Candidates whose orthogonalized remainder is close to the light cone
    (|<w,w>| below pivot_tol relative to the Euclidean size) are skipped.
    Returns (rows, signs) with rows[i] satisfying <row_i, row_j> = signs[i] delta_ij.
    """
    basis: list[np.ndarray] = []
    signs: list[float] = []
    for cand in candidates:
        w = np.array(cand, dtype=float)
        size = float(w @ w)
        for _ in range(2):  # second pass controls cancellation near the cone
            for b, eps in zip(basis, signs):
                w = w - eps * float(inner(b, w)) * b
        e2 = float(w @ w)
        q = float(sq_norm(w))
        # candidate already spanned, or residue hugging the light cone
        if e2 <= pivot_tol**2 * max(size, 1.0) or abs(q) <= pivot_tol * e2:
            continue
        basis.append(w / math.sqrt(abs(q)))
        signs.append(1.0 if q > 0 else -1.0)
        if need is not None and len(basis) == need:
            break
    if need is not None and len(basis) < need:
        raise DegenerateFrameError(
            f"could only extract {len(basis)} of {need} frame vectors"
        )
    return np.array(basis), np.array(signs)


def gram_schmidt_complement_basis(a) -> np.ndarray:
    """Spacelike rows of a-perp by signature Gram-Schmidt of a, e_0, ..., e_{m-1}."""
    a = require_unit_timelike(a)
    basis, signs = signature_orthonormalize([a] + list(np.eye(a.shape[-1])), need=a.shape[-1])
    if signs[0] != -1.0 or (signs[1:] != 1.0).any():
        raise DegenerateFrameError("complement of a timelike direction must be spacelike")
    return basis[1:]


def apply_discrete_laplacian(pencil, values) -> np.ndarray:
    """Lumped-mass Laplacian, signed so eigenfields satisfy L f = -lambda f.

    Vector-valued fields (k, c) are handled componentwise.
    """
    values = np.asarray(values, dtype=float)
    flat = values if values.ndim == 2 else values[:, None]
    if flat.shape[0] != pencil.stiffness.shape[0]:
        raise UsageError("value count does not match vertex count")
    out = -(pencil.stiffness @ flat) / pencil.geometry.lumped[:, None]
    return out if values.ndim == 2 else out[:, 0]


def chord_gram_inverse(geometry) -> np.ndarray:
    """(E, n, n) inverse Lorentz Gram of each element's edge chords: 1 / g
    for n = 1, the adjugate over the determinant for n = 2."""
    positions, simplices = geometry.positions, geometry.mesh.simplices
    chords = positions[simplices[:, 1:]] - positions[simplices[:, :1]]
    gram = np.einsum("eam,m,ebm->eab", chords, metric_signs(positions.shape[1]), chords)
    if gram.shape[1] == 1:
        return 1.0 / gram
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    adjugate = np.stack([gram[:, 1, 1], -gram[:, 0, 1], -gram[:, 1, 0], gram[:, 0, 0]], axis=1)
    return adjugate.reshape(-1, 2, 2) / det[:, None, None]


def gradient_squared_per_element(geometry, values) -> np.ndarray:
    """Squared P1 gradient under the element metric; exact for affine data."""
    mesh = geometry.mesh
    values = np.asarray(values, dtype=float)
    if values.shape[0] != mesh.num_vertices:
        raise UsageError("value count does not match vertex count")
    du = values[mesh.simplices[:, 1:]] - values[mesh.simplices[:, :1]]
    return np.einsum("ea,eab,eb->e", du, chord_gram_inverse(geometry), du)


# exact ambient derivatives of the gallery maps on a neighbourhood of the
# sphere, shapes (..., m, n+1) and (..., m, n+1, n+1)


def _hyperplane_jacobian(imm: HyperplaneSphere, x):
    jac = imm.radius * imm.frame.T  # (m, n+1)
    return np.broadcast_to(jac, x.shape[:-1] + jac.shape)


def _hyperplane_hessian(imm: HyperplaneSphere, x):
    d = imm.n + 1
    return np.zeros(x.shape[:-1] + (imm.m, d, d))


def _cylinder_jacobian(imm: CylinderSphere, x):
    d = imm.n + 1
    jac = np.zeros(x.shape[:-1] + (imm.m, d))
    jac[..., 0:2, 0] = imm.curve.d1(x[..., 0])
    idx = np.arange(1, d)
    jac[..., idx + 1, idx] = 1.0
    return jac


def _cylinder_hessian(imm: CylinderSphere, x):
    d = imm.n + 1
    hess = np.zeros(x.shape[:-1] + (imm.m, d, d))
    hess[..., 0:2, 0, 0] = imm.curve.d2(x[..., 0])
    return hess


def _null_graph_jacobian(imm: NullHyperplaneSphere, x):
    # the height is amplitude * x_0 x_1
    g = np.zeros_like(x)
    g[..., 0] = imm.amplitude * x[..., 1]
    g[..., 1] = imm.amplitude * x[..., 0]
    g = g[..., None, :]
    d = imm.n + 1
    eye = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d))
    return np.concatenate([g, eye, g], axis=-2)


def _null_graph_hessian(imm: NullHyperplaneSphere, x):
    d = imm.n + 1
    hh = np.zeros(x.shape[:-1] + (1, d, d))
    hh[..., 0, 0, 1] = imm.amplitude
    hh[..., 0, 1, 0] = imm.amplitude
    zeros = np.zeros(x.shape[:-1] + (d, d, d))
    return np.concatenate([hh, zeros, hh], axis=-3)


_AMBIENT_DERIVATIVES = {
    HyperplaneSphere: (_hyperplane_jacobian, _hyperplane_hessian),
    CylinderSphere: (_cylinder_jacobian, _cylinder_hessian),
    NullHyperplaneSphere: (_null_graph_jacobian, _null_graph_hessian),
}


def _ambient_derivatives(imm: Immersion):
    for cls in type(imm).__mro__:
        if cls in _AMBIENT_DERIVATIVES:
            return _AMBIENT_DERIVATIVES[cls]
    raise UsageError(f"no exact derivatives for {type(imm).__name__}")


def ambient_jacobian(imm: Immersion, x) -> np.ndarray:
    return _ambient_derivatives(imm)[0](imm, np.asarray(x, dtype=float))


def ambient_hessian(imm: Immersion, x) -> np.ndarray:
    return _ambient_derivatives(imm)[1](imm, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class StereographicChart:
    """Stereographic coordinates on the unit n-sphere.

    pole = +1 projects from +e_{n+1} (covers everything but the north
    pole), pole = -1 from -e_{n+1}.
    """

    n: int
    pole: int

    def to_manifold(self, u):
        u = np.asarray(u, dtype=float)
        s = (u * u).sum(axis=-1, keepdims=True)
        d = 1.0 + s
        first = 2.0 * u / d
        last = self.pole * (s - 1.0) / d
        return np.concatenate([first, last], axis=-1)

    def from_manifold(self, p):
        p = np.asarray(p, dtype=float)
        return p[..., :-1] / (1.0 - self.pole * p[..., -1:])

    def jac(self, u):
        """d(to_manifold)/du with shape (..., n+1, n)."""
        u = np.asarray(u, dtype=float)
        n = self.n
        s = (u * u).sum(axis=-1)
        d = 1.0 + s
        eye = np.eye(n)
        top = 2.0 * eye / d[..., None, None] - 4.0 * np.einsum(
            "...i,...j->...ij", u, u
        ) / (d * d)[..., None, None]
        bottom = self.pole * 4.0 * u / (d * d)[..., None]
        return np.concatenate([top, bottom[..., None, :]], axis=-2)

    def hess(self, u):
        """Second derivatives with shape (..., n+1, n, n)."""
        u = np.asarray(u, dtype=float)
        n = self.n
        s = (u * u).sum(axis=-1)
        d = 1.0 + s
        d2 = (d * d)[..., None, None, None]
        d3 = (d * d * d)[..., None, None, None]
        eye = np.eye(n)
        du = np.einsum("ij,...k->...ijk", eye, u)
        ud = np.einsum("...i,jk->...ijk", u, eye)
        dxu = np.einsum("ik,...j->...ijk", eye, u)
        uuu = np.einsum("...i,...j,...k->...ijk", u, u, u)
        top = -4.0 * (du + dxu + ud) / d2 + 16.0 * uuu / d3
        uu = np.einsum("...j,...k->...jk", u, u)
        bottom = self.pole * (
            4.0 * eye / d2[..., 0] - 16.0 * uu / d3[..., 0]
        )
        return np.concatenate([top, bottom[..., None, :, :]], axis=-3)


def chart_at(p) -> StereographicChart:
    """Chart projecting from the pole opposite p's hemisphere."""
    p = np.asarray(p, dtype=float)
    return StereographicChart(n=p.shape[-1] - 1, pole=1 if p[-1] <= 0 else -1)


def eval_chart(imm: Immersion, chart: StereographicChart, u):
    return imm.eval(chart.to_manifold(u))


def jacobian(imm: Immersion, p) -> np.ndarray:
    """First chart partials at a single point, shape (m, n)."""
    chart = chart_at(p)
    u = chart.from_manifold(np.asarray(p, dtype=float))
    x = chart.to_manifold(u)
    return np.einsum("ca,ai->ci", ambient_jacobian(imm, x), chart.jac(u))


def hessian(imm: Immersion, p) -> np.ndarray:
    """Second chart partials at a single point, shape (m, n, n)."""
    chart = chart_at(p)
    u = chart.from_manifold(np.asarray(p, dtype=float))
    x = chart.to_manifold(u)
    s_jac = chart.jac(u)
    s_hess = chart.hess(u)
    return np.einsum("cab,ai,bj->cij", ambient_hessian(imm, x), s_jac, s_jac) + np.einsum(
        "ca,aij->cij", ambient_jacobian(imm, x), s_hess
    )


def fd_jacobian(imm: Immersion, chart: StereographicChart, u, h=1e-5):
    """Central-difference chart Jacobian, shape (m, n)."""
    cols = []
    for i in range(imm.n):
        e = np.zeros(imm.n)
        e[i] = h
        cols.append((eval_chart(imm, chart, u + e) - eval_chart(imm, chart, u - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(imm: Immersion, chart: StereographicChart, u, h=1e-4):
    """Central differences of `fd_jacobian`, shape (m, n, n)."""
    cols = []
    for i in range(imm.n):
        e = np.zeros(imm.n)
        e[i] = h
        jp = fd_jacobian(imm, chart, u + e, h)
        jm = fd_jacobian(imm, chart, u - e, h)
        cols.append((jp - jm) / (2 * h))
    return np.stack(cols, axis=-1)


@dataclass
class ShapeSample:
    """Pointwise geometry bundle at a parameter point."""

    point: np.ndarray
    position: np.ndarray
    metric: np.ndarray
    tangent_frame: np.ndarray  # (n, m) orthonormal spacelike rows
    normal_frame: np.ndarray  # (m-n, m) rows, exactly one timelike
    normal_signs: np.ndarray
    second_fundamental: np.ndarray  # (n, n, m), normal-valued
    mean_curvature: np.ndarray
    direction: np.ndarray | None = None
    mean_curvature_projected: np.ndarray | None = None
    direction_tangent: np.ndarray | None = None
    direction_normal: np.ndarray | None = None


def shape_at(imm: Immersion, p, a=None, frame_tol: float = TAU_FRAME) -> ShapeSample:
    """Frames, second fundamental form and mean curvature at one point.

    The tangent frame orthonormalizes the chart Jacobian columns; the
    normal frame completes it by signature Gram-Schmidt over the canonical
    basis with the timelike direction processed last, so exactly one
    normal direction carries sign -1.
    """
    p = np.asarray(p, dtype=float)
    jac = jacobian(imm, p)
    signs_m = metric_signs(imm.m)
    metric = np.einsum("ci,c,cj->ij", jac, signs_m, jac)
    eigvals = np.linalg.eigvalsh(metric)
    if eigvals.min() <= 0:
        raise NotSpacelikeError(
            f"induced metric is not spacelike here (min eigenvalue {eigvals.min():.3e})"
        )

    tangent, t_signs = signature_orthonormalize(list(jac.T), need=imm.n, pivot_tol=frame_tol)
    if (t_signs != 1.0).any():
        raise DegenerateFrameError("tangent frame picked up a non-spacelike direction")

    # complete with canonical vectors, timelike candidate last
    candidates = []
    order = list(range(1, imm.m)) + [0]
    for j in order:
        e = np.zeros(imm.m)
        e[j] = 1.0
        e = e - sum(float(inner(e, t)) * t for t in tangent)
        candidates.append(e)
    normal, n_signs = signature_orthonormalize(
        candidates, need=imm.m - imm.n, pivot_tol=frame_tol
    )
    if int((n_signs < 0).sum()) != 1:
        raise DegenerateFrameError("normal frame must contain exactly one timelike direction")

    hess = hessian(imm, p)
    # normal projection uses signature weights
    coeff = np.einsum("cij,c,kc->kij", hess, signs_m, normal)  # (m-n, n, n)
    second = np.einsum("kij,k,kc->ijc", coeff, n_signs, normal)
    ginv = np.linalg.inv(metric)
    mean = np.einsum("ij,ijc->c", ginv, second) / imm.n

    sample = ShapeSample(
        point=p,
        position=imm.eval(p),
        metric=metric,
        tangent_frame=tangent,
        normal_frame=normal,
        normal_signs=n_signs,
        second_fundamental=second,
        mean_curvature=mean,
    )
    if a is not None:
        a = require_unit_timelike(a)
        sample.direction = a
        sample.mean_curvature_projected = mean + float(inner(mean, a)) * a
        sample.direction_tangent = np.einsum(
            "i,ic->c", np.einsum("ic,c,c->i", tangent, signs_m, a), tangent
        )
        sample.direction_normal = np.einsum(
            "k,k,kc->c", np.einsum("kc,c,c->k", normal, signs_m, a), n_signs, normal
        )
    return sample


def counterexample_normal_fields(p):
    """The two canonical unit normals (timelike, spacelike) of
    `CounterexampleSphere` at p."""
    p = np.asarray(p, dtype=float)
    t = p[..., 0]
    y = p[..., 1:]
    zero = np.zeros_like(y)
    n1 = np.concatenate(
        [np.stack([np.cosh(t), np.sinh(t)], axis=-1), zero], axis=-1
    )
    n2 = np.concatenate(
        [np.stack([t * np.sinh(t), t * np.cosh(t)], axis=-1), y], axis=-1
    )
    return n1, n2


def translated(imm: Immersion, delta) -> Immersion:
    """Shallow copy of imm whose positions are shifted by delta."""
    moved = copy.copy(imm)
    value = imm._value
    moved._value = lambda x: value(x) + delta
    return moved


def facet_incidence(mesh: ParamMesh) -> dict:
    """Map facet (sorted vertex tuple) -> incidence count."""
    counts: dict[tuple, int] = {}
    n = mesh.n
    for simplex in mesh.simplices:
        for drop in range(n + 1):
            facet = tuple(sorted(v for k, v in enumerate(simplex) if k != drop))
            counts[facet] = counts.get(facet, 0) + 1
    return counts


def euler_characteristic(mesh: ParamMesh) -> int:
    if mesh.n == 1:
        return mesh.num_vertices - len(mesh.simplices)
    edges = {
        tuple(sorted(e))
        for simplex in mesh.simplices
        for e in ((simplex[0], simplex[1]), (simplex[1], simplex[2]), (simplex[2], simplex[0]))
    }
    return mesh.num_vertices - len(edges) + len(mesh.simplices)


def integrate_over_mesh(mesh, imm, density, geometry=None):
    """Sum of element volume times element-average density.

    Accepts per-vertex or per-element data; vertex data is averaged onto
    elements, which coincides with the lumped-mass vertex rule.
    """
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)[0]
    density = np.asarray(density, dtype=float)
    if density.shape[0] == mesh.num_vertices:
        value = geom.lumped @ density
    elif density.shape[0] == len(mesh.simplices):
        value = geom.volumes @ density
    else:
        raise UsageError(
            f"density length {density.shape[0]} matches neither vertices nor elements"
        )
    return float(value) if value.ndim == 0 else value


def batched_chart_jacobians(imm: Immersion, pts) -> np.ndarray:
    """Chart Jacobians at many points, shape (k, m, n)."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], imm.m, imm.n))
    last = pts[:, -1]
    for pole, mask in ((1, last <= 0), (-1, last > 0)):
        if not mask.any():
            continue
        chart = StereographicChart(n=imm.n, pole=pole)
        u = chart.from_manifold(pts[mask])
        x = chart.to_manifold(u)
        out[mask] = np.einsum("kca,kai->kci", ambient_jacobian(imm, x), chart.jac(u))
    return out


def tangential_sq(imm: Immersion, pts, a) -> np.ndarray:
    """Pointwise squared norm of the tangential part of a, per point."""
    a = require_unit_timelike(a)
    jac = batched_chart_jacobians(imm, pts)
    signs = metric_signs(imm.m)
    w = np.einsum("kci,c->ki", jac, signs * a)
    g = np.einsum("kci,c,kcj->kij", jac, signs, jac)
    sol = np.linalg.solve(g, w[..., None])[..., 0]
    return np.einsum("ki,ki->k", w, sol)


def gravity_center(imm: Immersion, mesh) -> np.ndarray:
    """Componentwise mesh average of the position field."""
    geom, _ = mesh_geometry(mesh, imm)
    return (geom.lumped @ geom.positions) / geom.total_volume


def recenter_to_gravity_origin(imm: Immersion, mesh) -> Immersion:
    """Translate so the mesh-quadrature gravity center sits at the origin."""
    return translated(imm, -gravity_center(imm, mesh))


def signed_gradient_trace_density(mesh, imm, W, geometry=None) -> np.ndarray:
    """Per-element signed sum of squared P1 gradients of <b_j, W>.

    The sum runs over the canonical pseudo-orthonormal basis with signs
    (-1, 1, ..., 1); signature weighting makes the value basis
    independent.
    """
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)[0]
    values = W.values if isinstance(W, TestField) else np.asarray(W, dtype=float)
    if values.shape != (mesh.num_vertices, imm.m):
        raise UsageError("field shape does not match mesh and ambient dimension")
    simplices = mesh.simplices
    dw = values[simplices[:, 1:]] - values[simplices[:, :1]]  # (E, n, m)
    signs = metric_signs(imm.m)
    return np.einsum("eam,m,ebm,eba->e", dw, signs, dw, chord_gram_inverse(geom))


@dataclass
class TestField:
    """Vector field along the immersion used as eigenvalue test data."""

    values: np.ndarray  # (k, m)
    provenance: str
    centered: bool
    center_residual: np.ndarray  # componentwise integral / Vol


def _center_residual(geom, values) -> np.ndarray:
    return (geom.lumped @ values) / geom.total_volume


def field_grams(engine, values):
    """Gram pair (W'KW, W'MW) of a vertex field W, one sparse product each."""
    values = np.asarray(values, dtype=float)
    return values.T @ (engine.pencil.stiffness @ values), values.T @ (engine.pencil.mass @ values)


def projected_position(psi, a) -> np.ndarray:
    """psi + <psi, a> a, vertex by vertex."""
    return psi + inner(psi, a)[:, None] * a


def rayleigh_defect_matrix(engine) -> np.ndarray:
    """Defect form in canonical coordinates, J sym(G_K - lambda1 G_M) J,
    from the engine's position Grams; exactly symmetric."""
    defect = engine.gram_k_pos - engine.lambda1 * engine.gram_m_pos
    return engine.signs[:, None] * (0.5 * (defect + defect.T)) * engine.signs


def k_form(engine, x, y=None) -> float:
    y = x if y is None else y
    return float(x @ (engine.pencil.stiffness @ y))


def m_form(engine, x, y=None) -> float:
    y = x if y is None else y
    return float(x @ (engine.pencil.mass @ y))


def field_k_trace(engine, values) -> float:
    """Integral of the signed gradient trace of a vector field."""
    return float(sum(s * k_form(engine, values[:, j]) for j, s in enumerate(engine.signs)))


def field_m_trace(engine, values) -> float:
    """Integral of <W, W> for the P1 interpolant of W."""
    return float(sum(s * m_form(engine, values[:, j]) for j, s in enumerate(engine.signs)))


def make_test_field_mean_curvature(mesh, imm, pencil=None, center_tol: float = H_CENTER_TOL) -> TestField:
    """Mean curvature as a test field, centered up to quadrature accuracy."""
    if pencil is None:
        pencil = assemble_pencil(mesh, imm)
    h = mean_curvature_vertices(imm, pencil)
    residual = _center_residual(pencil.geometry, h)
    return TestField(
        values=h,
        provenance="mean-curvature",
        centered=bool(np.abs(residual).max() <= center_tol),
        center_residual=residual,
    )


def make_test_field_position(mesh, imm, geometry=None) -> TestField:
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)[0]
    residual = _center_residual(geom, geom.positions)
    scale = max(1.0, float(np.abs(geom.positions).max()))
    if np.abs(residual).max() > 10.0 * TAU_CENTER * scale:
        raise UsageError("position test field needs a recentered immersion")
    return TestField(
        values=geom.positions,
        provenance="position",
        centered=True,
        center_residual=residual,
    )


def make_test_field_projected(mesh, imm, a, geometry=None) -> TestField:
    a = require_unit_timelike(a)
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)[0]
    base = make_test_field_position(mesh, imm, geometry=geom)
    values = projected_position(base.values, a)
    return TestField(
        values=values,
        provenance="projected-position",
        centered=True,
        center_residual=_center_residual(geom, values),
    )


def f_direction(engine, values, a) -> np.ndarray:
    """Vertex values of <a, W>."""
    return values @ (engine.signs * a)


def equality_residuals(engine, a) -> dict:
    """Equality-diagnostic norms evaluated vertex by vertex; `a_component`
    is the pointwise mu of Delta psi_hat + lambda1 psi_hat = mu a."""
    lumped, vol = engine.geometry.lumped, engine.volume
    psi = engine.positions_hat
    resid = apply_discrete_laplacian(engine.pencil, psi) + engine.lambda1 * psi
    mu = -f_direction(engine, resid, a)
    rho = resid - mu[:, None] * a
    s_hat = inner(psi, a)
    rho_l2 = np.sqrt(max(float(lumped @ inner(rho, rho)), 0.0) / vol)
    psi_l2 = np.sqrt(float(lumped @ (inner(psi, psi) + 2.0 * s_hat**2)) / vol)
    rho_l2_canon = np.sqrt(float(lumped @ (rho * rho).sum(axis=1)) / vol)
    psi_l2_canon = np.sqrt(float(lumped @ (psi**2).sum(axis=1)) / vol)
    scale = engine.imm.n / engine.lambda1  # a squared length
    return {
        "residual_rel": rho_l2 / psi_l2 * scale,
        "residual_rel_canonical": rho_l2_canon / psi_l2_canon * scale,
        "causal_residual_sq": float(lumped @ inner(resid, resid)) / vol * scale,
        "a_component_integral": float(lumped @ mu),
        "a_component": mu,
    }


@dataclass
class BoundReport:
    """One inequality evaluation at one direction. For lambda1 <= RHS
    bounds, lhs is lambda1."""

    name: str
    anchor: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float
    direction: tuple | None = None
    status: str = "ok"
    meta: dict = field(default_factory=dict)


def bound_report(engine, name, anchor, lhs, rhs, tol, direction=None, **meta) -> BoundReport:
    """A BoundReport with Python scalars, stamped with the mesh size and level."""
    lhs = float(lhs)
    rhs = float(rhs)
    return BoundReport(
        name=name,
        anchor=anchor,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        holds=bool(rhs - lhs >= -tol * max(abs(lhs), abs(rhs))),
        tol=tol,
        direction=None if direction is None else tuple(float(x) for x in direction),
        meta={**meta, "vertices": engine.mesh.num_vertices, "level": engine.mesh.level},
    )


def bound_dict(report: BoundReport, expected) -> dict:
    """A report's bound entry, JSON-ready."""
    as_expected = None if expected is None else (report.holds == expected)
    return {
        "name": report.name,
        "anchor": report.anchor,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "holds": report.holds,
        "tol": report.tol,
        "status": report.status,
        "direction": list(report.direction) if report.direction is not None else None,
        "expected_holds": expected,
        "as_expected": as_expected,
        # the formulas' numpy scalars as Python scalars
        "meta": {
            key: value.item() if isinstance(value, np.generic) else value
            for key, value in report.meta.items()
        },
    }


def _master_sides(engine, k_gram, m_gram, a, coef=None):
    """Gradient and lambda1 sides of the master inequality at one
    direction, coef <a, W>^2 + <W, W> integrated; coef is m by default."""
    coef = engine.imm.m if coef is None else coef
    return (
        coef * float(engine._form(k_gram, a)) + engine._trace(k_gram),
        coef * float(engine._form(m_gram, a)) + engine._trace(m_gram),
    )


def master_inequality_bound(engine, provenance, k_gram, m_gram, a, centered=True,
                            coef=None) -> BoundReport:
    a = require_unit_timelike(a)
    rhs, weight = _master_sides(engine, k_gram, m_gram, a, coef)
    if weight <= 1e-14 * float(np.abs(m_gram).max()):
        raise DomainError("test field vanishes identically")
    return bound_report(
        engine,
        f"test-field[{provenance}]",
        "test-field",
        engine.lambda1 * weight,
        rhs,
        TAU_BOUND,
        direction=a,
        provenance=provenance,
        centered=centered,
    )


def master_inequality_bounds(engine, a):
    """H, psi_hat and the projected position psi_hat + <psi_hat, a> a at
    one direction. The projected field is orthogonal to a and has
    <W, W> = <psi_hat, psi_hat> + <psi_hat, a>^2, so its sides are psi_hat's
    with the coefficient 1 in place of m."""
    a = require_unit_timelike(a)
    return (
        master_inequality_bound(
            engine, "mean-curvature", engine.gram_k_h, engine.gram_m_h, a, engine._h_centered
        ),
        master_inequality_bound(engine, "position", engine.gram_k_pos, engine.gram_m_pos, a),
        master_inequality_bound(
            engine, "projected-position", engine.gram_k_pos, engine.gram_m_pos, a, coef=1
        ),
    )


def reilly(engine) -> BoundReport:
    h_sq_int = engine.curvature_sq_integral
    rhs = engine.imm.n * h_sq_int / engine.volume
    return bound_report(
        engine, "reilly", "reilly", engine.lambda1, rhs, engine.tol_disc, curvature_integral=h_sq_int
    )


def mean_curvature_field_bound(engine, a) -> BoundReport:
    a = require_unit_timelike(a)
    num, denom = _master_sides(engine, engine.gram_k_h, engine.gram_m_h, a)
    if denom <= 0:
        raise DomainError("mean curvature field has vanishing weight")
    return bound_report(
        engine,
        "mean-curvature-field",
        "mean-curvature-field",
        engine.lambda1,
        num / denom,
        engine.tol_disc,
        direction=a,
        numerator=num,
        denominator=denom,
    )


def position_field_bounds(engine, a):
    a = require_unit_timelike(a)
    n, m = engine.imm.n, engine.imm.m
    s_m = float(engine._form(engine.gram_m_pos, a))
    psi_m = engine._trace(engine.gram_m_pos)
    tangential = float(engine._form(engine.gram_k_pos, a))
    first = bound_report(
        engine,
        "position-field",
        "position-field",
        engine.lambda1 * (m * s_m + psi_m),
        n * engine.volume + m * tangential,
        TAU_BOUND,
        direction=a,
        tangential=tangential,
    )
    second = bound_report(
        engine,
        "projected-position-field",
        "projected-position-field",
        engine.lambda1 * (psi_m + s_m),
        n * engine.volume + tangential,
        TAU_BOUND,
        direction=a,
        tangential=tangential,
    )
    return first, second


def projected_curvature_bound(engine, a, sharp: bool = False) -> BoundReport:
    """lambda1 <= n int |H_a|^2 / Vol (sharp: the denominator gains
    (1/n) int |a^T|^2) at one direction."""
    a = require_unit_timelike(a)
    n = engine.imm.n
    h_a_int = engine.curvature_sq_integral + float(engine._form(engine.gram_m_h, a))
    tangential = float(engine._form(engine.gram_k_pos, a))
    denom = engine.volume + (tangential / n if sharp else 0.0)
    name = "projected-curvature-sharp" if sharp else "projected-curvature"
    return bound_report(
        engine,
        name,
        name,
        engine.lambda1,
        n * h_a_int / denom,
        engine.tol_disc,
        direction=a,
        curvature_integral=h_a_int,
        tangential=tangential,
    )


def infimum_over_directions(engine, count: int, seed: int) -> BoundReport:
    """The sampled infimum, one sample at a time: the first sample within
    TIE_RTOL of the minimum sharp right-hand side."""
    dirs = sample_timelike_directions_loop(engine.imm.m, count, seed)
    rhs = [projected_curvature_bound(engine, a, sharp=True).rhs for a in dirs]
    best = min(rhs)
    pick = next(j for j, value in enumerate(rhs) if value <= best + TIE_RTOL * abs(best))
    best_dir = dirs[pick]
    return bound_report(
        engine,
        "direction-infimum",
        "direction-infimum",
        engine.lambda1,
        rhs[pick],
        engine.tol_disc,
        direction=best_dir,
        samples=len(dirs),
        seed=seed,
        boost=float(np.arccosh(max(best_dir[0], 1.0))),
    )


def reilly_causal_certificate(engine, ell) -> BoundReport:
    """The classical bound at a causal direction, with the equality
    sub-checks of the defect form and the residual Gram."""
    ell = np.asarray(ell, dtype=float)
    q = engine.rayleigh_defect(ell)
    scale = engine._defect_scale * float(ell @ ell)
    precondition_ok = abs(q) <= TAU_ELLE * scale
    base = reilly(engine)
    g_r = engine._gram_m_resid
    euclid_sq = float(np.trace(g_r))
    causal_sq = euclid_sq - 2.0 * float(g_r[0, 0])
    volume_ratio = engine.lambda1 * engine._trace(engine.gram_m_pos) / (engine.imm.n * engine.volume)
    meta = {
        "defect": q,
        "defect_rel": q / scale,
        "precondition_ok": precondition_ok,
        "causal_residual_sq": causal_sq / engine._defect_scale / engine.lambda1,
        "euclid_residual_sq": euclid_sq / engine._defect_scale / engine.lambda1,
        "volume_identity_ratio": volume_ratio,
        "equality": precondition_ok
        and abs(volume_ratio - 1.0) <= engine.tol_disc
        and abs(causal_sq) / max(euclid_sq, 1e-300) <= 1.0
        and abs(causal_sq) / engine._defect_scale / engine.lambda1 <= TAU_EQ,
    }
    return replace(
        base,
        name="reilly-causal-certificate",
        anchor="reilly-causal-certificate",
        direction=tuple(float(x) for x in ell),
        status="ok" if precondition_ok else "precondition-failed",
        meta=meta | {key: base.meta[key] for key in ("vertices", "level")},
    )


def equality_diagnostic(engine, a, tau_eq=None) -> dict:
    """The equality report entry of one direction, without the projection
    bound's slack: the Gram-pair formulas one direction at a time, with
    Python scalars."""
    a = require_unit_timelike(a)
    if tau_eq is None:
        tau_eq = engine.equality_tolerance()
    vol = engine.volume
    b = engine.signs * a
    g_r, g_p = engine._lumped_resid, engine._lumped_pos
    c_sq = float(engine._form(g_r, a))
    rho_l2 = math.sqrt(max(engine._trace(g_r) + c_sq, 0.0) / vol)
    psi_l2 = math.sqrt((engine._trace(g_p) + 2.0 * float(engine._form(g_p, a))) / vol)
    scale = engine.imm.n / engine.lambda1  # a squared length
    residual_rel = rho_l2 / max(psi_l2, 1e-300) * scale

    a_g_b = float(np.einsum("i,ij,j->", a, g_r, b))
    rho_canon_sq = float(np.trace(g_r)) + 2.0 * a_g_b + float(np.einsum("i,i->", a, a)) * c_sq
    rho_l2_canon = math.sqrt(max(rho_canon_sq, 0.0) / vol)
    psi_l2_canon = math.sqrt(float(np.trace(g_p)) / vol)
    if residual_rel <= tau_eq:
        verdict = "equality-case"
    elif residual_rel >= STRICT_FACTOR * tau_eq:
        verdict = "strict"
    else:
        verdict = "inconclusive"
    h_a_int = engine.curvature_sq_integral + float(engine._form(engine.gram_m_h, a))
    return {
        "direction": [float(x) for x in a],
        "verdict": verdict,
        "residual_rel": residual_rel,
        "residual_rel_canonical": rho_l2_canon / max(psi_l2_canon, 1e-300) * scale,
        "causal_residual_sq": engine._trace(g_r) / vol * scale,
        "a_component_integral": -float(np.einsum("i,i->", engine._resid_integral, b)),
        "tangential_ratio": float(engine._form(engine.gram_k_pos, a)) / vol,
        "radius_from_curvature": 1.0 / math.sqrt(max(h_a_int / vol, 1e-300)),
        "radius_from_lambda1": math.sqrt(engine.imm.n / engine.lambda1),
    }


def bound_catalogue_loop(engine, config):
    """A case run's bound entries, equality entries and gate records
    (message, discretization-sensitive?, note), in report order, one
    direction and one entry at a time."""
    _, expect, _ = _build_case(config)
    directions = sample_timelike_directions_loop(engine.imm.m, config.samples, config.seed)
    bounds, equality, gated = [], [], []

    def add(report, expected=True, tag=""):
        bounds.append(bound_dict(report, expected))
        if expected is not None and report.holds != expected:
            message = f"{report.name}{tag}: holds={report.holds}, expected {expected}"
            gated.append((message, report.tol >= engine.tol_disc, " (unresolved at this refinement)"))

    add(reilly(engine), expect.reilly_holds)
    for j, a in enumerate(directions[:3]):
        add(mean_curvature_field_bound(engine, a), tag=f" dir{j}")
        for report in position_field_bounds(engine, a):
            add(report, tag=f" dir{j}")
    for j, a in enumerate(directions[:4]):
        for report in master_inequality_bounds(engine, a):
            add(report, tag=f" dir{j}")
    for j, a in enumerate(directions):
        sharp = projected_curvature_bound(engine, a, sharp=True)
        add(sharp, tag=f" dir{j}")
        add(projected_curvature_bound(engine, a), tag=f" dir{j}")
        entry = equality_diagnostic(engine, a, config.tol_eq)
        entry["projection_bound_rel_slack"] = sharp.slack / max(abs(sharp.lhs), abs(sharp.rhs))
        equality.append(entry)
    add(infimum_over_directions(engine, max(config.samples, 20), config.seed + 1))

    if expect.certificate is not None:
        certificate = reilly_causal_certificate(engine, expect.certificate)
        add(certificate, tag=" certificate")
        if not certificate.meta["equality"]:
            gated.append(("certificate equality sub-checks failed", True, ""))
    else:
        search = engine.causal_defect_search(max(4 * config.samples, 40), config.seed + 2)
        if expect.reilly_holds is False and search["found"]:
            message = "found a causal defect direction on a case violating the classical bound"
            gated.append((message, False, ""))
    found = [
        e["verdict"] == "equality-case" and e["projection_bound_rel_slack"] <= TAU_DISC
        for e in equality
    ]
    if expect.equality_direction is True and not any(found):
        gated.append(("expected an equality direction, none detected", True, ""))
    if expect.equality_direction is False and any(e["verdict"] == "equality-case" for e in equality):
        gated.append(("detected an equality direction where none should exist", True, ""))
    if section_check(engine.imm.m, config.mc_samples, config.seed).z > 4.0:
        gated.append(("section averaging Monte Carlo check missed 4 standard errors", False, ""))
    return bounds, equality, gated


def section_check(m: int, mc_samples: int, seed: int):
    """A run's section averaging check, computed afresh on the calling
    thread: the form drawn from seed + 3, the samples from seed + 4, along
    the time axis."""
    q = SymBilinearForm.random(m, np.random.default_rng(seed + 3))
    axis = np.zeros(m)
    axis[0] = 1.0
    return monte_carlo_section_integral(q, axis, mc_samples, seed=seed + 4)


def sample_timelike_directions_loop(m: int, count: int, seed: int) -> np.ndarray:
    """The time axis, then `count` boost samples drawn and built one at a
    time."""
    rng = np.random.default_rng(seed)
    axis = np.zeros(m)
    axis[0] = 1.0
    rows = [axis]
    for _ in range(count):
        g = rng.standard_normal(m - 1)
        u = g / np.linalg.norm(g)
        s = rng.uniform(0.0, S_MAX)
        rows.append(boost_direction(s, u))
    return np.array(rows)


def sample_causal_directions_loop(m: int, count: int, seed: int) -> np.ndarray:
    """Alternating boost and lightlike samples, drawn and built one at a
    time; the empty sample is a (0,) array."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        g = rng.standard_normal(m - 1)
        u = g / np.linalg.norm(g)
        s = rng.uniform(0.0, S_MAX)
        if k % 2 == 0:
            rows.append(boost_direction(s, u))
        else:
            rows.append(np.concatenate(([1.0], u)))  # lightlike
    return np.array(rows)


def build_icosphere_mesh_loop(level: int) -> ParamMesh:
    """Icosphere subdivided face by face through a midpoint dictionary."""
    vertices = [v for v in _icosahedron_vertices()]
    faces = _ICO_FACES.copy()
    for _ in range(level):
        midpoints: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            idx = midpoints.get(key)
            if idx is None:
                mid = vertices[i] + vertices[j]
                vertices.append(mid / np.linalg.norm(mid))
                idx = len(vertices) - 1
                midpoints[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        faces = np.array(new_faces)
    return ParamMesh(np.array(vertices), faces, level=level)


def ring_mesh(segments: int) -> ParamMesh:
    """Uniform cyclic polyline of any number of segments on the unit circle,
    without a coarse level."""
    theta = 2.0 * math.pi * np.arange(segments) / segments
    idx = np.arange(segments)
    return ParamMesh(
        np.stack([np.cos(theta), np.sin(theta)], axis=1),
        np.stack([idx, (idx + 1) % segments], axis=1),
        level=0,
    )


def coarse_order(mesh: ParamMesh, below: ParamMesh) -> np.ndarray:
    """Per vertex of `mesh.coarse`, its number in `below`, the level below
    as its builder numbers it: the order the coarse level is numbered in."""
    number = {vertex.tobytes(): i for i, vertex in enumerate(below.vertices)}
    return np.array([number[vertex.tobytes()] for vertex in mesh.coarse.vertices])


def parent_numbered_prolongation(mesh: ParamMesh, order: np.ndarray) -> sp.csr_matrix:
    """`fem.prolongation` onto the coarse level numbered as its builder
    numbers it, `order` from `coarse_order`."""
    k = mesh.num_vertices
    rows = np.repeat(np.arange(k), 2)
    return sp.csr_matrix(
        (np.full(2 * k, 0.5), (rows, order[mesh.parents].ravel())), shape=(k, order.size)
    )


def _permuted_csc32(a: sp.csr_matrix, perm: np.ndarray) -> sp.csc_matrix:
    """P a P' of a symmetric CSR matrix as a float32 CSC matrix, in one gather.

    Row i of the result is row perm[i] of `a` with its columns renumbered;
    `a` is symmetric, so the same arrays hold the columns.
    """
    inverse = np.empty(perm.size, dtype=a.indices.dtype)
    inverse[perm] = np.arange(perm.size)
    lengths = np.diff(a.indptr)[perm]
    indptr = np.zeros(perm.size + 1, dtype=a.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    gather = np.repeat(a.indptr[perm] - indptr[:-1], lengths) + np.arange(indptr[-1])
    return sp.csc_matrix(
        (a.data[gather].astype(np.float32), inverse[a.indices[gather]], indptr), shape=a.shape
    )


def edge_pattern(mesh: ParamMesh) -> sp.csr_matrix:
    """The symmetric pattern of the vertex pairs that share a simplex,
    loops included."""
    rows = np.repeat(mesh.simplices, mesh.n + 1, axis=1).ravel()
    cols = np.tile(mesh.simplices, (1, mesh.n + 1)).ravel()
    k = mesh.num_vertices
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(k, k))


def pattern_edges(pattern) -> np.ndarray:
    """The (e, 2) row and column pairs a sparse matrix stores."""
    coo = sp.coo_matrix(pattern)
    return np.stack([coo.row, coo.col], axis=1)


def nested_dissection_order_recursive(points, pattern) -> np.ndarray:
    """Nested-dissection order built one part per call: split at the median
    of the widest coordinate (ties by vertex number), take the left
    vertices with a neighbour on the right as the separator, and list
    left, right, separator; parts of at most ND_LEAF vertices in vertex
    order."""
    adjacency = sp.csr_matrix(pattern)

    def order(part):
        if part.size <= ND_LEAF:
            return list(part)
        pts = points[part]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        by_coord = part[np.argsort(pts[:, axis], kind="stable")]
        left, right = by_coord[: part.size // 2], by_coord[part.size // 2 :]
        on_separator = adjacency[left][:, right].getnnz(axis=1) > 0
        return (
            order(np.sort(left[~on_separator]))
            + order(np.sort(right))
            + sorted(left[on_separator])
        )

    return np.array(order(np.arange(points.shape[0])), dtype=np.int64)


def _difference_matrix(n: int) -> np.ndarray:
    """The (n, n + 1) edge-difference matrix [-1 | I]: row a maps an
    element's corner values to the difference along its chord a."""
    d = np.zeros((n, n + 1))
    d[:, 0] = -1.0
    d[np.arange(n), np.arange(1, n + 1)] = 1.0
    return d


def stiffness_einsum(mesh, geometry) -> sp.csr_matrix:
    """P1 stiffness from element matrices summed by one 3-operand einsum
    over the edge-difference matrix, then scattered like the assembly."""
    n = mesh.n
    diff = _difference_matrix(n)
    k_loc = np.einsum(
        "ak,eab,bl->ekl", diff, chord_gram_inverse(geometry) * geometry.volumes[:, None, None], diff
    )
    rows = np.repeat(mesh.simplices, n + 1, axis=1).ravel()
    cols = np.tile(mesh.simplices, (1, n + 1)).ravel()
    k = mesh.num_vertices
    return sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(k, k)).tocsr()


def mass_coo(mesh, geometry) -> sp.csr_matrix:
    """Consistent P1 mass from its element matrices, scattered with the
    mesh's own index arrays and converted to CSR on its own."""
    n = mesh.n
    m_loc = (np.ones((n + 1, n + 1)) + np.eye(n + 1)) / ((n + 1) * (n + 2))
    m_loc = geometry.volumes[:, None, None] * m_loc
    rows = np.repeat(mesh.simplices, n + 1, axis=1).ravel()
    cols = np.tile(mesh.simplices, (1, n + 1)).ravel()
    k = mesh.num_vertices
    return sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(k, k)).tocsr()


def lumped_mass_add_at(mesh, geometry) -> np.ndarray:
    """Lumped mass scattered element by element with np.add.at."""
    lumped = np.zeros(mesh.num_vertices)
    np.add.at(lumped, mesh.simplices, (geometry.volumes / (mesh.n + 1))[:, None])
    return lumped


def lambda1_colamd(pencil, seed: int = 0) -> float:
    """Smallest nonzero eigenvalue by shift-invert Lanczos on a COLAMD
    factor of the shifted pencil; the zero eigenvalue is computed and
    dropped."""
    K = pencil.stiffness.tocsc()
    M = pencil.mass.tocsc()
    k = K.shape[0]
    shift = 1e-8 * K.diagonal().sum() / M.diagonal().sum()
    lu = splu(K + shift * M, permc_spec="COLAMD")
    ritz = eigsh(
        K,
        k=pencil.geometry.mesh.n + 2,
        M=M,
        sigma=-shift,
        OPinv=LinearOperator((k, k), matvec=lu.solve, dtype=float),
        v0=np.random.default_rng(seed).standard_normal(k),
        tol=1e-14,
        return_eigenvectors=False,
    )
    return float(np.sort(ritz)[1])


def lambda1_dense(pencil) -> float:
    """Smallest nonzero eigenvalue by a dense generalized eigensolve of the
    whole pencil: the zero eigenvalue (the constant mode) comes first."""
    ritz = scipy.linalg.eigh(pencil.stiffness.toarray(), pencil.mass.toarray(), eigvals_only=True)
    return float(ritz[1])


def lambda1_fine_factor(pencil) -> float:
    """Smallest nonzero eigenvalue by block LOBPCG preconditioned with a
    float64 SuperLU factor of the whole fine pencil K + s M, with
    s = 1e-6 tr(K)/tr(M), in the recursive nested-dissection order;
    started from the parameter coordinates with the constant vector as
    its constraint."""
    K, M = pencil.stiffness, pencil.mass
    k = K.shape[0]
    shift = 1e-6 * K.diagonal().sum() / M.diagonal().sum()
    perm = nested_dissection_order_recursive(pencil.geometry.mesh.vertices, M)
    shifted = (K + shift * M).tocsr()[perm][:, perm].tocsc()
    lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(block):
        out = np.empty_like(block)
        out[perm] = lu.solve(block[perm])
        return out

    ones = np.ones((k, 1))
    start = pencil.geometry.mesh.vertices
    start = start - ones @ (ones.T @ (M @ start)) / (ones.T @ (M @ ones))
    ritz, _ = lobpcg(
        K,
        start,
        B=M,
        M=LinearOperator((k, k), matvec=solve, matmat=solve, dtype=float),
        Y=ones,
        tol=1e-8,
        maxiter=40,
        largest=False,
    )
    return float(np.min(ritz))


def sample_spherical_section(a, rng_seed, count: int) -> np.ndarray:
    """Uniform samples from the light-cone section {<v,v> = 0, <v,a> = -1}.

    Samples are v = a + u with u uniform on the unit sphere of a-perp,
    which realizes the section's round-sphere geometry. Deterministic per
    seed; `rng_seed` may also be a `numpy.random.Generator`, which is then
    drawn from in place.
    """
    a = require_unit_timelike(a)
    if count < 1:
        raise UsageError("count must be positive")
    basis = spacelike_complement_basis(a)
    rng = np.random.default_rng(rng_seed)
    g = rng.standard_normal((count, a.shape[-1] - 1))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return a + g @ basis


def form_values(q: SymBilinearForm, u, v):
    """Q(u, v) = u' Q v, row by row for stacks of points."""
    return np.einsum("...i,ij,...j->...", np.asarray(u, float), q.matrix, np.asarray(v, float))


def section_average_battery_serial(m: int, samples: int, seed: int) -> dict:
    """The section averaging battery's report, its checks run one after
    another in report order on the calling thread."""
    rng = np.random.default_rng(seed)
    spatial = np.zeros((2, m - 1))
    spatial[0, 0] = 1.0
    spatial[1, :2] = (0.6, 0.8)
    dirs = [np.eye(m)[0], boost_direction(0.5, spatial[0]), boost_direction(1.0, spatial[1])]
    cases = []

    def add(lemma, form, direction, exact, mc):
        z = abs(mc.estimate - exact) / mc.stderr
        cases.append({
            "lemma": lemma,
            "form": form,
            "direction": direction,
            "exact": float(exact),
            "estimate": float(mc.estimate),
            "stderr": float(mc.stderr),
            "z": float(z),
            "pass": bool(z <= 4.0),
        })

    for i in range(5):
        q = SymBilinearForm.random(m, rng)
        for j, a in enumerate(dirs):
            mc = monte_carlo_section_integral(q, a, samples, seed=seed + 100 + 3 * i + j)
            add("section", i, j, section_integral_exact(q, a), mc)
    for i in range(5):
        q = SymBilinearForm.random(m, rng)
        mc = monte_carlo_sphere_integral(q, samples, seed=seed + 200 + i)
        add("sphere", i, None, sphere_integral_exact(q), mc)
    return {
        "schema_version": "1",
        "m": m,
        "samples": samples,
        "seed": seed,
        "cases": cases,
        "verdict": "pass" if all(entry["pass"] for entry in cases) else "fail",
    }


def run_suite_serial(cases, levels, base):
    """The suite's reports and summary from its runs one after another on
    the calling thread, in report order; a failing run's error propagates
    as it is raised. `pipeline.run_case` is looked up at each run."""
    if not cases or not levels:
        raise UsageError("suite needs nonempty case and level lists")
    reports = []
    table = []
    for case in cases:
        for level in levels:
            report = pipeline.run_case(replace(base, case=case, level=level))
            reports.append(report)
            table.append(
                {
                    "case": case,
                    "level": level,
                    "lambda1": report.lambda1["value"],
                    "lambda1_rel_error": report.lambda1["rel_error"],
                    "minkowski_residual_rel": report.identities["minkowski_residual_rel"],
                    "beltrami_l2": report.identities["beltrami_l2"],
                    "verdict": report.verdict,
                }
            )
    overall = "pass" if all(r.verdict == "pass" for r in reports) else "fail"
    return reports, {"rows": table, "verdict": overall}
