"""Reference evaluations the library is checked against.

`BoundEngine` evaluates every bound from m x m Gram matrices built once
per engine. The helpers here recompute the same numbers the direct way,
one sparse stiffness or mass product per vertex field, and build test
fields from a mesh and an immersion without an engine. The icosphere is
rebuilt one midpoint at a time, the way the array build must number it.
The nested-dissection ordering is rebuilt one part per recursive call,
and the first eigenvalue is recomputed on SuperLU's own COLAMD factor,
with the constant mode left in the spectrum instead of deflated.
Pointwise chart data (tangential parts of a direction, per-element
signed gradient traces) and the gravity-center recentering are the
continuum references for the engine's discrete identities. Light-cone
section samples are formed as points v = a + u, the direct way the Monte
Carlo estimators' reduced quadratic must reproduce.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from lorentzlab.bounds import H_CENTER_TOL, TestField, _center_residual
from lorentzlab.errors import UsageError
from lorentzlab.fem import ND_LEAF, apply_discrete_laplacian, assemble_pencil, mesh_geometry
from lorentzlab.immersions import Immersion, StereographicChart
from lorentzlab.meshes import _ICO_FACES, ParamMesh, _icosahedron_vertices
from lorentzlab.minkowski import (
    inner,
    metric_signs,
    require_unit_timelike,
    spacelike_complement_basis,
)
from lorentzlab.quadrature import mean_curvature_vertices

TAU_CENTER = 1e-8


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
        out[mask] = np.einsum("kca,kai->kci", imm._jac(x), chart.jac(u))
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
    geom = mesh_geometry(mesh, imm)
    return (geom.lumped @ geom.positions) / geom.total_volume


def recenter_to_gravity_origin(imm: Immersion, mesh) -> Immersion:
    """Translate so the mesh-quadrature gravity center sits at the origin."""
    return imm.translated(-gravity_center(imm, mesh))


def signed_gradient_trace_density(mesh, imm, W, geometry=None) -> np.ndarray:
    """Per-element signed sum of squared P1 gradients of <b_j, W>.

    The sum runs over the canonical pseudo-orthonormal basis with signs
    (-1, 1, ..., 1); signature weighting makes the value basis
    independent.
    """
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)
    values = W.values if isinstance(W, TestField) else np.asarray(W, dtype=float)
    if values.shape != (mesh.num_vertices, imm.m):
        raise UsageError("field shape does not match mesh and ambient dimension")
    simplices = mesh.simplices
    dw = values[simplices[:, 1:]] - values[simplices[:, :1]]  # (E, n, m)
    signs = metric_signs(imm.m)
    return np.einsum("eam,m,ebm,eba->e", dw, signs, dw, geom.gram_inv)


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
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)
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
    geom = geometry if geometry is not None else mesh_geometry(mesh, imm)
    base = make_test_field_position(mesh, imm, geometry=geom)
    s = inner(base.values, a)
    values = base.values + s[:, None] * a
    return TestField(
        values=values,
        provenance="projected-position",
        centered=True,
        center_residual=_center_residual(geom, values),
    )


def equality_residuals(engine, a) -> dict:
    """Equality-diagnostic norms evaluated vertex by vertex."""
    lumped, vol = engine.geometry.lumped, engine.volume
    psi = engine.positions_hat
    resid = apply_discrete_laplacian(engine.pencil, psi) + engine.lambda1 * psi
    mu = -engine.f_direction(resid, a)
    rho = resid - mu[:, None] * a
    s_hat = inner(psi, a)
    rho_l2 = np.sqrt(max(float(lumped @ inner(rho, rho)), 0.0) / vol)
    psi_l2 = np.sqrt(float(lumped @ (inner(psi, psi) + 2.0 * s_hat**2)) / vol)
    rho_l2_canon = np.sqrt(float(lumped @ (rho * rho).sum(axis=1)) / vol)
    psi_l2_canon = np.sqrt(float(lumped @ (psi**2).sum(axis=1)) / vol)
    return {
        "residual_rel": rho_l2 / psi_l2,
        "residual_rel_canonical": rho_l2_canon / psi_l2_canon,
        "causal_residual_sq": float(lumped @ inner(resid, resid)) / vol,
        "a_component_integral": float(lumped @ mu),
        "a_component": mu,
    }


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
    return ParamMesh(np.array(vertices), faces, kind="sphere", level=level)


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
