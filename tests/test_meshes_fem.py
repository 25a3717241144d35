import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import lorentzlab.fem
from lorentzlab.errors import EigenSolveError, NotSpacelikeError, UsageError
from lorentzlab.fem import (
    FACTOR_SHIFT,
    TAU_EIG,
    assemble_pencil,
    mesh_geometry,
    prolongation,
    solve_lambda1,
)
from lorentzlab.immersions import (
    CounterexampleSphere,
    CylinderSphere,
    HyperbolicArc,
    HyperplaneSphere,
    NullHyperplaneSphere,
)
from lorentzlab.meshes import (
    build_circle_mesh,
    build_icosphere_mesh,
    nested_dissection_order,
)
from lorentzlab.pipeline import RunConfig, _build_case, _build_mesh
from lorentzlab.quadrature import beltrami_residual, mean_curvature_vertices

from oracles import (
    _permuted_csc32,
    apply_discrete_laplacian,
    build_icosphere_mesh_loop,
    chord_gram_inverse,
    coarse_order,
    edge_pattern,
    euler_characteristic,
    facet_incidence,
    gradient_squared_per_element,
    lambda1_colamd,
    lambda1_dense,
    lambda1_fine_factor,
    lumped_mass_add_at,
    mass_coo,
    nested_dissection_order_recursive,
    parent_numbered_prolongation,
    pattern_edges,
    ring_mesh,
    stiffness_einsum,
)

AXIS4 = np.array([1.0, 0.0, 0.0, 0.0])
CASES = ("sphere-hyperplane", "counterexample", "cylinder-curve", "lightlike-hyperplane")


def unit_sphere(n=2, r=1.0):
    m = n + 2
    axis = np.zeros(m)
    axis[0] = 1.0
    return HyperplaneSphere(n, r, np.zeros(m), axis)


def closed_h_gallery():
    return [
        unit_sphere(),
        CounterexampleSphere(2),
        CylinderSphere(2, HyperbolicArc(2.0)),
        NullHyperplaneSphere(2, 0.5),
    ]


# --- meshes -----------------------------------------------------------------


def test_circle_mesh_basics():
    mesh = build_circle_mesh(0)
    assert mesh.num_vertices == 16 and len(mesh.simplices) == 16
    angles = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    gaps = np.diff(np.unwrap(angles))
    assert np.allclose(gaps, 2 * math.pi / 16)
    counts = facet_incidence(mesh)
    assert all(c == 2 for c in counts.values())
    assert euler_characteristic(mesh) == 0
    assert build_circle_mesh(5).num_vertices == 2 * build_circle_mesh(4).num_vertices == 512


def test_mesh_builders_reject_a_negative_level():
    for build in (build_circle_mesh, build_icosphere_mesh):
        with pytest.raises(UsageError):
            build(-1)


def test_icosphere_counts():
    mesh0 = build_icosphere_mesh(0)
    assert mesh0.num_vertices == 12 and len(mesh0.simplices) == 20
    mesh2 = build_icosphere_mesh(2)
    assert mesh2.num_vertices == 10 * 4**2 + 2 == 162
    assert len(mesh2.simplices) == 20 * 4**2
    assert np.allclose(np.linalg.norm(mesh2.vertices, axis=1), 1.0)
    counts = facet_incidence(mesh2)
    assert all(c == 2 for c in counts.values())
    assert euler_characteristic(mesh2) == 2


def test_icosphere_matches_loop_oracle_bit_for_bit():
    for level in range(7):
        mesh = build_icosphere_mesh(level)
        ref = build_icosphere_mesh_loop(level)
        assert mesh.vertices.dtype == ref.vertices.dtype
        assert mesh.simplices.dtype == ref.simplices.dtype
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.simplices, ref.simplices)


def assert_keeps_the_level_below(mesh, below):
    """`mesh.coarse` is `below` renumbered in the nested-dissection order of
    its edge graph, and each of its vertices is copied by one vertex of
    `mesh`, found through `parents`."""
    coarse = mesh.coarse
    assert (coarse.n, coarse.level, coarse.coarse) == (below.n, below.level, None)
    order = nested_dissection_order_recursive(below.vertices, edge_pattern(below))
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    assert np.array_equal(coarse_order(mesh, below), order)
    for ours, theirs in ((coarse.vertices, below.vertices[order]),
                         (coarse.simplices, number[below.simplices])):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    copies = mesh.parents[:, 0] == mesh.parents[:, 1]
    assert np.array_equal(np.sort(mesh.parents[copies, 0]), np.arange(coarse.num_vertices))
    assert np.array_equal(mesh.vertices[copies], coarse.vertices[mesh.parents[copies, 0]])


def test_icosphere_keeps_the_level_below_as_coarse():
    assert build_icosphere_mesh(0).coarse is None
    for level in range(1, 7):
        mesh, below = build_icosphere_mesh(level), build_icosphere_mesh(level - 1)
        assert_keeps_the_level_below(mesh, below)
        # the fine mesh starts with a copy of the level below, as its builder numbers it
        assert np.array_equal(mesh.vertices[: below.num_vertices], below.vertices)


def test_circle_keeps_the_level_below_as_coarse():
    assert build_circle_mesh(0).coarse is None
    for level in range(1, 8):
        mesh, below = build_circle_mesh(level), build_circle_mesh(level - 1)
        assert_keeps_the_level_below(mesh, below)
        # vertex 2j copies vertex j of the level below, as its builder numbers it
        assert np.array_equal(mesh.vertices[::2], below.vertices)


@pytest.mark.parametrize("level", range(1, 5))
@pytest.mark.parametrize("build", [build_circle_mesh, build_icosphere_mesh], ids=["circle", "sphere"])
def test_prolongation_interpolates_from_the_coarse_level(build, level):
    mesh = build(level)
    kc = mesh.coarse.num_vertices
    P = prolongation(mesh)
    assert P.shape == (mesh.num_vertices, kc)
    assert np.array_equal(np.asarray(P.sum(axis=1)).ravel(), np.ones(mesh.num_vertices))
    f = np.random.default_rng(level).standard_normal(kc)
    fine = P @ f
    # a copy of coarse vertex j takes its value
    copies = mesh.parents[:, 0] == mesh.parents[:, 1]
    assert np.count_nonzero(copies) == kc
    assert np.array_equal(fine[copies], f[mesh.parents[copies, 0]])
    # a midpoint takes the mean of its edge's ends, and each coarse edge has one midpoint
    ends = mesh.parents[~copies]
    assert np.array_equal(fine[~copies], 0.5 * (f[ends[:, 0]] + f[ends[:, 1]]))
    edges = pattern_edges(edge_pattern(mesh.coarse))
    edges = edges[edges[:, 0] < edges[:, 1]]
    assert np.array_equal(np.unique(edges, axis=0), np.unique(np.sort(ends, axis=1), axis=0))
    assert len(ends) == len(edges)


@pytest.mark.parametrize("level", range(1, 7))
@pytest.mark.parametrize("case", CASES)
def test_jacobi_damping_contracts_in_the_energy_norm(case, level):
    # omega = 4 / (3 rho), rho the largest Gershgorin ratio of A = K + s M,
    # keeps omega lambda_max(D^-1 A) < 2: each sweep contracts in the A norm
    imm, _, _ = _build_case(RunConfig(case=case))
    pen = assemble_pencil(build_icosphere_mesh(level), imm)
    K, M = pen.stiffness, pen.mass
    A = K + FACTOR_SHIFT * K.diagonal().sum() / M.diagonal().sum() * M
    rho = np.max(abs(A) @ np.ones(A.shape[0]) / A.diagonal())
    omega = 4.0 / (3.0 * rho)
    scale = sp.diags(1.0 / np.sqrt(A.diagonal()))
    top = eigsh(scale @ A @ scale, k=1, which="LA", return_eigenvectors=False, tol=1e-6)[0]
    assert 0.0 < omega * top < 2.0
    assert omega * rho < 2.0
    assert rho == pytest.approx(2.0, abs=1e-5)


# --- assembly ----------------------------------------------------------------


def test_assembled_volume_circle_and_sphere():
    circle = build_circle_mesh(4)
    imm1 = HyperplaneSphere(1, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    pen1 = assemble_pencil(circle, imm1)
    assert pen1.geometry.lumped.sum() == pytest.approx(2 * math.pi, rel=1e-3)

    circle2 = HyperplaneSphere(1, 2.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    pen2 = assemble_pencil(circle, circle2)
    assert pen2.geometry.lumped.sum() == pytest.approx(4 * math.pi, rel=1e-3)

    # inscribed flat triangles undershoot the area by 1.19e-3 at level 4
    mesh = build_icosphere_mesh(4)
    pen = assemble_pencil(mesh, unit_sphere())
    assert pen.geometry.lumped.sum() == pytest.approx(4 * math.pi, rel=1.5e-3)
    pen5 = assemble_pencil(build_icosphere_mesh(5), unit_sphere())
    assert pen5.geometry.lumped.sum() == pytest.approx(4 * math.pi, rel=1e-3)
    # lumped mass is the mass-matrix row sum
    row_sums = np.asarray(pen.mass.sum(axis=1)).ravel()
    assert np.abs(row_sums - pen.geometry.lumped).max() < 1e-14


def test_stiffness_kernel_is_constants():
    mesh = build_icosphere_mesh(4)
    pen = assemble_pencil(mesh, CounterexampleSphere(2))
    ones = np.ones(pen.stiffness.shape[0])
    assert np.linalg.norm(pen.stiffness @ ones) <= 1e-10


def test_assembly_rejects_non_spacelike_elements():
    # stretching the time coordinate makes the induced metric Lorentzian
    class TimeStretchedGraph:
        n, m = 2, 4

        def eval(self, pts):
            pts = np.asarray(pts, dtype=float)
            return np.concatenate([3.0 * pts[..., :1], pts], axis=-1)

    with pytest.raises(NotSpacelikeError):
        mesh_geometry(build_icosphere_mesh(2), TimeStretchedGraph())


# --- eigensolve ----------------------------------------------------------------


def test_lambda1_circle():
    mesh = build_circle_mesh(4)
    imm = HyperplaneSphere(1, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    spec = solve_lambda1(assemble_pencil(mesh, imm))
    assert spec.lambda1 == pytest.approx(1.0, rel=1e-3)


def p1_circle_lambda1(segments):
    """P1 eigenvalue of the first Fourier mode on the inscribed regular
    polygon, 6 (1 - cos t) / (h^2 (2 + cos t)) written with sin^2(t/2),
    which keeps full relative precision as t goes to 0."""
    t = 2.0 * math.pi / segments
    h = 2.0 * math.sin(math.pi / segments)
    return 12.0 * math.sin(t / 2.0) ** 2 / (h**2 * (2.0 + math.cos(t)))


@pytest.mark.parametrize("segments, exact", [(3, 2.0), (4, 1.5), (5, p1_circle_lambda1(5))])
def test_lambda1_tiny_circles_match_exact_p1(segments, exact):
    # the deflated space (dimension 2 to 4) is smaller than the block
    # LOBPCG's workspace, and the start block passes the gate at step 0
    assert p1_circle_lambda1(segments) == pytest.approx(exact, rel=1e-15)
    imm = HyperplaneSphere(1, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    pen = assemble_pencil(ring_mesh(segments), imm)
    spec = solve_lambda1(pen)
    assert abs(spec.lambda1 - exact) <= 1e-12 * exact
    assert spec.residual <= 1e-12


@pytest.mark.parametrize(
    "case, size", [(case, n) for case in CASES for n in (1, 2)] + [("ring", k) for k in (3, 4, 5)]
)
def test_level0_lambda1_matches_the_dense_oracle(case, size):
    # a mesh without a coarse level is its own coarse level (P = I), so
    # level 0 takes the block LOBPCG and its two-grid cycle as every level does
    if case == "ring":
        pen = assemble_pencil(ring_mesh(size), unit_sphere(n=1))
    else:
        imm, _, _ = _build_case(RunConfig(case=case, n=size))
        pen = assemble_pencil(_build_mesh(size, 0), imm)
    spec = solve_lambda1(pen)
    exact = lambda1_dense(pen)
    assert abs(spec.lambda1 - exact) <= 1e-13 * exact
    assert spec.residual <= TAU_EIG
    if (case, size) == ("counterexample", 2):
        # its start block does not pass the gate: the solve iterates
        assert spec.iterations > 0


@pytest.mark.parametrize("level", range(1, 8))
def test_lambda1_circle_levels_match_exact_p1(level):
    # the case's circle is a regular polygon of 16 * 2^level segments; at
    # these levels the solve's lambda1 was measured within 4.8e-13 of it
    imm, _, _ = _build_case(RunConfig(case="sphere-hyperplane", n=1))
    spec = solve_lambda1(assemble_pencil(_build_mesh(imm.n, level), imm))
    exact = p1_circle_lambda1(16 * 2**level)
    assert abs(spec.lambda1 - exact) <= 1e-12 * exact


def test_lambda1_sphere_and_counterexample():
    mesh = build_icosphere_mesh(4)
    spec = solve_lambda1(assemble_pencil(mesh, unit_sphere()))
    assert spec.lambda1 == pytest.approx(2.0, rel=2e-2)
    assert spec.near_degenerate  # multiplicity-three cluster

    spec_c = solve_lambda1(assemble_pencil(mesh, CounterexampleSphere(2)))
    assert spec_c.lambda1 == pytest.approx(2.0, rel=2e-2)


def test_spectrum_invariants():
    mesh = build_icosphere_mesh(3)
    pen = assemble_pencil(mesh, CounterexampleSphere(2))
    spec = solve_lambda1(pen)
    assert spec.lambda1 > 0 and spec.residual <= TAU_EIG
    # deterministic across repeat solves
    again = solve_lambda1(pen)
    assert (again.lambda1, again.iterations, again.residual) == (
        spec.lambda1,
        spec.iterations,
        spec.residual,
    )


def test_lambda1_counterexample_level3_reference():
    # the value `lab run --case counterexample --level 3` reported with the
    # block inverse-iteration solver this one replaced
    pen = assemble_pencil(build_icosphere_mesh(3), CounterexampleSphere(2))
    spec = solve_lambda1(pen)
    assert spec.lambda1 == pytest.approx(2.0098083572057615, rel=1e-10)
    assert spec.residual <= 1e-8


def test_iterations_count_factor_solves(monkeypatch):
    columns = []  # right-hand sides per factor solve call

    class CountingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs, *args, **kwargs):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return self._lu.solve(rhs, *args, **kwargs)

    splu = lorentzlab.fem.splu
    monkeypatch.setattr(lorentzlab.fem, "splu", lambda a, **kw: CountingLU(splu(a, **kw)))
    pen = assemble_pencil(build_icosphere_mesh(3), CounterexampleSphere(2))
    spec = solve_lambda1(pen)
    assert spec.iterations == sum(columns) > 0
    # the active block is solved in one call
    assert max(columns) > 1


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("n, case", [(n, case) for n in (1, 2) for case in CASES])
def test_element_stiffness_matches_einsum_oracle_bitwise(n, case, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    mesh = _build_mesh(imm.n, level)
    pen = assemble_pencil(mesh, imm)
    oracle = stiffness_einsum(mesh, pen.geometry)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(pen.stiffness, attr), getattr(oracle, attr))


@pytest.mark.parametrize("level", (0, 3, 5))
@pytest.mark.parametrize("n, case", [(n, case) for n in (1, 2) for case in CASES])
def test_element_energy_matches_chord_gram_inverse_bitwise(n, case, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    mesh = _build_mesh(imm.n, level)
    geom, energy = mesh_geometry(mesh, imm)
    oracle = chord_gram_inverse(geom) * geom.volumes[:, None, None]
    for a in range(n):
        for b in range(n):
            assert np.array_equal(energy[a][b], oracle[:, a, b]), (a, b)


@pytest.mark.parametrize("level", (0, 3, 5))
@pytest.mark.parametrize("n, case", [(n, case) for n in (1, 2) for case in CASES])
def test_mass_shares_the_stiffness_pattern_bitwise(n, case, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    mesh = _build_mesh(imm.n, level)
    pen = assemble_pencil(mesh, imm)
    assert pen.mass.indices is pen.stiffness.indices
    assert pen.mass.indptr is pen.stiffness.indptr
    oracles = {"stiffness": stiffness_einsum(mesh, pen.geometry), "mass": mass_coo(mesh, pen.geometry)}
    # the solve sums and scales on the shared arrays; it may not sort or
    # prune them in place
    if level == 3:
        solve_lambda1(pen)
    for name, oracle in oracles.items():
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(getattr(pen, name), attr), getattr(oracle, attr)), (name, attr)


@pytest.mark.parametrize("level", (0, 3, 5))
@pytest.mark.parametrize("n, case", [(n, case) for n in (1, 2) for case in CASES])
def test_lumped_mass_matches_add_at_oracle_bitwise(n, case, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    mesh = _build_mesh(imm.n, level)
    geom, _ = mesh_geometry(mesh, imm)
    assert np.array_equal(geom.lumped, lumped_mass_add_at(mesh, geom))


@pytest.mark.parametrize(
    "kind, size",
    [("sphere", level) for level in range(6)]
    + [("circle", segments) for segments in (3, 64, 65, 1024)],
)
def test_nested_dissection_matches_recursive_oracle(kind, size):
    if kind == "sphere":
        pen = assemble_pencil(build_icosphere_mesh(size), CounterexampleSphere(2))
    else:
        pen = assemble_pencil(ring_mesh(size), unit_sphere(n=1))
    points = pen.geometry.mesh.vertices
    perm = nested_dissection_order(points, pattern_edges(pen.stiffness))
    assert perm.shape == (pen.stiffness.shape[0],)
    assert np.array_equal(np.sort(perm), np.arange(pen.stiffness.shape[0]))
    assert np.array_equal(perm, nested_dissection_order(points, pattern_edges(pen.stiffness)))
    assert np.array_equal(perm, nested_dissection_order_recursive(points, pen.stiffness))


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("case", CASES)
def test_order_built_with_the_mesh_is_the_galerkin_pattern_order(case, n, level):
    # the solve factors the Galerkin operator of K + s M on the coarse
    # level as it comes; the nested-dissection order of its pattern, with
    # the coarse level numbered as its builder numbers it, is the order
    # the mesh numbers the coarse level in
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    mesh = _build_mesh(n, level)
    below = _build_mesh(n, level - 1)
    pen = assemble_pencil(mesh, imm)
    shift = 1e-6 * pen.stiffness.diagonal().sum() / pen.mass.diagonal().sum()
    order = coarse_order(mesh, below)
    P = parent_numbered_prolongation(mesh, order)
    galerkin = P.T @ (pen.stiffness + shift * pen.mass) @ P
    assert np.array_equal(order, nested_dissection_order(below.vertices, pattern_edges(galerkin)))


def test_order_ignores_pair_orientation_repeats_and_loops():
    mesh = build_icosphere_mesh(3)
    edges = pattern_edges(assemble_pencil(mesh, unit_sphere()).stiffness)
    upper = edges[edges[:, 0] < edges[:, 1]]
    loops = np.stack([np.arange(mesh.num_vertices)] * 2, axis=1)
    perm = nested_dissection_order(mesh.vertices, upper)
    repeated = np.concatenate([upper[:, ::-1], upper, loops])
    assert np.array_equal(perm, nested_dissection_order(mesh.vertices, repeated))


def test_nested_dissection_separates_the_halves():
    # a circle's first cut takes two of the 512 left-side vertices as the
    # separator, listed last; no stiffness edge joins the 510 remaining
    # left vertices (listed first) to the 512 right ones
    pen = assemble_pencil(build_circle_mesh(6), unit_sphere(n=1))
    perm = nested_dissection_order(pen.geometry.mesh.vertices, pattern_edges(pen.stiffness))
    position = np.empty_like(perm)
    position[perm] = np.arange(perm.size)
    edges = pen.stiffness.tocoo()
    side = np.where(position < 510, 0, np.where(position < 1022, 1, 2))
    assert not np.any((side[edges.row] == 0) & (side[edges.col] == 1))
    assert np.count_nonzero((side[edges.row] == 2) & (side[edges.col] == 1)) == 2


def test_level5_factor_fill_below_colamd(monkeypatch):
    fills = []
    splu = lorentzlab.fem.splu

    def recording_splu(a, **kw):
        lu = splu(a, **kw)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(lorentzlab.fem, "splu", recording_splu)
    solve_lambda1(assemble_pencil(build_icosphere_mesh(5), CounterexampleSphere(2)))
    # the factor is of the Galerkin operator on the level-4 mesh, where
    # COLAMD gives 221,252 entries (1,347,336 on the level-5 pencil)
    assert len(fills) == 1 and fills[0] < 200_000


def test_preconditioner_is_one_float32_csc_factor(monkeypatch):
    factored = []
    splu = lorentzlab.fem.splu

    def recording_splu(a, **kw):
        factored.append((a.format, a.dtype))
        return splu(a, **kw)

    monkeypatch.setattr(lorentzlab.fem, "splu", recording_splu)
    solve_lambda1(assemble_pencil(build_icosphere_mesh(3), CounterexampleSphere(2)))
    assert factored == [("csc", np.float32)]


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("case", CASES)
def test_factor_input_is_the_permuted_parent_numbered_galerkin_operator(monkeypatch, case, level):
    # the solve factors the Galerkin operator as it comes, on the coarse
    # level the mesh numbers in nested-dissection order: it is the
    # operator on the level below as its builder numbers it, permuted
    # into that order by the one-gather oracle, of the shifted operator
    # normalised as K is: by the power of two that brings K's largest
    # entry into [1/2, 1)
    received = []
    splu = lorentzlab.fem.splu

    def recording_splu(a, **kw):
        received.append((a, splu(a, **kw)))
        return received[-1][1]

    monkeypatch.setattr(lorentzlab.fem, "splu", recording_splu)
    imm, _, _ = _build_case(RunConfig(case=case, n=2))
    mesh = _build_mesh(2, level)
    pen = assemble_pencil(mesh, imm)
    solve_lambda1(pen)
    [(factored, lu)] = received
    K, M = pen.stiffness, pen.mass
    ratio = K.diagonal().sum() / max(M.diagonal().sum(), 1e-300)
    k_exp = np.frexp(np.abs(K.data).max())[1]
    data = np.ldexp(K.data + (FACTOR_SHIFT * ratio) * M.data, -k_exp)
    shifted = sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape)
    order = coarse_order(mesh, _build_mesh(2, level - 1))
    P = parent_numbered_prolongation(mesh, order)
    oracle = _permuted_csc32((P.T @ shifted @ P).tocsr(), order)
    # the gather lists a column's rows in the builder's numbering; SuperLU
    # factors either listing to the same bits, so the rows are compared in
    # order
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(factored, attr), getattr(oracle.sorted_indices(), attr))
    ours = splu(oracle, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
    for attr in ("L", "U"):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(getattr(lu, attr), part), getattr(getattr(ours, attr), part))


@pytest.mark.parametrize("level", range(1, 12))
@pytest.mark.parametrize("case", CASES)
def test_circles_pass_the_gate_on_the_two_grid_path(case, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=1))
    mesh = _build_mesh(1, level)
    assert mesh.coarse is not None
    spec = solve_lambda1(assemble_pencil(mesh, imm))
    assert spec.residual <= TAU_EIG


@pytest.mark.parametrize(
    "n, level", [(1, level) for level in range(9)] + [(2, level) for level in range(7)]
)
def test_float32_factor_pivots_positive(monkeypatch, n, level):
    factors = []
    splu = lorentzlab.fem.splu

    def recording_splu(a, **kw):
        factors.append(splu(a, **kw))
        return factors[-1]

    monkeypatch.setattr(lorentzlab.fem, "splu", recording_splu)
    for case in CASES:
        imm, _, _ = _build_case(RunConfig(case=case, n=n))
        mesh = _build_mesh(imm.n, level)
        pen = assemble_pencil(mesh, imm)
        # the shift outweighs float32 rounding of the coarse Galerkin
        # operator, over the fine lumped mass at the coarse copies (see
        # solve_lambda1): the entries of weight 1 in P, every vertex at
        # level 0, where P = I
        K, M = pen.stiffness, pen.mass
        shift = FACTOR_SHIFT * K.diagonal().sum() / M.diagonal().sum()
        P = prolongation(mesh)
        coarse_size = P.shape[1]
        rows = abs(P.T @ (K + shift * M) @ P) @ np.ones(coarse_size)
        copies = P.tocoo()
        copy = copies.data == 1.0
        assert np.count_nonzero(copy) == coarse_size
        lumped = np.empty(coarse_size)
        lumped[copies.col[copy]] = pen.geometry.lumped[copies.row[copy]]
        assert shift > 2.0**-24 * (n + 2) * np.max(rows / lumped)
        solve_lambda1(pen)
        lu = factors.pop()
        assert np.array_equal(lu.perm_r, np.arange(coarse_size)), case
        assert lu.U.diagonal().min() > 0, case
    assert not factors


@pytest.mark.parametrize("level", (3, 4, 5))
@pytest.mark.parametrize("case", CASES)
def test_block_solves_take_12_or_15_columns(case, level):
    # the solve stops at the first Rayleigh-Ritz step whose explicit
    # residual passes the gate, each step cutting it by 20 to 50: 5 steps
    # of 3 columns at level 3, and 4 at level 5; at level 4 the two
    # hyperplane sections pass after 4 (5.9e-9) and the others after 5
    # (2.6e-8 after 4 on the counterexample)
    imm, _, _ = _build_case(RunConfig(case=case))
    spec = solve_lambda1(assemble_pencil(build_icosphere_mesh(level), imm))
    hyperplane = case in ("sphere-hyperplane", "lightlike-hyperplane")
    assert spec.iterations == {3: 15, 4: 12 if hyperplane else 15, 5: 12}[level]


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("case", CASES)
def test_lambda1_matches_colamd_oracle(case, level):
    imm, _, _ = _build_case(RunConfig(case=case))
    pen = assemble_pencil(build_icosphere_mesh(level), imm)
    spec = solve_lambda1(pen)
    assert spec.lambda1 == pytest.approx(lambda1_colamd(pen), rel=1e-10)
    assert spec.residual <= TAU_EIG


def test_lambda1_level6_matches_fine_factor_oracle():
    pen = assemble_pencil(build_icosphere_mesh(6), CounterexampleSphere(2))
    spec = solve_lambda1(pen)
    assert spec.lambda1 == pytest.approx(lambda1_fine_factor(pen), rel=1e-10)


def test_unattainable_tolerance_raises_quickly(monkeypatch):
    pen = assemble_pencil(build_icosphere_mesh(2), CounterexampleSphere(2))
    monkeypatch.setattr(lorentzlab.fem, "TAU_EIG", 1e-20)
    start = time.perf_counter()
    with pytest.raises(EigenSolveError):
        solve_lambda1(pen)
    assert time.perf_counter() - start < 5.0


def test_solves_stay_silent_and_unreachable_tolerances_raise(monkeypatch):
    # the solve stops at the gate, which float64 products either pass or
    # not: an unreachable gate ends in EigenSolveError, neither warns
    grid = [(2, level) for level in range(1, 6)] + [(1, level) for level in range(8)]
    for n, level in grid:
        for case in CASES:
            imm, _, _ = _build_case(RunConfig(case=case, n=n))
            pen = assemble_pencil(_build_mesh(imm.n, level), imm)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve_lambda1(pen)
                with monkeypatch.context() as patch, pytest.raises(EigenSolveError):
                    patch.setattr(lorentzlab.fem, "TAU_EIG", 1e-20)
                    solve_lambda1(pen)
            assert not caught, (case, n, level, [str(w.message) for w in caught])


@pytest.mark.parametrize("n, level", [(1, 3), (1, 7), (2, 3), (2, 4), (2, 6)])
@pytest.mark.parametrize("case", CASES)
def test_solve_stops_at_the_first_residual_that_passes_the_gate(case, n, level):
    imm, _, _ = _build_case(RunConfig(case=case, n=n))
    spec = solve_lambda1(assemble_pencil(_build_mesh(n, level), imm))
    *before, last = spec.residuals
    assert last == spec.residual <= TAU_EIG
    assert all(r > TAU_EIG for r in before)
    # every step lowers the residual: a step that does not ends the solve
    assert all(a > b for a, b in zip(spec.residuals, spec.residuals[1:]))
    # one preconditioned block of n + 1 columns between two residuals
    assert spec.iterations == (n + 1) * len(before)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("k", (-3, 1, 5))
def test_dilated_pencil_gives_lambda1_over_r_squared_bitwise(n, k):
    # the solve normalises K and M by powers of two; a sphere of radius
    # r = 2^k scales them by r^(n - 2) and r^n exactly, so it iterates on
    # the same bits as r = 1
    def solve(radius):
        imm, _, _ = _build_case(RunConfig(case="sphere-hyperplane", n=n, radius=radius))
        return solve_lambda1(assemble_pencil(_build_mesh(n, 3), imm))

    r = 2.0**k
    unit, dilated = solve(1.0), solve(r)
    assert dilated.lambda1 * r**2 == unit.lambda1
    assert (dilated.iterations, dilated.residuals) == (unit.iterations, unit.residuals)


def test_rayleigh_ritz_breakdown_restarts_without_p_then_raises(monkeypatch):
    eigh = scipy.linalg.eigh
    widths = []

    def failing_with_p(a, b):
        widths.append(len(a))
        if len(a) == 9 and widths.count(9) == 1:
            raise np.linalg.LinAlgError("synthetic breakdown")
        return eigh(a, b)

    pen = assemble_pencil(build_icosphere_mesh(3), CounterexampleSphere(2))
    reference = solve_lambda1(pen)
    monkeypatch.setattr(scipy.linalg, "eigh", failing_with_p)
    spec = solve_lambda1(pen)
    # the first step with P broke down and was redone on [X, W]
    assert widths[:4] == [3, 6, 9, 6]
    assert spec.residual <= TAU_EIG
    assert spec.lambda1 == pytest.approx(reference.lambda1, rel=1e-10)

    def failing(a, b):
        if len(a) > 3:
            raise np.linalg.LinAlgError("synthetic breakdown")
        return eigh(a, b)

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    with pytest.raises(EigenSolveError, match="breakdown after 3 solves"):
        solve_lambda1(pen)


def test_lambda1_convergence_through_level5():
    errors = []
    for level in (2, 3, 4, 5):
        pen = assemble_pencil(build_icosphere_mesh(level), unit_sphere())
        spec = solve_lambda1(pen)
        errors.append(abs(spec.lambda1 - 2.0) / 2.0)
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 5e-3


def test_discrete_minimum_principle_exact():
    mesh = build_icosphere_mesh(3)
    pen = assemble_pencil(mesh, CounterexampleSphere(2))
    spec = solve_lambda1(pen)
    rng = np.random.default_rng(12)
    ones = np.ones(pen.stiffness.shape[0])
    m_ones = pen.mass @ ones
    vol = float(m_ones @ ones)
    for _ in range(20):
        f = rng.standard_normal(pen.stiffness.shape[0])
        f -= (m_ones @ f) / vol  # mass-weighted mean zero
        energy = float(f @ (pen.stiffness @ f))
        mass = float(f @ (pen.mass @ f))
        assert energy >= spec.lambda1 * mass * (1.0 - 1e-9)


# --- discrete laplacian and gradients -----------------------------------------


def test_laplacian_constant_field_vanishes():
    mesh = build_icosphere_mesh(3)
    pen = assemble_pencil(mesh, unit_sphere())
    out = apply_discrete_laplacian(pen, np.ones(pen.stiffness.shape[0]))
    assert np.abs(out).max() < 1e-10


def test_laplacian_coordinate_and_cosh_fields():
    # pointwise errors stagnate at the twelve irregular vertices, so the
    # refinement statement is in the mesh L2 norm
    def l2(pen, values):
        return math.sqrt(float(pen.geometry.lumped @ values**2) / pen.geometry.lumped.sum())

    errors = []
    for level in (2, 3, 4):
        mesh = build_icosphere_mesh(level)
        pen = assemble_pencil(mesh, unit_sphere())
        y = mesh.vertices[:, 1]
        errors.append(l2(pen, apply_discrete_laplacian(pen, y) + 2.0 * y))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 2e-2

    mesh = build_icosphere_mesh(4)
    pen = assemble_pencil(mesh, unit_sphere())
    t = mesh.vertices[:, 0]
    out_cosh = apply_discrete_laplacian(pen, np.cosh(t))
    target = -2.0 * t * np.sinh(t) + (1.0 - t * t) * np.cosh(t)
    assert l2(pen, out_cosh - target) <= 2e-2


def test_beltrami_residual_decreases_for_gallery():
    for imm in closed_h_gallery():
        values = []
        for level in (2, 3, 4):
            pencil = assemble_pencil(build_icosphere_mesh(level), imm)
            values.append(beltrami_residual(pencil, mean_curvature_vertices(imm, pencil)))
        assert values[0] > values[1] > values[2]


def test_beltrami_residual_decreases_on_circle():
    imm = CounterexampleSphere(1)
    values = []
    for level in (2, 3, 4):
        mesh = build_circle_mesh(level)
        pencil = assemble_pencil(mesh, imm)
        values.append(beltrami_residual(pencil, mean_curvature_vertices(imm, pencil)))
    assert values[0] > values[1] > values[2]


def test_gradient_squared_examples():
    mesh = build_circle_mesh(4)
    imm = HyperplaneSphere(1, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    geom, _ = mesh_geometry(mesh, imm)
    const = gradient_squared_per_element(geom, np.ones(mesh.num_vertices))
    assert np.abs(const).max() < 1e-20

    theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    grads = gradient_squared_per_element(geom, np.sin(theta))
    assert float(geom.volumes @ grads) == pytest.approx(math.pi, rel=1e-3)


def test_gradient_rayleigh_of_height_coordinate():
    mesh = build_icosphere_mesh(4)
    imm = unit_sphere()
    geom, _ = mesh_geometry(mesh, imm)
    t = mesh.vertices[:, 0]
    grads = gradient_squared_per_element(geom, t)
    num = float(geom.volumes @ grads)
    den = float(geom.lumped @ (t * t))
    assert num / den == pytest.approx(2.0, rel=5e-3)


def test_gradient_shape_guard():
    mesh = build_icosphere_mesh(2)
    with pytest.raises(UsageError):
        gradient_squared_per_element(mesh_geometry(mesh, unit_sphere())[0], np.ones(3))
