"""P1 finite elements for the Laplace operator of the induced metric.

Element metrics are the Lorentz Gram matrices of immersed edge-chord
vectors, so assembly never touches a chart. The stiffness form equals the
summed per-element gradient energy exactly, and the consistent mass
integrates products of P1 interpolants exactly; these two facts make the
discrete minimum principle exact and are relied on by the bounds layer.

Assembly is vectorized with a fixed reduction order, so matrices are
reproducible bit for bit. The eigensolver is the package's block LOBPCG,
iterating in float64 on the pencil normalised by powers of two, with a
two-grid preconditioner whose coarse solve is a float32 factor of the
mesh's coarse level, in the order the mesh numbers it, or of the mesh
itself at level 0; it stops as soon as its float64 residual gate accepts
lambda1, at every level. The solver starts no thread of its own, and its
sums over the vertices are `gemm`s of at least two columns or einsums,
whose order does not depend on the BLAS thread count: lambda1 is the
same bit for bit at any count.
Independent solves may run concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import EigenSolveError, NotSpacelikeError, UsageError
from .meshes import ParamMesh
from .minkowski import metric_signs, vertex_sum

TAU_EIG = 1e-8

# the preconditioner works on K + FACTOR_SHIFT tr(K)/tr(M) M; solve_lambda1
# derives the value from float32 rounding of its coarse factor
FACTOR_SHIFT = 1e-6

# damped-Jacobi sweeps before and after the coarse correction
SWEEPS = 2

# preconditioned LOBPCG steps before the solve gives up; the shipped cases
# pass the gate within 5 through level 11, each step lowering the residual
MAX_STEPS = 20

__all__ = [
    "TAU_EIG",
    "MeshGeometry",
    "mesh_geometry",
    "FEMPencil",
    "assemble_pencil",
    "Spectrum",
    "prolongation",
    "solve_lambda1",
]


@dataclass
class MeshGeometry:
    """Immersed positions plus per-element metric data."""

    mesh: ParamMesh
    positions: np.ndarray  # (k, m)
    volumes: np.ndarray  # (E,)
    lumped: np.ndarray  # (k,)
    total_volume: float


def mesh_geometry(mesh: ParamMesh, imm):
    """The immersed mesh's geometry and each element's energy matrix
    A_T = vol_T G_T^-1, with G_T the Lorentz Gram of its edge chords, which
    only assembly reads: an n x n nested list of (E,) entries whose lower
    triangle shares the upper's arrays. The Gram is formed one ambient
    coordinate at a time from (E,) chord arrays: no (E, n, m) chord or
    (E, n, n) Gram array is made."""
    positions = imm.eval(mesh.vertices)
    n = mesh.n
    signs = metric_signs(imm.m)
    if n not in (1, 2):
        raise UsageError(f"unsupported intrinsic dimension {n}")
    corners = [np.ascontiguousarray(mesh.simplices[:, c]) for c in range(n + 1)]
    pairs = list(zip(*np.triu_indices(n)))
    gram = {pair: np.zeros(len(corners[0])) for pair in pairs}
    # each entry is summed from zero over the coordinates in order: the
    # sums the einsum "eam,m,ebm->eab" forms, bit for bit, as subtracting a
    # product adds it times the sign -1 and products commute. An entry, or
    # the n = 2 determinant, may under- or overflow: the check below
    # refuses it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for i, sign in enumerate(signs):
            x = np.ascontiguousarray(positions[:, i])
            base = x[corners[0]]
            chords = [x[c] - base for c in corners[1:]]
            accumulate = np.add if sign > 0 else np.subtract
            for a, b in pairs:
                accumulate(gram[a, b], chords[a] * chords[b], out=gram[a, b])
        g00 = gram[0, 0]
        det = g00 if n == 1 else g00 * gram[1, 1] - gram[0, 1] * gram[0, 1]
    # a determinant that is not a positive normal float is either not
    # positive or under- or overflowed: the scale of the Gram entries,
    # whose products it sums, tells which; an exactly zero Gram has
    # cancelled (as -dh^2 + dh^2 does), not under- or overflowed
    finfo = np.finfo(float)
    bad = np.nonzero((g00 <= 0) | ~((det >= finfo.tiny) & (det <= finfo.max)))[0]
    if bad.size:
        scale = np.max([np.abs(entry[bad]) for entry in gram.values()], axis=0)
        in_range = (scale >= np.sqrt(finfo.tiny)) & (scale <= np.sqrt(finfo.max))
        out = np.nonzero(~(in_range | (scale == 0)))[0]
        if out.size:
            raise UsageError(f"element {bad[out[0]]} has metric scale {scale[out[0]]:.3g}, "
                             "out of range: its squares under- or overflow float64")
        raise NotSpacelikeError(f"element {bad[0]} is not spacelike; mesh too coarse")
    if n == 1:
        volumes = np.sqrt(det)
        energy = [[(1.0 / det) * volumes]]
    else:
        volumes = np.sqrt(det) / 2.0
        # the adjugate over the determinant, then scaled by the volume
        a01 = (-gram[0, 1] / det) * volumes
        energy = [[(gram[1, 1] / det) * volumes, a01], [a01, (g00 / det) * volumes]]

    # bincount adds element by element, in the order np.add.at would
    lumped = np.bincount(mesh.simplices.ravel(), np.repeat(volumes / (n + 1), n + 1), mesh.num_vertices)
    geometry = MeshGeometry(
        mesh=mesh,
        positions=positions,
        volumes=volumes,
        lumped=lumped,
        total_volume=float(volumes.sum()),
    )
    return geometry, energy


@dataclass
class FEMPencil:
    """Stiffness/mass pair for the generalized eigenproblem K f = lambda M f."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    geometry: MeshGeometry


def assemble_pencil(mesh: ParamMesh, imm) -> FEMPencil:
    """Assemble P1 stiffness and consistent mass under the chord metric.

    Each element's stiffness D'A_T D, with D = [-1 | I] its edge-difference
    matrix and A_T its energy matrix from `mesh_geometry`, is written in
    closed form, [[1'A1, -1'A], [-A1, A]], one (E,) entry at a time. Both
    matrices come from one COO pattern, and the conversion to CSR
    sorts and sums a pattern the same way whatever its values, so the mass
    shares the stiffness's `indices` and `indptr` arrays. Nothing may sort
    or prune either matrix in place.
    """
    geom, energy = mesh_geometry(mesh, imm)
    n = mesh.n
    k = mesh.num_vertices
    # the index type scipy would convert to, so coo_matrix keeps these arrays
    simplices = mesh.simplices.astype(np.int32)
    rows = np.repeat(simplices, n + 1, axis=1).ravel()
    cols = np.tile(simplices, (1, n + 1)).ravel()
    del simplices

    # the sums the products D'(AD) form, bit for bit: A is symmetric, D's
    # entries are 0 and +-1 and each sum has at most two nonzero terms
    k_loc = np.empty((len(geom.volumes), n + 1, n + 1))
    row_sums = [functools.reduce(np.add, row) for row in energy]
    k_loc[:, 0, 0] = functools.reduce(np.add, row_sums)
    for a in range(n):
        k_loc[:, 0, a + 1] = k_loc[:, a + 1, 0] = -row_sums[a]
        for b in range(n):
            k_loc[:, a + 1, b + 1] = energy[a][b]
    del energy, row_sums
    stiffness = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(k, k)).tocsr()
    del k_loc
    m_loc = (np.ones((n + 1, n + 1)) + np.eye(n + 1)) / ((n + 1) * (n + 2))
    m_loc = geom.volumes[:, None, None] * m_loc
    mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(k, k)).tocsr()
    del m_loc, rows, cols
    # tocsr compacts its result while its full-size arrays still live, so
    # the results sit above the heap space those arrays and the COO arrays
    # freed; copies made now fill that space, and the heap can shrink
    stiffness.data, mass.data = stiffness.data.copy(), mass.data.copy()
    stiffness.indices, stiffness.indptr = stiffness.indices.copy(), stiffness.indptr.copy()
    mass.indices, mass.indptr = stiffness.indices, stiffness.indptr
    return FEMPencil(stiffness=stiffness, mass=mass, geometry=geom)


@dataclass
class Spectrum:
    """Smallest nonzero eigenvalue with solver diagnostics: `residuals` is
    the gate's residual after each Rayleigh-Ritz step, the last one passing."""

    lambda1: float
    iterations: int
    residuals: tuple[float, ...]
    near_degenerate: bool

    @property
    def residual(self) -> float:
        return self.residuals[-1]


def prolongation(mesh: ParamMesh) -> sp.csr_matrix:
    """P1 interpolation from `mesh.coarse` to `mesh`: weight 1/2 at each of
    a vertex's two parents, so a copy of a coarse vertex takes its value
    and a midpoint the mean of its edge's ends. A mesh without a coarse
    level (level 0) is its own coarse level: P = I."""
    k = mesh.num_vertices
    if mesh.coarse is None:
        return sp.identity(k, format="csr")
    rows = np.repeat(np.arange(k), 2)
    return sp.csr_matrix(
        (np.full(2 * k, 0.5), (rows, mesh.parents.ravel())), shape=(k, mesh.coarse.num_vertices)
    )


def _scaled_product(matrix, exp: int):
    """x -> 2^-exp (matrix @ x), into `out` when given: the product with
    the normalised matrix, which is never stored."""

    def product(x, out=None):
        y = matrix @ x
        return np.ldexp(y, -exp, out=y if out is None else out)

    return product


def _gate_residual(k_times, m_times, x, lam) -> float:
    """|K x - lam M x| / max(|K x|, lam |M x|), from explicit products."""
    kx, mx = k_times(x), m_times(x)
    r = kx - lam * mx
    scale = max(np.sqrt(vertex_sum(kx, kx)), lam * np.sqrt(vertex_sum(mx, mx)), 1e-300)
    return float(np.sqrt(vertex_sum(r, r)) / scale)


def _two_grid(mesh: ParamMesh, K, M, k_exp: int):
    """The symmetric two-grid cycle for 2^-k_exp (K + s M), as a map from a
    (k, c) block of residuals to a C-ordered (k, c) block (see
    `solve_lambda1`)."""
    diag_ratio = K.diagonal().sum() / max(M.diagonal().sum(), 1e-300)
    # K and M share one pattern, so K + s M is a sum of data arrays; the
    # sparse sum would build its own pattern
    data = K.data + (FACTOR_SHIFT * diag_ratio) * M.data
    shifted = sp.csr_matrix((np.ldexp(data, -k_exp, out=data), K.indices, K.indptr), shape=K.shape)
    P = prolongation(mesh)
    # the coarse level is numbered in its nested-dissection order, so the
    # Galerkin operator is factored as it comes, and dropped once factored;
    # it is symmetric, so its CSR arrays are its CSC arrays
    try:
        lu = splu(
            (P.T @ shifted @ P).tocsr().T.astype(np.float32),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # pragma: no cover - singular pencil
        raise EigenSolveError(f"factorization failed: {exc}") from exc
    diagonal = shifted.diagonal()
    magnitude = sp.csr_matrix((np.abs(shifted.data), K.indices, K.indptr), shape=K.shape)
    rho = float(np.max(magnitude @ np.ones(K.shape[0]) / diagonal))
    del magnitude
    damped = ((4.0 / (3.0 * rho)) / diagonal)[:, None]

    def two_grid(block):
        # C order, in which the sparse products read their blocks
        b = np.ascontiguousarray(block)
        x = damped * b
        for _ in range(SWEEPS - 1):
            x += damped * (b - shifted @ x)
        x += P @ lu.solve(np.asfortranarray(P.T @ (b - shifted @ x), dtype=np.float32))
        for _ in range(SWEEPS):
            x += damped * (b - shifted @ x)
        return x

    return two_grid


def _lobpcg(k_times, m_times, precondition, start):
    """Block LOBPCG for the smallest eigenpairs of (K, M) orthogonal to the
    constant vector, from the (k, b) start block, until the smallest Ritz
    pair passes the gate: its ascending Ritz values, the gate residual
    after each Rayleigh-Ritz step and the number of cycled columns. A step
    whose residual is not below the previous one ends the solve.

    X, W and P live in the columns of one (k, 3b) workspace, with M and K
    times it beside it. W and P are M-orthonormalised by Cholesky before
    each Rayleigh-Ritz step on [X, W, P]; a breakdown there drops P, and a
    second one ends the solve."""
    k, b = start.shape
    basis = np.empty((k, 3 * b), order="F")  # [X | W | P]
    m_basis = np.empty_like(basis)
    k_basis = np.empty_like(basis)
    x_cols, w_cols, p_cols = slice(0, b), slice(b, 2 * b), slice(2 * b, 3 * b)
    m_ones = m_times(np.ones(k))
    m_total = m_ones.sum()

    def deflate(cols):
        """Remove the constant vector's M-component from a block."""
        basis[:, cols] -= vertex_sum(m_ones, basis[:, cols]) / m_total

    def orthonormalize(cols, arrays):
        """Right-multiply a block of each array by L^-T, with L L' the
        block's M-Gram."""
        chol = scipy.linalg.cholesky(basis[:, cols].T @ m_basis[:, cols], lower=True)
        inverse = scipy.linalg.solve_triangular(chol, np.eye(b), lower=True).T
        for array in arrays:
            array[:, cols] = array[:, cols] @ inverse

    def rayleigh_ritz(width):
        """Rayleigh-Ritz on the first `width` columns: X takes the b
        smallest Ritz vectors and P their component outside X."""
        cols = slice(0, width)
        ritz, coef = scipy.linalg.eigh(
            basis[:, cols].T @ k_basis[:, cols], basis[:, cols].T @ m_basis[:, cols]
        )
        coef = coef[:, :b]
        for array in (basis, m_basis, k_basis):
            direction = array[:, b:width] @ coef[b:]
            array[:, x_cols] = array[:, cols] @ coef
            array[:, p_cols] = direction
        return ritz[:b]

    # LAPACK's failures, and scipy's refusal of a Gram that is not finite
    breakdown = (np.linalg.LinAlgError, ValueError)
    basis[:, x_cols] = start
    deflate(x_cols)
    m_times(basis[:, x_cols], out=m_basis[:, x_cols])
    k_times(basis[:, x_cols], out=k_basis[:, x_cols])
    solves = 0
    try:
        ritz = rayleigh_ritz(b)
    except breakdown as exc:
        raise EigenSolveError(f"LOBPCG breakdown on the start block: {exc}") from exc
    residuals = []
    width = 2 * b
    for step in range(MAX_STEPS + 1):
        residuals.append(_gate_residual(k_times, m_times, basis[:, 0], ritz[0]))
        if residuals[-1] <= TAU_EIG:
            return ritz, residuals, solves
        if step == MAX_STEPS or (step and not residuals[-1] < residuals[-2]):
            break
        basis[:, w_cols] = precondition(k_basis[:, x_cols] - m_basis[:, x_cols] * ritz)
        solves += b
        deflate(w_cols)
        m_times(basis[:, w_cols], out=m_basis[:, w_cols])
        try:
            # a step restarted without P would break down in W again
            orthonormalize(w_cols, (basis, m_basis))
            k_times(basis[:, w_cols], out=k_basis[:, w_cols])
            try:
                if width > 2 * b:
                    orthonormalize(p_cols, (basis, m_basis, k_basis))
                ritz = rayleigh_ritz(width)
            except breakdown:
                ritz = rayleigh_ritz(2 * b)
        except breakdown as exc:
            raise EigenSolveError(f"LOBPCG breakdown after {solves} solves: {exc}") from exc
        width = 3 * b
    raise EigenSolveError(f"no convergence after {solves} solves (residual {residuals[-1]:.3e})")


def solve_lambda1(pencil: FEMPencil) -> Spectrum:
    """Smallest nonzero generalized eigenvalue of (K, Mass).

    Block LOBPCG (Knyazev 2001; Duersch, Shao, Yang & Gu 2018) with the
    constant vector as its constraint, started from the n + 1 parameter
    coordinates: they span the lambda1 eigenspace of a round sphere, so
    they nearly span the discrete cluster of every immersion isometric to
    one, and the whole cluster is resolved together; the second Ritz value
    only feeds the near-degenerate flag. The solve stops at the gate:
    after each Rayleigh-Ritz step on [X, W, P] the smallest Ritz pair's
    float64 relative residual |K x - lambda M x| / max(|K x|, lambda |M x|)
    is formed from explicit products, and lambda1 is accepted as soon as
    it is at most TAU_EIG. A solve still above it after MAX_STEPS
    preconditioned steps, or after a step whose residual is not below the
    previous one (the gate is then out of float64's reach), or whose
    Rayleigh-Ritz step breaks down even without P, raises EigenSolveError.
    X, W and P, and M and K times them, live in three (k, 3(n + 1)) arrays
    allocated once per solve. Every sum over the vertices is a `gemm` of
    at least two columns or an einsum (`vertex_sum`), whose order does not
    depend on the BLAS thread count.

    The iteration runs on 2^-a K and 2^-b M, with the largest entry of
    each in [1/2, 1): the scaling is exact, is applied to the products
    and undone on lambda, so every intermediate is of order one whatever
    the immersion's scale, and a pencil dilated by a power of two gives
    the same bits. A mesh whose deflated space is smaller than the
    3(n + 1)-column workspace, as a ring of 3 to 5 segments is (no CLI
    input builds one), leaves the block no room to grow: it is sure to
    pass only when its start block already passes the gate, as the
    regular rings' does.

    The preconditioner is a symmetric two-grid cycle for A = K + s M
    (Briggs, Henson & McCormick, A Multigrid Tutorial), scaled as K is:
    SWEEPS damped-Jacobi sweeps on the float64 A, the coarse correction
    P A_c^-1 P', then SWEEPS sweeps again. P is `prolongation` from the
    mesh one subdivision down, or the identity on a mesh without a coarse
    level (level 0), whose coarse correction is then an exact float32
    solve. A_c = P' A P is the Galerkin operator, SPD and so factored in
    float32 without pivoting, in the order the coarse mesh is numbered in:
    its nested-dissection order. A_c and the coarse right-hand sides are
    cast to float32 as they come: A is normalised as K is, so both are of
    order one at every radius, and a scaling by a power of two commutes
    with the cast and the solve, short of subnormals, so a scaling of
    their own would change no bit. Each step cycles its block of n + 1
    residuals at once, with one factor solve, and `iterations` counts the
    cycled columns. The damping is omega = 4 / (3 rho), with
    rho = max_i sum_j |a_ij| / a_ii: by Gershgorin rho bounds the spectrum
    of D^-1 A, so omega rho < 2, each sweep contracts in the A norm and
    the cycle is SPD for every pencil.

    The shift s keeps A_c positive definite after rounding to float32
    (unit roundoff u = 2^-24). Rounding moves each entry by at most
    u |c_jl|, so it moves x'A_c x by at most u sum_j r_j x_j^2, with
    r_j = sum_l |c_jl| the Gershgorin row sums of A_c
    (|x_j x_l| <= (x_j^2 + x_l^2) / 2). K is semidefinite and each
    element mass matrix dominates its lumped one over n + 2, so
    M >= diag(lumped) / (n + 2) and x'A_c x = (Px)'A(Px) >=
    s sum_i lumped_i (Px)_i^2 / (n + 2). Keep only the vertex i that
    copies coarse vertex j, where (Px)_i = x_j; the midpoint terms dropped
    are >= 0. So A_c stays definite when, to first order in u,

        s > u (n + 2) max_j r_j / lumped_j,

    with lumped_j the fine lumped mass at the copy of j. On the fine level
    (P = I) K rows sum to zero and lumped_i = (n + 2) M_ii / 2, so on a
    quasi-uniform mesh the bound is about 4 u max_i K_ii / M_ii, near
    2.4e-7 tr(K)/tr(M). A Galerkin row of the P1 stiffness has about the
    diagonal of a fine one, so the coarse bound is of the same size: the
    shipped meshes need at most 3.2e-7 tr(K)/tr(M) (n = 2, level 6).
    s = FACTOR_SHIFT tr(K)/tr(M) = 1e-6 tr(K)/tr(M) leaves a factor of
    three. Below the bound factors fail: at 1e-8 tr(K)/tr(M) the n = 1,
    level-3 sphere-hyperplane factor is exactly singular.
    """
    K = pencil.stiffness
    M = pencil.mass
    mesh = pencil.geometry.mesh
    k_exp = int(np.frexp(np.abs(K.data).max())[1])
    m_exp = int(np.frexp(np.abs(M.data).max())[1])
    k_times, m_times = _scaled_product(K, k_exp), _scaled_product(M, m_exp)

    precondition = _two_grid(mesh, K, M, k_exp)
    ritz, residuals, solves = _lobpcg(k_times, m_times, precondition, mesh.vertices)
    lam, second = (float(v) for v in np.ldexp(ritz[:2], k_exp - m_exp))
    if lam <= 0:
        raise EigenSolveError(f"nonpositive eigenvalue {lam}")
    return Spectrum(
        lambda1=lam,
        iterations=solves,
        residuals=tuple(residuals),
        near_degenerate=bool(abs(second - lam) <= 10.0 * TAU_EIG * max(lam, 1.0)),
    )
