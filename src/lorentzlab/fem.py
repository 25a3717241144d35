"""P1 finite elements for the Laplace operator of the induced metric.

Element metrics are the Lorentz Gram matrices of immersed edge-chord
vectors, so assembly never touches a chart. The stiffness form equals the
summed per-element gradient energy exactly, and the consistent mass
integrates products of P1 interpolants exactly; these two facts make the
discrete minimum principle exact and are relied on by the bounds layer.

Assembly is vectorized with a fixed reduction order, so matrices are
reproducible bit for bit. The eigensolver iterates in float64 on a
two-grid preconditioner whose coarse solve is a float32 factor of the
mesh's coarse level, in the order the mesh numbers it and scaled exactly
by a power of two; only its float64 residual gate accepts lambda1. A
mesh without a coarse level (level 0) is solved densely. The solver
starts no thread of its own, but its dense products run in the BLAS,
whose sums depend on the BLAS thread count: lambda1 is fixed bit for bit
only for a fixed count (the level-6 counterexample gives
2.0001532405046913 at two OpenBLAS threads and 2.000153240504676 at
one). Independent solves may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lobpcg, splu

from .errors import EigenSolveError, NotSpacelikeError, UsageError
from .meshes import ParamMesh
from .minkowski import metric_signs

TAU_EIG = 1e-8

# the preconditioner works on K + FACTOR_SHIFT tr(K)/tr(M) M; solve_lambda1
# derives the value from float32 rounding of its coarse factor
FACTOR_SHIFT = 1e-6

# damped-Jacobi sweeps before and after the coarse correction
SWEEPS = 2

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
    """The immersed mesh's geometry and the (E, n, n) inverse Lorentz Gram
    of each element's edge chords, which only assembly reads."""
    positions = imm.eval(mesh.vertices)
    simplices = mesh.simplices
    n = mesh.n
    chords = positions[simplices[:, 1:]] - positions[simplices[:, :1]]
    # the Lorentz Gram entry by entry, each summed from zero over the
    # coordinates in order: the sums the einsum "eam,m,ebm->eab" forms, bit
    # for bit, as scaling by a sign (+-1) is exact and products commute;
    # only (E,) temporaries, where scaling all chords at once would copy them
    signs = metric_signs(imm.m)
    gram = np.zeros((len(chords), n, n))
    for a, b in zip(*np.triu_indices(n)):
        for i in range(imm.m):
            gram[:, a, b] += signs[i] * chords[:, a, i] * chords[:, b, i]
        gram[:, b, a] = gram[:, a, b]

    if n == 1:
        g = gram[:, 0, 0]
        bad = np.nonzero(g <= 0)[0]
        if bad.size:
            raise NotSpacelikeError(
                f"element {bad[0]} is not spacelike; mesh too coarse"
            )
        volumes = np.sqrt(g)
        gram_inv = (1.0 / g)[:, None, None]
    elif n == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        # a determinant that is not a positive normal float is either not
        # positive or under- or overflowed: the scale of the Gram entries,
        # whose products it sums, tells which
        finfo = np.finfo(float)
        bad = np.nonzero((gram[:, 0, 0] <= 0) | ~((det >= finfo.tiny) & (det <= finfo.max)))[0]
        if bad.size:
            scale = np.abs(gram[bad]).max(axis=(1, 2))
            out = np.nonzero(~((scale >= np.sqrt(finfo.tiny)) & (scale <= np.sqrt(finfo.max))))[0]
            if out.size:
                raise UsageError(f"element {bad[out[0]]} has metric scale {scale[out[0]]:.3g}, "
                                 "out of range: its squares under- or overflow float64")
            raise NotSpacelikeError(f"element {bad[0]} is not spacelike; mesh too coarse")
        volumes = np.sqrt(det) / 2.0
        gram_inv = np.empty_like(gram)
        gram_inv[:, 0, 0] = gram[:, 1, 1] / det
        gram_inv[:, 1, 1] = gram[:, 0, 0] / det
        gram_inv[:, 0, 1] = -gram[:, 0, 1] / det
        gram_inv[:, 1, 0] = -gram[:, 1, 0] / det
    else:
        raise UsageError(f"unsupported intrinsic dimension {n}")

    # bincount adds element by element, in the order np.add.at would
    lumped = np.bincount(simplices.ravel(), np.repeat(volumes / (n + 1), n + 1), mesh.num_vertices)
    geometry = MeshGeometry(
        mesh=mesh,
        positions=positions,
        volumes=volumes,
        lumped=lumped,
        total_volume=float(volumes.sum()),
    )
    return geometry, gram_inv


def _difference_matrix(n: int) -> np.ndarray:
    d = np.zeros((n, n + 1))
    d[:, 0] = -1.0
    d[np.arange(n), np.arange(1, n + 1)] = 1.0
    return d


@dataclass
class FEMPencil:
    """Stiffness/mass pair for the generalized eigenproblem K f = lambda M f."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    geometry: MeshGeometry


def assemble_pencil(mesh: ParamMesh, imm) -> FEMPencil:
    """Assemble P1 stiffness and consistent mass under the chord metric.

    Both matrices come from one COO pattern, and the conversion to CSR
    sorts and sums a pattern the same way whatever its values, so the mass
    shares the stiffness's `indices` and `indptr` arrays. Nothing may sort
    or prune either matrix in place.
    """
    geom, gram_inv = mesh_geometry(mesh, imm)
    n = mesh.n
    k = mesh.num_vertices
    # the index type scipy would convert to, so coo_matrix keeps these arrays
    simplices = mesh.simplices.astype(np.int32)
    rows = np.repeat(simplices, n + 1, axis=1).ravel()
    cols = np.tile(simplices, (1, n + 1)).ravel()
    del simplices

    diff = _difference_matrix(n)
    k_loc = diff.T @ ((gram_inv * geom.volumes[:, None, None]) @ diff)
    del gram_inv
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
    """Smallest nonzero eigenvalue with solver diagnostics."""

    lambda1: float
    iterations: int
    residual: float
    near_degenerate: bool


def prolongation(mesh: ParamMesh) -> sp.csr_matrix:
    """P1 interpolation from `mesh.coarse` to `mesh`: weight 1/2 at each of
    a vertex's two parents, so a copy of a coarse vertex takes its value
    and a midpoint the mean of its edge's ends."""
    k = mesh.num_vertices
    rows = np.repeat(np.arange(k), 2)
    return sp.csr_matrix(
        (np.full(2 * k, 0.5), (rows, mesh.parents.ravel())), shape=(k, mesh.coarse.num_vertices)
    )


def solve_lambda1(pencil: FEMPencil, tol: float = TAU_EIG) -> Spectrum:
    """Smallest nonzero generalized eigenvalue of (K, Mass).

    Block LOBPCG (Knyazev 2001) with the constant vector as its
    constraint, started from the n + 1 parameter coordinates: they span
    the lambda1 eigenspace of a round sphere, so they nearly span the
    discrete cluster of every immersion isometric to one, and the whole
    cluster is resolved together; the second Ritz value only feeds the
    near-degenerate flag. LOBPCG stops on absolute residuals of
    mass-normalised vectors, so it is asked for a tenth of the gate in
    those units, as the start block measures them; the float64 relative
    residual is then checked against `tol`, and only that gate accepts
    lambda1. The request never goes below what float64 can reach:
    rounding K x leaves a residual of about eps tr(K)/tr(M) |x| against a
    gate denominator of about lambda |M x|, so the request is at least
    14 eps tr(K)/tr(M) / lambda in gate units, with lambda the smallest
    start Rayleigh quotient. LOBPCG stops on residuals it updates by
    recurrence and then reports explicit ones, which have come out at up
    to 11.8 eps tr(K)/tr(M) / lambda (lightlike-hyperplane, level 2);
    14 stays below the default request through level 7 at n = 1 and 2.
    Below that floor LOBPCG would only exhaust its iterations and warn; an
    unreachable `tol` is reported by the gate alone. A pencil on a mesh
    without a coarse level (level 0: 12 or 16 vertices) is solved
    densely: its deflated space is too small for the block to iterate in.

    The preconditioner is a symmetric two-grid cycle for A = K + s M
    (Briggs, Henson & McCormick, A Multigrid Tutorial): SWEEPS
    damped-Jacobi sweeps on the float64 A, the coarse correction
    P A_c^-1 P', then SWEEPS sweeps again. P is `prolongation` from the
    mesh one subdivision down, and A_c = P' A P is the Galerkin operator,
    SPD and so factored in float32 without pivoting, in the order the
    coarse mesh is numbered in: its nested-dissection order. A_c and each
    block of coarse right-hand sides are cast after scaling by the power
    of two that brings their largest entry into [1/2, 1), undone after
    the solve: that is exact, and at n = 1, where A scales as 1/r, it
    keeps extreme radii in the float32 range. Each
    iteration cycles its block of active residuals at once, with one
    factor solve, and `iterations` counts the cycled columns. The damping
    is omega = 4 / (3 rho), with rho = max_i sum_j |a_ij| / a_ii: by
    Gershgorin rho bounds the spectrum of D^-1 A, so omega rho < 2, each
    sweep contracts in the A norm and the cycle is SPD for every pencil.

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
    k = K.shape[0]
    mesh = pencil.geometry.mesh
    nev = mesh.n + 1
    solves = 0

    if mesh.coarse is None:
        try:
            ritz, vectors = scipy.linalg.eigh(K.toarray(), M.toarray())
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(f"dense eigensolve failed: {exc}") from exc
        # the zero eigenvalue (constant mode) comes first
        ritz, vectors = ritz[1 : nev + 1], vectors[:, 1 : nev + 1]
    else:
        ones = np.ones((k, 1))
        m_ones = M @ ones
        diag_ratio = K.diagonal().sum() / max(M.diagonal().sum(), 1e-300)
        # K and M share one pattern, so K + s M is a sum of data arrays;
        # the sparse sum would build its own pattern
        shifted = sp.csr_matrix(
            (K.data + (FACTOR_SHIFT * diag_ratio) * M.data, K.indices, K.indptr), shape=K.shape
        )
        P = prolongation(mesh)
        # the coarse level is numbered in its nested-dissection order, so
        # the Galerkin operator is factored as it comes; it is symmetric,
        # so its CSR arrays are its CSC arrays
        galerkin = (P.T @ shifted @ P).tocsr().T
        _, factor_exp = np.frexp(np.abs(galerkin.data).max())
        np.ldexp(galerkin.data, -factor_exp, out=galerkin.data)
        galerkin = galerkin.astype(np.float32, copy=False)
        try:
            lu = splu(
                galerkin,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # pragma: no cover - singular pencil
            raise EigenSolveError(f"factorization failed: {exc}") from exc
        del galerkin
        diagonal = shifted.diagonal()
        magnitude = sp.csr_matrix((np.abs(shifted.data), K.indices, K.indptr), shape=K.shape)
        rho = float(np.max(magnitude @ np.ones(k) / diagonal))
        del magnitude
        damped = ((4.0 / (3.0 * rho)) / diagonal)[:, None]

        # x = None stands for the zero start of the cycle
        def correct(x, b, step):
            """x + step(b - A x)."""
            if x is None:
                return step(b)
            x += step(b - shifted @ x)
            return x

        def jacobi(r):
            return damped * r

        def coarse_solve(r):
            r = P.T @ r
            _, exp = np.frexp(np.abs(r).max())
            np.ldexp(r, -exp, out=r)
            r[...] = lu.solve(np.asfortranarray(r, dtype=np.float32))
            return P @ np.ldexp(r, exp - factor_exp, out=r)

        # lobpcg takes a LinearOperator preconditioner in every supported
        # scipy; it only ever applies it to (k, c) blocks, Fortran-ordered
        def two_grid(block):
            nonlocal solves
            b = np.ascontiguousarray(block.reshape(k, -1))
            solves += b.shape[1]
            x = None
            for _ in range(SWEEPS):
                x = correct(x, b, jacobi)
            x = correct(x, b, coarse_solve)
            for _ in range(SWEEPS):
                x = correct(x, b, jacobi)
            # in the block's memory layout, which LOBPCG's products round by
            out = np.empty_like(block)
            out[...] = x.reshape(block.shape)
            return out

        start = mesh.vertices
        start = start - (m_ones.T @ start) / m_ones.sum()
        m_start = M @ start
        start_mass = np.einsum("ij,ij->j", start, m_start)
        rayleigh = np.einsum("ij,ij->j", start, K @ start) / start_mass
        # the gate's denominator for a mass-normalised vector: about lambda |M x|
        m_norm = np.linalg.norm(m_start, axis=0) / np.sqrt(start_mass)
        gate_scale = float(np.min(rayleigh * m_norm))
        floor = 14.0 * np.finfo(float).eps * diag_ratio / float(np.min(rayleigh))
        try:
            ritz, vectors = lobpcg(
                K,
                start,
                B=M,
                M=LinearOperator((k, k), matvec=two_grid, matmat=two_grid, dtype=float),
                Y=ones,
                tol=max(0.1 * tol, floor) * gate_scale,
                largest=False,
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise EigenSolveError(f"LOBPCG iteration failed: {exc}") from exc
    order = np.argsort(ritz)
    ritz = ritz[order]
    lam = float(ritz[0])
    x = vectors[:, order[0]]
    kx = K @ x
    mx = M @ x
    scale = max(float(np.linalg.norm(kx)), lam * float(np.linalg.norm(mx)), 1e-300)
    residual = float(np.linalg.norm(kx - lam * mx)) / scale
    if not residual <= tol:
        raise EigenSolveError(
            f"no convergence after {solves} solves (residual {residual:.3e})"
        )

    near_degenerate = bool(abs(float(ritz[1]) - lam) <= 10.0 * tol * max(lam, 1.0))
    if lam <= 0:
        raise EigenSolveError(f"nonpositive eigenvalue {lam}")
    return Spectrum(
        lambda1=lam,
        iterations=solves,
        residual=residual,
        near_degenerate=near_degenerate,
    )
