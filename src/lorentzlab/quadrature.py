"""Integral identities over meshes, symmetry-reduced slices of round
spheres, and Monte Carlo integration over light-cone sections.

Mesh integrals use the lumped-mass vertex rule of the P1 assembly and read
its stiffness matrix for gradient energies and the Laplacian, so the
module needs numpy only. Slice integrals use Gauss-Jacobi rules sized to
be effectively exact for every shipped integrand. All routines are pure
and return plain numbers; Monte Carlo runs are deterministic per seed.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UsageError
from .minkowski import (
    SymBilinearForm,
    inner,
    require_unit_timelike,
    section_integral_exact,
    spacelike_complement_basis,
    sphere_integral_exact,
    unit_sphere_volume,
    vertex_sum,
)

SLICE_NODES = 64
# Monte Carlo samples are drawn and evaluated this many rows at a time; the
# section battery runs a check per CPU, each with its own block temporaries
MC_BLOCK = 8192

__all__ = [
    "MonteCarloCheck",
    "sphere_slice_integral",
    "mean_curvature_vertices",
    "minkowski_residual",
    "minkowski_projected_identities",
    "beltrami_residual",
    "monte_carlo_section_integral",
    "monte_carlo_sphere_integral",
]


class MonteCarloCheck(NamedTuple):
    """A Monte Carlo estimate against its closed form, in report order:
    z is |estimate - exact| in standard errors."""

    exact: float
    estimate: float
    stderr: float
    z: float


@functools.lru_cache(maxsize=None)
def _slice_rule(n: int):
    """`SLICE_NODES` Gauss-Jacobi nodes (ascending) and weights for
    (1-t^2)^{(n-2)/2} on [-1, 1]: closed-form Gauss-Chebyshev for n = 1,
    Gauss-Legendre for n = 2. Rules are computed once per n and returned
    read-only.
    """
    if n == 1:
        x = -np.cos((2 * np.arange(1, SLICE_NODES + 1) - 1) * (np.pi / (2 * SLICE_NODES)))
        w = np.full(SLICE_NODES, np.pi / SLICE_NODES)
    else:
        x, w = np.polynomial.legendre.leggauss(SLICE_NODES)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def sphere_slice_integral(n: int, phi) -> float:
    """Integral over the unit n-sphere, n = 1 or 2 (the dimensions that
    have meshes), of a function phi of the height t.

    phi is evaluated at the parameter points (t, sqrt(1-t^2), 0, ...), one
    per node, and must depend on the height only. Uses the slice reduction
    Vol(S^{n-1}) * int phi(t) (1-t^2)^{(n-2)/2} dt with a `SLICE_NODES`-point
    Gauss-Jacobi rule; exact to machine precision for polynomial phi up to
    the rule degree.
    """
    if n not in (1, 2):
        raise UsageError(f"slice integrals are available for n = 1 and n = 2 only, got n = {n}")
    x, w = _slice_rule(n)
    points = np.zeros((x.size, n + 1))
    points[:, 0] = x
    points[:, 1] = np.sqrt(1.0 - x * x)
    vals = np.asarray(phi(points), dtype=float)
    if not np.isfinite(vals).all():
        raise NumericalError("slice integrand produced non-finite values")
    return unit_sphere_volume(n - 1) * float(w @ vals)


def mean_curvature_vertices(imm, pencil) -> np.ndarray:
    """Closed-form mean curvature vector at every vertex of the pencil's mesh."""
    return imm.mean_curvature(pencil.geometry.mesh.vertices)


def minkowski_residual(geometry, h) -> float:
    """Residual of the volume identity: integral of 1 + <psi, H>.

    Vanishes on compact submanifolds; the discrete value measures
    quadrature plus discretization error.
    """
    density = 1.0 + inner(geometry.positions, h)
    return float(vertex_sum(geometry.lumped, density))


def minkowski_projected_identities(pencil, psi_hat, h, a) -> tuple[float, float]:
    """Residuals of the two projected-field integral identities.

    First: integral of 1 + <psi_a, H_a> - <psi,a><H,a>. Second: integral
    of <psi_a, H_a> plus Vol plus (1/n) integral of the squared tangential
    part of a. Both vanish in the continuum for the position field psi_hat
    centered at the gravity center. The tangential part of a is the
    gradient of s = <psi_hat, a>, so its squared integral is the
    stiffness form s'Ks. Since <psi_a, H_a> - <psi,a><H,a> = <psi, H>,
    the first does not depend on a.
    """
    a = require_unit_timelike(a)
    geometry = pencil.geometry
    s = inner(psi_hat, a)
    ha = inner(h, a)
    pos_a = psi_hat + s[:, None] * a
    h_a = h + ha[:, None] * a
    cross = inner(pos_a, h_a)

    first = float(vertex_sum(geometry.lumped, 1.0 + cross - s * ha))
    tangential = float(vertex_sum(s, pencil.stiffness @ s))
    cross_int = float(vertex_sum(geometry.lumped, cross))
    return first, cross_int + geometry.total_volume + tangential / geometry.mesh.n


def beltrami_residual(pencil, h) -> float:
    """L2 norm (componentwise Euclidean) of Delta_h psi - n H over the mesh.

    Delta_h is the lumped-mass Laplacian -K/lumped, signed so eigenfields
    satisfy Delta_h f = -lambda f. Needs the closed-form mean curvature H;
    measures the consistency of the discrete Laplacian.
    """
    geom = pencil.geometry
    lap = -(pencil.stiffness @ geom.positions) / geom.lumped[:, None]
    diff = lap - geom.mesh.n * h
    # squared after scaling by the power of two that brings its largest
    # entry into [1/2, 1), and unscaled after the square root: exact, so
    # the squares cannot overflow and the norm keeps its bits
    _, exp = np.frexp(np.abs(diff).max())
    diff_sq = (np.ldexp(diff, -exp, out=diff) ** 2).sum(axis=1)
    return float(np.ldexp(np.sqrt(vertex_sum(geom.lumped, diff_sq) / geom.total_volume), exp))


def _blocked_values(samples: int, values_of_block) -> np.ndarray:
    """Fill `samples` values `MC_BLOCK` rows at a time.

    The blocks draw from one generator in turn, so the samples are bit for
    bit those of one large draw, while memory stays bounded by the block.
    """
    if samples < 2:
        raise UsageError("need at least two Monte Carlo samples")
    vals = np.empty(samples)
    for start in range(0, samples, MC_BLOCK):
        stop = min(start + MC_BLOCK, samples)
        vals[start:stop] = values_of_block(stop - start)
    return vals


def _mean_and_std(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof 1) of `vals`, overwriting it
    with the squared deviations.

    The same operations as `vals.mean()` and `vals.std(ddof=1)`, so the same
    bits, without the deviation array that `std` allocates.
    """
    n = vals.size
    mean = vals.sum() / n
    vals -= mean
    np.multiply(vals, vals, out=vals)
    return float(mean), float(np.sqrt(vals.sum() / (n - 1)))


def _monte_carlo_check(vals: np.ndarray, vol: float, exact: float) -> MonteCarloCheck:
    """Sphere volume times the sample mean, with its standard error, against
    `exact`; `vals` is consumed."""
    samples = vals.size
    mean, std = _mean_and_std(vals)
    estimate = vol * mean
    stderr = vol * std / np.sqrt(samples)
    # samples of a constant integrand do not spread: z is then inf, or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        z = abs(estimate - exact) / stderr
    return MonteCarloCheck(exact, estimate, float(stderr), float(z))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def monte_carlo_section_integral(Q, a, samples: int, seed: int) -> MonteCarloCheck:
    """Monte Carlo estimate of the integral of Q(v,v) over the light-cone
    section relative to a, with its standard error, against the closed form.

    The samples are v = a + (g/|g|) B for standard normal rows g and the
    orthonormal frame B of a-perp, so Q(v,v) is the quadratic
    Q(a,a) + 2 (g.w)/|g| + g P g^T/|g|^2 in g with w = B Q a and
    P = B Q B^T, evaluated without forming v.
    """
    a = require_unit_timelike(a)
    if not isinstance(Q, SymBilinearForm):
        Q = SymBilinearForm(np.asarray(Q, dtype=float))
    exact = section_integral_exact(Q, a)  # also rejects a direction of another dimension
    basis = spacelike_complement_basis(a)
    qa = Q.matrix @ a
    qaa = float(a @ qa)
    w = basis @ qa
    P = basis @ Q.matrix @ basis.T
    rng = np.random.default_rng(seed)

    def block(count):
        g = rng.standard_normal((count, Q.m - 1))
        r2 = _row_dots(g, g)
        vals = _row_dots(g @ P, g)
        vals /= r2
        lin = g @ w
        lin /= np.sqrt(r2, out=r2)
        lin *= 2.0
        vals += lin
        vals += qaa
        return vals

    vals = _blocked_values(samples, block)
    return _monte_carlo_check(vals, unit_sphere_volume(Q.m - 2), exact)


def monte_carlo_sphere_integral(Q, samples: int, seed: int) -> MonteCarloCheck:
    """Euclidean analogue: integral of Q(v,v) over the round unit sphere,
    sampled as Q(g,g)/|g|^2 for standard normal rows g, against the closed
    form."""
    if not isinstance(Q, SymBilinearForm):
        Q = SymBilinearForm(np.asarray(Q, dtype=float))
    rng = np.random.default_rng(seed)

    def block(count):
        g = rng.standard_normal((count, Q.m))
        vals = _row_dots(g @ Q.matrix, g)
        vals /= _row_dots(g, g)
        return vals

    vals = _blocked_values(samples, block)
    return _monte_carlo_check(vals, unit_sphere_volume(Q.m - 1), sphere_integral_exact(Q))
