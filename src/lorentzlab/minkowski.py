"""Lorentzian linear algebra on flat R^m with signature (-, +, ..., +).

Vectors are plain numpy arrays in canonical coordinates; the first
coordinate is the time direction. All operations broadcast over leading
axes, are pure, and are safe to call from concurrent workers. Sampling is
deterministic per seed; parallel callers should partition the sample index
range instead of sharing a generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UsageError

TAU_UNIT = 1e-9
TAU_CAUSAL = 1e-9
# largest boost rapidity of the sampled direction sets
S_MAX = 2.0

__all__ = [
    "TAU_UNIT",
    "TAU_CAUSAL",
    "metric_signs",
    "vertex_sum",
    "inner",
    "sq_norm",
    "CausalClass",
    "causal_classify",
    "require_unit_timelike",
    "SymBilinearForm",
    "lorentz_trace",
    "euclid_trace",
    "spacelike_complement_basis",
    "unit_sphere_volume",
    "section_integral_exact",
    "sphere_integral_exact",
    "boost_direction",
    "sample_timelike_directions",
    "sample_causal_directions",
]


def metric_signs(m: int) -> np.ndarray:
    """Diagonal of the flat metric, (-1, 1, ..., 1)."""
    if m < 3:
        raise UsageError(f"ambient dimension must be at least 3, got {m}")
    signs = np.ones(m)
    signs[0] = -1.0
    return signs


def vertex_sum(weights, values):
    """sum_i weights[i] values[i, ...]: a sum over the first axis,
    broadcasting the rest, as (k,) weights against (k, c) columns or (k, c)
    columns against their own kind. numpy's einsum loop forms it, never the
    BLAS, whose `ddot` and `gemv` sum in an order that depends on the BLAS
    thread count; every 1-D reduction over a mesh's vertices goes here."""
    return np.einsum("i...,i...->...", weights, values)


def inner(u, v):
    """Indefinite inner product -u1*v1 + sum_{i>=2} ui*vi, broadcasting."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise UsageError(
            f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}"
        )
    prod = u * v
    return prod[..., 1:].sum(axis=-1) - prod[..., 0]


def sq_norm(v):
    """Causal square <v, v>; negative for timelike vectors."""
    return inner(v, v)


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def causal_classify(v) -> CausalClass:
    v = np.asarray(v, dtype=float)
    if not v.any():
        return CausalClass.ZERO
    q = float(sq_norm(v))
    if abs(q) <= TAU_CAUSAL:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if q < 0 else CausalClass.SPACELIKE


def require_unit_timelike(a) -> np.ndarray:
    """a as a float array, checked unit timelike; a stack of directions
    (rows) is checked at once, and the error names the first bad row."""
    a = np.asarray(a, dtype=float)
    ok = a.shape[-1] >= 3 and np.abs(sq_norm(a) + 1.0) <= TAU_UNIT
    if not np.all(ok):
        bad = a if a.ndim == 1 else a[np.argmin(ok)]
        raise DomainError(f"expected a unit timelike vector, got <a,a> = {float(sq_norm(bad))}")
    return a


@dataclass(frozen=True)
class SymBilinearForm:
    """Symmetric bilinear form Q(u, v) = u^T Q v in canonical coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise UsageError(f"expected a square matrix, got shape {q.shape}")
        if q.shape[0] < 3:
            raise UsageError("forms live on R^m with m >= 3")
        scale = np.abs(q).max() or 1.0
        if np.abs(q - q.T).max() > 1e-12 * scale:
            raise UsageError("matrix is not symmetric to machine precision")
        object.__setattr__(self, "matrix", q)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, u, v):
        return np.einsum("...i,ij,...j->...", np.asarray(u, float), self.matrix, np.asarray(v, float))

    @staticmethod
    def random(m: int, rng: np.random.Generator) -> "SymBilinearForm":
        a = rng.standard_normal((m, m))
        return SymBilinearForm((a + a.T) / 2.0)


def _form_matrix(Q) -> np.ndarray:
    if isinstance(Q, SymBilinearForm):
        return Q.matrix
    return SymBilinearForm(np.asarray(Q, dtype=float)).matrix


def lorentz_trace(Q) -> float:
    """Metric-raised trace of the operator associated with Q."""
    q = _form_matrix(Q)
    return float((metric_signs(q.shape[0]) * np.diag(q)).sum())


def euclid_trace(Q) -> float:
    """Ordinary matrix trace (Euclidean index raising)."""
    return float(np.trace(_form_matrix(Q)))


def spacelike_complement_basis(a) -> np.ndarray:
    """Orthonormal spacelike rows spanning the hyperplane orthogonal to a.

    For a = (a0, v) the rows are (v_j, e_j + v_j v / (1 + a0)), the boost
    taking e_0 to a applied to e_1, ..., e_{m-1}; at a = e_0 they are the
    identity rows. a and -a share the complement, so a past-directed a is
    flipped first and 1 + a0 >= 2.
    """
    a = require_unit_timelike(a)
    if a[0] < 0:
        a = -a
    v = a[1:]
    rows = np.empty((v.size, a.size))
    rows[:, 0] = v
    rows[:, 1:] = np.eye(v.size) + np.outer(v, v / (1.0 + a[0]))
    return rows


def unit_sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere, 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    if k < 0:
        raise UsageError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def section_integral_exact(Q, a) -> float:
    """Closed form for the integral of Q(v,v) over the section relative to a."""
    a = require_unit_timelike(a)
    q = _form_matrix(Q)
    m = q.shape[0]
    if a.shape[-1] != m:
        raise UsageError("form and direction dimensions differ")
    qaa = float(np.einsum("i,ij,j->", a, q, a))
    return unit_sphere_volume(m - 2) / (m - 1) * (m * qaa + lorentz_trace(q))


def sphere_integral_exact(Q) -> float:
    """Closed form for the integral of Q(v,v) over the Euclidean unit sphere."""
    q = _form_matrix(Q)
    m = q.shape[0]
    return unit_sphere_volume(m - 1) / m * euclid_trace(q)


def boost_direction(s: float, u) -> np.ndarray:
    """Unit timelike direction (cosh s, sinh s * u) for a unit spatial u."""
    u = np.asarray(u, dtype=float)
    return np.concatenate(([math.cosh(s)], math.sinh(s) * u))


def _boost_draws(m: int, count: int, seed: int):
    """`count` boosts (u, cosh s, sinh s): per sample, a unit spatial u
    from m - 1 standard normals, then a rapidity s uniform in [0, S_MAX).

    The draws keep that interleaved order, so the samples are
    prefix-stable in count. Only the draws run one sample at a time; each
    row of u is divided by the square root of its own dot product, as
    np.linalg.norm does, and cosh and sinh are math's, so every value has
    the bits of the one-sample formulas (a stacked dot or numpy's vector
    cosh rounds differently).
    """
    rng = np.random.default_rng(seed)
    g = np.empty((count, m - 1))
    s = np.empty(count)
    normal, uniform = rng.standard_normal, rng.random
    for j, row in enumerate(g):
        normal(out=row)
        s[j] = uniform()
    # uniform(0, S_MAX) draws the same double and returns 0.0 + S_MAX * it
    s = (S_MAX * s).tolist()
    u = g / np.sqrt([row.dot(row) for row in g]).reshape(-1, 1)
    return u, np.array([math.cosh(x) for x in s]), np.array([math.sinh(x) for x in s])


def sample_timelike_directions(m: int, count: int, seed: int) -> np.ndarray:
    """The time axis, then `count` boost-sampled unit timelike directions
    (cosh s, sinh s u); prefix-stable in count."""
    if m < 3:
        raise UsageError("need ambient dimension >= 3")
    u, cosh, sinh = _boost_draws(m, count, seed)
    rows = np.zeros((count + 1, m))
    rows[0, 0] = 1.0
    rows[1:, 0] = cosh
    rows[1:, 1:] = sinh[:, None] * u
    return rows


def sample_causal_directions(m: int, count: int, seed: int) -> np.ndarray:
    """Mixed timelike and lightlike causal directions for search loops:
    even samples are boosts (cosh s, sinh s u), odd ones the lightlike
    (1, u) of the same draws."""
    u, cosh, sinh = _boost_draws(m, count, seed)
    rows = np.ones((count, m))
    rows[:, 1:] = u
    rows[::2, 0] = cosh[::2]
    rows[::2, 1:] *= sinh[::2, None]
    return rows
