"""Parametric spacelike immersions of round spheres into flat Lorentzian R^m.

Parameter points are unit vectors in R^{n+1} (chart-free); derivative data
refers to the stereographic chart selected by `chart_at`, which projects
from the pole opposite the point's hemisphere. Gallery immersions carry
exact ambient derivatives; `NumericalImmersion` provides a central
finite-difference fallback for user-supplied maps.

Immersions are immutable and shareable; every evaluation is pure, so batch
work may be partitioned across workers freely.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrameError, DomainError, LorentzLabError, NotSpacelikeError, UsageError
from .minkowski import (
    inner,
    metric_signs,
    require_unit_timelike,
    signature_orthonormalize,
    spacelike_complement_basis,
)

TAU_FRAME = 1e-8
FD_STEP = 1e-5

__all__ = [
    "Domain",
    "StereographicChart",
    "chart_at",
    "Immersion",
    "HyperplaneSphere",
    "CylinderSphere",
    "CounterexampleSphere",
    "NullHyperplaneSphere",
    "PlaneCurve",
    "HyperbolicArc",
    "LineCurve",
    "NumericalImmersion",
    "ShapeSample",
    "shape_at",
    "immersion_from_spec",
    "load_immersion_spec",
]


@dataclass(frozen=True)
class Domain:
    kind: str  # "circle" | "sphere" | "torus"
    n: int


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


class Immersion:
    """Base class: spacelike immersion of the unit n-sphere into R^m.

    Subclasses implement the ambient map on a neighborhood of the sphere
    via `_value`, `_jac`, `_hess` (shapes (...,m), (...,m,n+1),
    (...,m,n+1,n+1)); chart derivatives follow by the chain rule.
    """

    has_closed_mean_curvature = False

    def __init__(self, n: int, m: int):
        if n < 1:
            raise DomainError("intrinsic dimension must be at least 1")
        if m < n + 2:
            raise DomainError(
                f"compact spacelike submanifolds need m >= n+2, got n={n}, m={m}"
            )
        if m < 3:
            raise DomainError("ambient dimension must be at least 3")
        self.n = n
        self.m = m
        self.domain = Domain("circle" if n == 1 else "sphere", n)
        self.offset = np.zeros(m)

    # ambient map, supplied by subclasses
    def _value(self, x):
        raise NotImplementedError

    def _jac(self, x):
        raise NotImplementedError

    def _hess(self, x):
        raise NotImplementedError

    def eval(self, p):
        """Position in R^m; broadcasts over leading axes of p."""
        return self._value(np.asarray(p, dtype=float)) + self.offset

    def eval_chart(self, chart: StereographicChart, u):
        return self.eval(chart.to_manifold(u))

    def jacobian(self, p) -> np.ndarray:
        """First chart partials at a single point, shape (m, n)."""
        chart = chart_at(p)
        u = chart.from_manifold(np.asarray(p, dtype=float))
        x = chart.to_manifold(u)
        return np.einsum("ca,ai->ci", self._jac(x), chart.jac(u))

    def hessian(self, p) -> np.ndarray:
        """Second chart partials at a single point, shape (m, n, n)."""
        chart = chart_at(p)
        u = chart.from_manifold(np.asarray(p, dtype=float))
        x = chart.to_manifold(u)
        s_jac = chart.jac(u)
        s_hess = chart.hess(u)
        return np.einsum("cab,ai,bj->cij", self._hess(x), s_jac, s_jac) + np.einsum(
            "ca,aij->cij", self._jac(x), s_hess
        )

    def mean_curvature(self, p) -> np.ndarray:
        """Closed-form mean curvature vector, where available."""
        if not self.has_closed_mean_curvature:
            raise UsageError(f"{type(self).__name__} has no closed-form mean curvature")
        return self._mean_curvature(np.asarray(p, dtype=float))

    def _mean_curvature(self, x):
        raise NotImplementedError

    def mean_curvature_sq(self, p):
        h = self.mean_curvature(p)
        return inner(h, h)

    def translated(self, delta) -> "Immersion":
        """Copy of this immersion shifted by delta; derivatives unchanged."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.m,):
            raise UsageError("translation vector has the wrong dimension")
        clone = copy.copy(self)
        clone.offset = self.offset + delta
        return clone


class HyperplaneSphere(Immersion):
    """Round n-sphere of radius r inside the spacelike affine hyperplane
    through `center` orthogonal to the unit timelike `axis`."""

    has_closed_mean_curvature = True

    def __init__(self, n: int, radius: float, center, axis):
        center = np.asarray(center, dtype=float)
        axis = require_unit_timelike(axis)
        if axis.shape != center.shape:
            raise UsageError("center and axis dimensions differ")
        if radius <= 0:
            raise DomainError("radius must be positive")
        super().__init__(n, center.shape[0])
        self.radius = float(radius)
        self.center = center
        self.axis = axis
        # first n+1 orthonormal spacelike directions of axis-perp
        self.frame = spacelike_complement_basis(axis)[: n + 1]
        self.offset = center.copy()

    def _value(self, x):
        return self.radius * x @ self.frame

    def _jac(self, x):
        jac = self.radius * self.frame.T  # (m, n+1)
        return np.broadcast_to(jac, x.shape[:-1] + jac.shape)

    def _hess(self, x):
        d = self.n + 1
        return np.zeros(x.shape[:-1] + (self.m, d, d))

    def _mean_curvature(self, x):
        return -(x @ self.frame) / self.radius

    def mean_curvature_sq(self, p):
        p = np.asarray(p, dtype=float)
        return np.full(p.shape[:-1], 1.0 / self.radius**2)

    def mean_curvature_sq_of_height(self, t):
        return np.full(np.shape(t), 1.0 / self.radius**2)


class PlaneCurve:
    """Curve in the Lorentzian 2-plane, with exact derivatives."""

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError

    def accel_sq(self, t):
        """Causal square of the acceleration; <= 0 for unit-speed curves."""
        return inner(self.d2(t), self.d2(t))


@dataclass(frozen=True)
class HyperbolicArc(PlaneCurve):
    """scale * (cosh(t/scale), sinh(t/scale)); unit-speed spacelike.

    A negative scale gives the time reflection of the positive one.
    """

    scale: float = 1.0

    def __post_init__(self):
        if self.scale == 0:
            raise UsageError("hyperbolic arc scale must be nonzero")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        c = self.scale
        return np.stack([c * np.cosh(t / c), c * np.sinh(t / c)], axis=-1)

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        c = self.scale
        return np.stack([np.sinh(t / c), np.cosh(t / c)], axis=-1)

    def d2(self, t):
        t = np.asarray(t, dtype=float)
        c = self.scale
        return np.stack([np.cosh(t / c) / c, np.sinh(t / c) / c], axis=-1)


@dataclass(frozen=True)
class LineCurve(PlaneCurve):
    """Straight line through `point` with unit spacelike `direction`."""

    point: tuple = (0.0, 0.0)
    direction: tuple = (0.0, 1.0)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        p = np.asarray(self.point, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        return p + t[..., None] * d

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        return np.broadcast_to(d, t.shape + (2,))

    def d2(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape + (2,))


class CylinderSphere(Immersion):
    """Unit n-sphere restricted from the cylinder (t, y) -> (curve(t), y).

    The first parameter coordinate rides the curve's Lorentzian 2-plane
    and the remaining n coordinates embed as Euclidean axes, so unit-speed
    spacelike curves keep the induced metric round.
    """

    has_closed_mean_curvature = True

    def __init__(self, n: int, curve: PlaneCurve):
        super().__init__(n, n + 2)
        self.curve = curve
        self._check_unit_speed()

    def _check_unit_speed(self):
        from .minkowski import TAU_UNIT

        t = np.linspace(-1.0, 1.0, 65)
        speed = inner(self.curve.d1(t), self.curve.d1(t))
        if np.abs(speed - 1.0).max() > TAU_UNIT:
            raise DomainError("curve must be unit-speed spacelike on [-1, 1]")

    def _value(self, x):
        t = x[..., 0]
        y = x[..., 1:]
        return np.concatenate([self.curve.value(t), y], axis=-1)

    def _jac(self, x):
        t = x[..., 0]
        d = self.n + 1
        jac = np.zeros(x.shape[:-1] + (self.m, d))
        jac[..., 0:2, 0] = self.curve.d1(t)
        idx = np.arange(1, d)
        jac[..., idx + 1, idx] = 1.0
        return jac

    def _hess(self, x):
        t = x[..., 0]
        d = self.n + 1
        hess = np.zeros(x.shape[:-1] + (self.m, d, d))
        hess[..., 0:2, 0, 0] = self.curve.d2(t)
        return hess

    def _mean_curvature(self, x):
        # Laplacian of f(t) on the round sphere is (1-t^2) f'' - n t f'
        t = x[..., 0]
        y = x[..., 1:]
        top = (
            (1.0 - t * t)[..., None] * self.curve.d2(t)
            - self.n * t[..., None] * self.curve.d1(t)
        ) / self.n
        return np.concatenate([top, -y], axis=-1)

    def mean_curvature_sq(self, p):
        p = np.asarray(p, dtype=float)
        return self.mean_curvature_sq_of_height(p[..., 0])

    def mean_curvature_sq_of_height(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 + (1.0 - t * t) ** 2 / self.n**2 * self.curve.accel_sq(t)


class CounterexampleSphere(CylinderSphere):
    """Isometric copy of the round n-sphere riding the unit hyperbola.

    Its mean curvature is short enough that the classical Euclidean
    eigenvalue bound fails, which is the point of shipping it.
    """

    def __init__(self, n: int):
        super().__init__(n, HyperbolicArc(1.0))

    def normal_fields(self, p):
        """The two canonical unit normals (timelike, spacelike) at p."""
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


class NullHyperplaneSphere(Immersion):
    """Round n-sphere pushed into the null hyperplane x_1 = x_m.

    The map is x -> (h(x), x, h(x)); the two equal end components cancel
    in the metric, so any height h keeps the induced metric round. The
    default height is a degree-two spherical harmonic, which keeps the
    position field away from the eigenfield case.
    """

    has_closed_mean_curvature = True

    def __init__(self, n: int, amplitude: float = 0.5):
        super().__init__(n, n + 3)
        self.amplitude = float(amplitude)

    @property
    def null_normal(self) -> np.ndarray:
        ell = np.zeros(self.m)
        ell[0] = 1.0
        ell[-1] = 1.0
        return ell

    def _height(self, x):
        return self.amplitude * x[..., 0] * x[..., 1]

    def _height_grad(self, x):
        g = np.zeros_like(x)
        g[..., 0] = self.amplitude * x[..., 1]
        g[..., 1] = self.amplitude * x[..., 0]
        return g

    def _height_hess(self, x):
        d = self.n + 1
        h = np.zeros(x.shape[:-1] + (d, d))
        h[..., 0, 1] = self.amplitude
        h[..., 1, 0] = self.amplitude
        return h

    def _value(self, x):
        h = self._height(x)[..., None]
        return np.concatenate([h, x, h], axis=-1)

    def _jac(self, x):
        g = self._height_grad(x)[..., None, :]
        d = self.n + 1
        eye = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d))
        return np.concatenate([g, eye, g], axis=-2)

    def _hess(self, x):
        hh = self._height_hess(x)[..., None, :, :]
        d = self.n + 1
        zeros = np.zeros(x.shape[:-1] + (d, d, d))
        return np.concatenate([hh, zeros, hh], axis=-3)

    def _mean_curvature(self, x):
        # the height is a degree-2 harmonic: Delta h = -2(n+1) h on the sphere
        g = (-2.0 * (self.n + 1) / self.n) * self._height(x)[..., None]
        return np.concatenate([g, -x, g], axis=-1)

    def mean_curvature_sq(self, p):
        p = np.asarray(p, dtype=float)
        return np.ones(p.shape[:-1])

    def mean_curvature_sq_of_height(self, t):
        return np.ones(np.shape(t))


class NumericalImmersion(Immersion):
    """Immersion defined by an ambient value function only.

    Chart derivatives come from central differences with one Richardson
    extrapolation step; intended for user-defined maps without closed-form
    derivatives. Convergence studies should prefer exact gallery items.
    """

    def __init__(self, n: int, m: int, value_fn, step: float = FD_STEP):
        super().__init__(n, m)
        self._fn = value_fn
        self.step = float(step)

    def _value(self, x):
        return np.asarray(self._fn(x), dtype=float)

    def _chart_value(self, chart, u):
        return self._value(chart.to_manifold(u))

    def _fd_jac(self, chart, u, h):
        cols = []
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            cols.append(
                (self._chart_value(chart, u + e) - self._chart_value(chart, u - e))
                / (2.0 * h)
            )
        return np.stack(cols, axis=-1)

    def jacobian(self, p):
        chart = chart_at(p)
        u = chart.from_manifold(np.asarray(p, dtype=float))
        h = self.step
        return (4.0 * self._fd_jac(chart, u, h / 2.0) - self._fd_jac(chart, u, h)) / 3.0

    def _fd_hess(self, chart, u, h):
        def jac(uu):
            return (
                4.0 * self._fd_jac(chart, uu, h / 2.0) - self._fd_jac(chart, uu, h)
            ) / 3.0

        cols = []
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            cols.append((jac(u + e) - jac(u - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def hessian(self, p):
        chart = chart_at(p)
        u = chart.from_manifold(np.asarray(p, dtype=float))
        h = self.step
        return (4.0 * self._fd_hess(chart, u, h / 2.0) - self._fd_hess(chart, u, h)) / 3.0


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
    jac = imm.jacobian(p)
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

    hess = imm.hessian(p)
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


def immersion_from_spec(spec: dict) -> Immersion:
    """Build a gallery immersion from a declarative description.

    Expected keys: "gallery" (one of round-sphere, counterexample,
    cylinder-curve, lightlike-hyperplane), "n", and gallery-specific
    "params". A field of the wrong type raises UsageError.
    """
    try:
        name = spec["gallery"]
    except (KeyError, TypeError):
        raise UsageError("immersion spec needs a 'gallery' key") from None
    try:
        return _gallery_item(name, int(spec.get("n", 2)), dict(spec.get("params", {})))
    except LorentzLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value in immersion spec: {exc}") from None


def _gallery_item(name: str, n: int, params: dict) -> Immersion:
    if name == "round-sphere":
        radius = float(params.get("radius", 1.0))
        m = int(params.get("m", n + 2))
        center = np.asarray(params.get("center", np.zeros(m)), dtype=float)
        axis = params.get("axis")
        if axis is None:
            axis = np.zeros(m)
            axis[0] = 1.0
        return HyperplaneSphere(n, radius, center, np.asarray(axis, dtype=float))
    if name == "counterexample":
        return CounterexampleSphere(n)
    if name == "cylinder-curve":
        if params.get("curve", "hyperbola") == "line":
            return CylinderSphere(n, LineCurve())
        return CylinderSphere(n, HyperbolicArc(float(params.get("scale", 2.0))))
    if name == "lightlike-hyperplane":
        return NullHyperplaneSphere(n, float(params.get("amplitude", 0.5)))
    raise UsageError(f"unknown gallery item {name!r}")


def load_immersion_spec(path) -> Immersion:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"spec file {path} is not valid JSON: {exc}") from None
    return immersion_from_spec(spec)
