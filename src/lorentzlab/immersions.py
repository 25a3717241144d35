"""Parametric spacelike immersions of round spheres into flat Lorentzian R^m.

Parameter points are unit vectors in R^{n+1}. An immersion gives the
pipeline its position and its closed-form mean curvature vector. For every
gallery immersion <H, H> depends on the height (first parameter
coordinate) only, which the slice integrals rely on.

Immersions are immutable and shareable; every evaluation is pure, so batch
work may be partitioned across workers freely.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LorentzLabError, UsageError
from .minkowski import TAU_UNIT, inner, require_unit_timelike, spacelike_complement_basis

__all__ = [
    "Immersion",
    "HyperplaneSphere",
    "CylinderSphere",
    "CounterexampleSphere",
    "NullHyperplaneSphere",
    "PlaneCurve",
    "HyperbolicArc",
    "LineCurve",
    "immersion_from_spec",
    "load_immersion_spec",
]


class Immersion:
    """Base class: spacelike immersion of the unit n-sphere into R^m.

    Subclasses implement the ambient map `_value` on a neighborhood of the
    sphere (shape (..., m)) and the closed-form mean curvature vector
    `_mean_curvature`, whose causal square must depend on the height only.
    """

    def __init__(self, n: int, m: int):
        if n < 1:
            raise DomainError("intrinsic dimension must be at least 1")
        if m < n + 2:
            raise DomainError(
                f"compact spacelike submanifolds need m >= n+2, got n={n}, m={m}"
            )
        self.n = n
        self.m = m

    def _value(self, x):
        raise NotImplementedError

    def _mean_curvature(self, x):
        raise NotImplementedError

    def eval(self, p):
        """Position in R^m; broadcasts over leading axes of p."""
        return self._value(np.asarray(p, dtype=float))

    def mean_curvature(self, p) -> np.ndarray:
        """Closed-form mean curvature vector; broadcasts over leading axes of p."""
        return self._mean_curvature(np.asarray(p, dtype=float))


class HyperplaneSphere(Immersion):
    """Round n-sphere of radius r inside the spacelike affine hyperplane
    through `center` orthogonal to the unit timelike `axis`."""

    def __init__(self, n: int, radius: float, center, axis):
        center = np.array(center, dtype=float)
        # the dimensions first: the axis check presumes m >= 3
        super().__init__(n, center.size)
        axis = require_unit_timelike(axis)
        if axis.shape != center.shape:
            raise UsageError("center and axis dimensions differ")
        if radius <= 0:
            raise DomainError("radius must be positive")
        self.radius = float(radius)
        self.center = center
        # first n+1 orthonormal spacelike directions of axis-perp
        self.frame = spacelike_complement_basis(axis)[: n + 1]

    def _value(self, x):
        return self.radius * x @ self.frame + self.center

    def _mean_curvature(self, x):
        return -(x @ self.frame) / self.radius


class PlaneCurve:
    """Curve in the Lorentzian 2-plane, with exact derivatives."""

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError


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

    def __init__(self, n: int, curve: PlaneCurve):
        super().__init__(n, n + 2)
        self.curve = curve
        self._check_unit_speed()

    def _check_unit_speed(self):
        t = np.linspace(-1.0, 1.0, 65)
        # a short hyperbolic arc overflows cosh: the speed is then inf - inf,
        # NaN, which fails the comparison
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = self.curve.d1(t)
            unit = np.abs(inner(d1, d1) - 1.0).max() <= TAU_UNIT
        if not unit:
            raise DomainError("curve must be unit-speed spacelike on [-1, 1]")

    def _value(self, x):
        t = x[..., 0]
        y = x[..., 1:]
        return np.concatenate([self.curve.value(t), y], axis=-1)

    def _mean_curvature(self, x):
        # Laplacian of f(t) on the round sphere is (1-t^2) f'' - n t f'
        t = x[..., 0]
        y = x[..., 1:]
        top = (
            (1.0 - t * t)[..., None] * self.curve.d2(t)
            - self.n * t[..., None] * self.curve.d1(t)
        ) / self.n
        return np.concatenate([top, -y], axis=-1)


class CounterexampleSphere(CylinderSphere):
    """Isometric copy of the round n-sphere riding the unit hyperbola.

    Its mean curvature is short enough that the classical Euclidean
    eigenvalue bound fails, which is the point of shipping it.
    """

    def __init__(self, n: int):
        super().__init__(n, HyperbolicArc(1.0))


class NullHyperplaneSphere(Immersion):
    """Round n-sphere pushed into the null hyperplane x_1 = x_m.

    The map is x -> (h(x), x, h(x)); the two equal end components cancel
    in the metric, so any height h keeps the induced metric round. The
    default height is a degree-two spherical harmonic, which keeps the
    position field away from the eigenfield case.
    """

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

    def _value(self, x):
        h = self._height(x)[..., None]
        return np.concatenate([h, x, h], axis=-1)

    def _mean_curvature(self, x):
        # the height is a degree-2 harmonic: Delta h = -2(n+1) h on the sphere
        g = (-2.0 * (self.n + 1) / self.n) * self._height(x)[..., None]
        return np.concatenate([g, -x, g], axis=-1)


def immersion_from_spec(spec: dict) -> tuple[Immersion, dict]:
    """Build a gallery immersion from a declarative description, and return
    it with the run config the description sets: n, and the radius, scale
    or amplitude where its gallery item takes one.

    Expected keys: "gallery" (one of round-sphere, counterexample,
    cylinder-curve, lightlike-hyperplane), "n", and gallery-specific
    "params". "n" and "m" must be integers and every other number finite;
    a field of the wrong type or value, or a key the gallery item does not
    read, raises UsageError naming its key.
    """
    try:
        name = spec["gallery"]
    except (KeyError, TypeError):
        raise UsageError("immersion spec needs a 'gallery' key") from None
    unknown = set(spec) - {"gallery", "n", "params"}
    if unknown:
        raise UsageError(f"unknown immersion spec keys: {sorted(unknown)}")
    try:
        n = _spec_int("n", spec.get("n", 2))
        imm, taken = _gallery_item(name, n, dict(spec.get("params", {})))
        return imm, {"n": n, **taken}
    except LorentzLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value in immersion spec: {exc}") from None


def _spec_int(key: str, value) -> int:
    # bool is an int subclass, so JSON true is refused apart
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _spec_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def _gallery_item(name: str, n: int, params: dict) -> tuple[Immersion, dict]:
    """The gallery item `name`, and the radius, scale or amplitude it took,
    if it takes one; it takes its keys out of `params`, and any key left
    over is refused."""
    taken = {}
    if name == "round-sphere":
        taken["radius"] = _spec_float("radius", params.pop("radius", 1.0))
        m = _spec_int("m", params.pop("m", n + 2))
        center = [_spec_float("center", x) for x in params.pop("center", [0.0] * m)]
        axis = [_spec_float("axis", x) for x in params.pop("axis", [1.0] + [0.0] * (m - 1))]
        imm = HyperplaneSphere(n, taken["radius"], center, axis)
    elif name == "counterexample":
        imm = CounterexampleSphere(n)
    elif name == "cylinder-curve":
        curve = params.pop("curve", "hyperbola")
        if curve == "line":
            imm = CylinderSphere(n, LineCurve())
        elif curve == "hyperbola":
            taken["scale"] = _spec_float("scale", params.pop("scale", 2.0))
            imm = CylinderSphere(n, HyperbolicArc(taken["scale"]))
        else:
            raise UsageError(f"unknown curve {curve!r}; choose hyperbola or line")
    elif name == "lightlike-hyperplane":
        taken["amplitude"] = _spec_float("amplitude", params.pop("amplitude", 0.5))
        imm = NullHyperplaneSphere(n, taken["amplitude"])
    else:
        raise UsageError(f"unknown gallery item {name!r}")
    if params:
        raise UsageError(f"unknown or unused {name} params: {sorted(params)}")
    return imm, taken


def load_immersion_spec(path) -> tuple[Immersion, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"spec file {path} is not valid JSON: {exc}") from None
    return immersion_from_spec(spec)
