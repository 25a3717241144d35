"""Eigenvalue bound evaluations and equality-case diagnostics.

Every inequality here descends from one variational fact: a mesh field
with zero mass-weighted mean satisfies f'Kf >= lambda1 f'Mf for the
discrete eigenvalue. Bound evaluations are therefore phrased as stiffness
and consistent-mass quadratic forms of vertex data, which makes the
inequalities that are exact in the continuum exact for the discrete
pencil as well (up to the eigensolver residual). Reports that mix the
discrete eigenvalue with pointwise curvature integrals carry a
discretization-aware tolerance instead.

The direction-dependent fields are <a, W> = W J a for the centered
position psi_hat and the mean curvature H, with J = diag(-1, 1, ..., 1).
The engine therefore builds the m x m Gram matrices W'KW and W'MW once;
with b = J a each bound is then b'Gb plus a signed trace, and a batch of
sampled directions is one einsum. A test field enters the master
inequality through its Gram pair alone: H and psi_hat read the stored
pairs, and the projected position psi_hat + <psi_hat, a> a, which is
orthogonal to a and has <W, W> = <psi_hat, psi_hat> + <psi_hat, a>^2,
reads psi_hat's pair with the coefficient 1 where the others have m.
`field_bounds` forms each field's two sides once, with one vanishing
check, and reads from them every bound a test field gives: the mean
curvature field's quotient, the position fields' left-hand sides and
the master inequality itself. Every bound family is a BoundTable: its columns over a stack of rows,
one row per direction, or one row for a bound without a direction.

Vector-equation residuals are measured in an auxiliary Euclidean norm on
canonical components; the causal square can vanish on nonzero lightlike
residuals, so it is reported separately where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UsageError
from .fem import assemble_pencil, solve_lambda1
from .minkowski import (
    CausalClass,
    causal_classify,
    metric_signs,
    require_unit_timelike,
    sample_causal_directions,
    sample_timelike_directions,
    vertex_sum,
)
from .quadrature import mean_curvature_vertices

TAU_BOUND = 1e-6
TAU_DISC = 2e-2
TAU_EQ = 2.5e-2
STRICT_FACTOR = 8.0
TAU_ELLE = 1e-6
H_CENTER_TOL = 1e-2
# sampled right-hand sides this close to the minimum count as tied; the
# first such sample is reported, so a flat landscape reports the axis
TIE_RTOL = 1e-12

__all__ = [
    "BoundTable",
    "DirectionCatalogue",
    "BoundEngine",
]


def _holds(lhs, rhs, tol):
    """lhs <= rhs up to tol relative to the larger side; elementwise on arrays."""
    return rhs - lhs >= -tol * np.maximum(np.abs(lhs), np.abs(rhs))


@dataclass
class BoundTable:
    """One bound family over a stack of rows: row j of every column is one
    report entry, lhs <= rhs up to tol. A row has the direction
    directions[j], or none when directions is None (then there is one
    row). lhs, rhs and the meta values broadcast over the rows, so a value
    every row shares may be a scalar."""

    name: str
    anchor: str
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    tol: float
    directions: np.ndarray | None
    meta: dict
    status: str = "ok"

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def holds(self):
        return _holds(self.lhs, self.rhs, self.tol)


@dataclass
class DirectionCatalogue:
    """The direction-dependent catalogue on a (k, m) stack of unit
    timelike directions: row j of every column belongs to direction j.
    `equality` holds the equality diagnostic's columns in report order."""

    sharp: BoundTable
    plain: BoundTable
    equality: dict


class BoundEngine:
    """Shared state for bound evaluations on one (mesh, immersion) pair.

    Assembles the pencil, solves for the smallest nonzero eigenvalue,
    recenters the position field and builds the Gram matrices of the
    position and mean-curvature fields once; all evaluations, the test
    fields of the master inequality included, are then pure reads of
    m x m matrices and may run concurrently.
    """

    def __init__(self, mesh, imm, tol_disc: float = TAU_DISC):
        self.mesh = mesh
        self.imm = imm
        self.tol_disc = float(tol_disc)
        self.pencil = assemble_pencil(mesh, imm)
        self.geometry = self.pencil.geometry
        self.spectrum = solve_lambda1(self.pencil)
        self.lambda1 = self.spectrum.lambda1
        self.volume = self.geometry.total_volume
        self.signs = metric_signs(imm.m)
        positions = self.geometry.positions
        self.mean_curvature = mean_curvature_vertices(imm, self.pencil)
        # the continuum H integrates to zero, the mesh field only to
        # quadrature accuracy, so its centered flag has a looser tolerance
        h_center = vertex_sum(self.geometry.lumped, self.mean_curvature) / self.volume
        self._h_centered = bool(np.abs(h_center).max() <= H_CENTER_TOL)

        K, M, lumped = self.pencil.stiffness, self.pencil.mass, self.geometry.lumped
        h = self.mean_curvature
        # a Gram pair grows as a power of its field's scale (psi_hat'M psi_hat
        # as r^3 on a circle of radius r): one that overflows is refused
        # below, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            center = vertex_sum(lumped, positions) / self.volume
            psi = self.positions_hat = positions - center
            k_psi = K @ psi
            self.gram_k_pos = psi.T @ k_psi
            self.gram_m_pos = psi.T @ (M @ psi)
            self.gram_k_h = h.T @ (K @ h)
            self.gram_m_h = h.T @ (M @ h)
        for name, values, pair in (("position", positions, (self.gram_k_pos, self.gram_m_pos)),
                                   ("mean curvature", h, (self.gram_k_h, self.gram_m_h))):
            if not np.isfinite(pair).all():
                raise UsageError(f"the {name} field's Gram pair is not finite: its scale "
                                 f"{np.abs(values).max():.3g} is out of range for float64")
        self.curvature_sq_integral = self._trace(self.gram_m_h)
        defect = self.gram_k_pos - self.lambda1 * self.gram_m_pos
        self._defect = 0.5 * (defect + defect.T)
        self._defect_scale = max(self.lambda1 * float(np.trace(self.gram_m_pos)), 1e-300)

        # Delta psi_hat + lambda1 psi_hat with the lumped-mass Laplacian
        resid = -k_psi / lumped[:, None] + self.lambda1 * psi
        self._resid_integral = vertex_sum(lumped, resid)
        self._gram_m_resid = resid.T @ (M @ resid)
        self._lumped_resid = resid.T @ (lumped[:, None] * resid)
        self._lumped_pos = psi.T @ (lumped[:, None] * psi)

    # quadratic forms in b = J a ----------------------------------------------------

    def _trace(self, gram) -> float:
        """Signed trace: the integral summed over components with metric signs."""
        return float(self.signs @ np.diagonal(gram))

    def _form(self, gram, a):
        """b'Gb with b = J a, for one direction or a stack of them (rows)."""
        b = np.asarray(a, dtype=float) * self.signs
        return np.einsum("...i,ij,...j->...", b, gram, b)

    def tangential_energy(self, a):
        """Integral of the squared tangential part of a (gradient of
        <a, psi>), for one direction or a stack of them (rows)."""
        return self._form(self.gram_k_pos, a)

    def _projected_curvature(self, dirs):
        """int |H_a|^2, int |a^T|^2 and the sharp right-hand side
        n int |H_a|^2 / (Vol + int |a^T|^2 / n) at each row of a stack."""
        n = self.imm.n
        h_a_int = self.curvature_sq_integral + self._form(self.gram_m_h, dirs)
        tangential = self.tangential_energy(dirs)
        return h_a_int, tangential, n * h_a_int / (self.volume + tangential / n)

    # bounds ----------------------------------------------------------------------
    # Each family is a BoundTable over its rows, and every form in b = J a
    # is one einsum over the direction stack, which rounds like the
    # one-direction einsum.

    def _field_sides(self, k_gram, m_gram, dirs, coef):
        """The master inequality's sides for the test field W read from the
        Gram pair (k_gram, m_gram) at each row of a direction stack: coef
        <a, W>^2 + <W, W> integrated against W'KW is the gradient side,
        against W'MW the lambda1 side without the factor lambda1. coef is
        m, or 1 for the projected position read from psi_hat's pair. The
        field vanishes where its weight is negligible against m_gram's
        entries."""
        grad, weight = (coef * self._form(gram, dirs) + self._trace(gram)
                        for gram in (k_gram, m_gram))
        if np.any(weight <= 1e-14 * np.abs(m_gram).max()):
            raise DomainError("test field vanishes identically")
        return grad, weight

    def reilly(self) -> BoundTable:
        """Classical bound lambda1 <= n * mean of the causal curvature square.

        Valid through spacelike or lightlike hyperplanes; fails in general,
        which is what the counterexample gallery item certifies.
        """
        h_sq_int = self.curvature_sq_integral
        rhs = self.imm.n * h_sq_int / self.volume
        return BoundTable(
            "reilly", "reilly", self.lambda1, rhs, self.tol_disc, None,
            {"curvature_integral": h_sq_int},
        )

    def field_bounds(self, dirs):
        """Every bound from a test field of the master inequality, at each
        row of a direction stack, in report order: the mean-curvature
        field's quotient, the position field psi_hat and its projection
        psi_hat + <psi_hat, a> a, then the master inequality for H,
        psi_hat and the projection.

        Each field's two sides are formed once. The position fields'
        left-hand sides are the test fields' lambda1 sides; their
        right-hand sides use the exact elementwise identities for the
        signed gradient trace (n for the position field, n plus the
        squared tangential part for the projected one).
        """
        dirs = require_unit_timelike(dirs)
        n, m, lam = self.imm.n, self.imm.m, self.lambda1
        pos = self.gram_k_pos, self.gram_m_pos
        h_sides = self._field_sides(self.gram_k_h, self.gram_m_h, dirs, m)
        tests = [
            BoundTable(f"test-field[{provenance}]", "test-field", lam * weight, grad, TAU_BOUND,
                       dirs, {"provenance": provenance, "centered": centered})
            for provenance, (grad, weight), centered in (
                ("mean-curvature", h_sides, self._h_centered),
                ("position", self._field_sides(*pos, dirs, m), True),
                ("projected-position", self._field_sides(*pos, dirs, 1), True),
            )
        ]
        num, denom = h_sides
        tangential = self.tangential_energy(dirs)
        meta = {"tangential": tangential}
        return (
            BoundTable("mean-curvature-field", "mean-curvature-field", lam, num / denom,
                       self.tol_disc, dirs, {"numerator": num, "denominator": denom}),
            BoundTable("position-field", "position-field", tests[1].lhs,
                       n * self.volume + m * tangential, TAU_BOUND, dirs, meta),
            BoundTable("projected-position-field", "projected-position-field", tests[2].lhs,
                       n * self.volume + tangential, TAU_BOUND, dirs, meta),
            *tests,
        )

    def infimum_over_directions(self, count: int, seed: int) -> BoundTable:
        """Minimum of the sharp projected-curvature bound over boost-sampled
        unit timelike directions (the axis direction is sample zero).

        Samples within TIE_RTOL of the minimum tie, and the first of them
        is reported, so a flat landscape reports the axis rather than
        whichever sample rounding favours.
        """
        dirs = sample_timelike_directions(self.imm.m, count, seed)
        _, _, rhs = self._projected_curvature(dirs)
        best = rhs.min()
        pick = int(np.flatnonzero(rhs <= best + TIE_RTOL * abs(best))[0])
        return BoundTable(
            "direction-infimum",
            "direction-infimum",
            self.lambda1,
            rhs[pick],
            self.tol_disc,
            dirs[pick : pick + 1],
            {"samples": len(dirs), "seed": seed, "boost": np.arccosh(max(dirs[pick, 0], 1.0))},
        )

    # defect form and causal certificate ------------------------------------------

    def rayleigh_defect(self, v) -> float:
        """Q(v) = int |grad F_v|^2 - lambda1 int F_v^2 for the centered
        position field; positive semi-definite by construction."""
        return float(self._form(self._defect, v))

    def reilly_causal_certificate(self, ell) -> BoundTable:
        """Classical bound certified by a causal direction annihilating the
        defect form; carries equality sub-checks in its metadata.

        If the defect Q(ell, ell) is not numerically zero the certificate
        does not apply and the row has status "precondition-failed"
        instead of a verdict.
        """
        ell = np.asarray(ell, dtype=float)
        cls = causal_classify(ell)
        if cls not in (CausalClass.TIMELIKE, CausalClass.LIGHTLIKE):
            raise DomainError(f"certificate direction must be causal, got {cls.value}")
        q = self.rayleigh_defect(ell)
        scale = self._defect_scale * float(ell @ ell)
        precondition_ok = abs(q) <= TAU_ELLE * scale
        n = self.imm.n

        # the causal square drops twice the time component from the
        # Euclidean one, so a residual without one gives equal squares
        time_sq, *_ = np.diagonal(self._gram_m_resid)
        euclid_sq = float(np.trace(self._gram_m_resid))
        causal_sq = euclid_sq - 2.0 * float(time_sq)
        psi_sq = self._trace(self.gram_m_pos)
        volume_ratio = self.lambda1 * psi_sq / (n * self.volume)
        meta = {
            "defect": q,
            "defect_rel": q / scale,
            "precondition_ok": precondition_ok,
            "causal_residual_sq": causal_sq / self._defect_scale / self.lambda1,
            "euclid_residual_sq": euclid_sq / self._defect_scale / self.lambda1,
            "volume_identity_ratio": volume_ratio,
            "equality": precondition_ok
            and abs(volume_ratio - 1.0) <= self.tol_disc
            and abs(causal_sq) / max(euclid_sq, 1e-300) <= 1.0
            and abs(causal_sq) / self._defect_scale / self.lambda1 <= TAU_EQ,
        }
        return replace(
            self.reilly(),
            name="reilly-causal-certificate",
            anchor="reilly-causal-certificate",
            directions=ell[None],
            meta=meta,
            status="ok" if precondition_ok else "precondition-failed",
        )

    def causal_defect_search(self, count: int, seed: int) -> dict:
        """Sampling search for a causal direction with vanishing defect."""
        dirs = sample_causal_directions(self.imm.m, count, seed)
        rel = np.abs(self._form(self._defect, dirs)) / (
            self._defect_scale * np.einsum("ij,ij->i", dirs, dirs)
        )
        pick = int(np.argmin(rel))
        return {
            "direction": dirs[pick].tolist(),
            "defect_rel": float(rel[pick]),
            "found": bool(rel[pick] <= TAU_ELLE),
            "samples": count,
        }

    # equality diagnostics ---------------------------------------------------------

    def equality_tolerance(self) -> float:
        """Equality-verdict threshold, calibrated at refinement level 4.

        The verdict separates discretization noise from a genuine residual;
        the noise halves per refinement level, so the threshold follows.
        """
        return TAU_EQ * 2.0 ** (4 - self.mesh.level)

    def direction_catalogue(self, dirs, tau_eq: float | None = None) -> DirectionCatalogue:
        """The headline bound lambda1 <= n int |H_a|^2 / Vol, its sharp
        form, and the equality diagnostic at each row a of a (k, m) stack
        of unit timelike directions.

        The sharp bound's denominator gains (1/n) int |a^T|^2, which can
        only lower the right-hand side. Every ingredient of both bounds is
        translation invariant, so recentering is optional.

        The equality diagnostic measures how far Delta psi_hat + lambda1
        psi_hat is from a multiple of a. The residual after removing the
        pointwise a-component lies in the hyperplane orthogonal to a,
        where the causal square is positive definite; both the residual
        and the position field are measured in the Euclidean norm of the
        frame adapted to a (this coincides with the canonical Euclidean
        norm when a is the time axis, and keeps verdicts boost
        equivariant), and their ratio is multiplied by n / lambda1, so it
        is the same at every scale. The canonical-frame ratio and the
        residual's causal square are reported alongside, with the same
        factor.
        Verdicts: equality-case below tau_eq, strict above STRICT_FACTOR
        times tau_eq, inconclusive between. The last column is the sharp
        bound's slack relative to its larger side.
        """
        dirs = require_unit_timelike(dirs)
        if tau_eq is None:
            tau_eq = self.equality_tolerance()
        n, vol, lam = self.imm.n, self.volume, self.lambda1
        h_a_int, tangential, sharp_rhs = self._projected_curvature(dirs)
        plain_rhs = n * h_a_int / vol

        # lumped integrals of rho = resid - mu a = resid + c a, c = <resid, a>:
        # <rho, rho> = <resid, resid> + c^2 and |rho|^2 = |resid|^2 + 2 c resid.a + c^2 |a|^2
        g_r, g_p = self._lumped_resid, self._lumped_pos
        c_sq = self._form(g_r, dirs)
        # np.where(x < floor, floor, x) is Python's max(x, floor)
        rho_sq = self._trace(g_r) + c_sq
        rho_l2 = np.sqrt(np.where(rho_sq < 0.0, 0.0, rho_sq) / vol)
        psi_l2 = np.sqrt((self._trace(g_p) + 2.0 * self._form(g_p, dirs)) / vol)
        # rho / psi has units of 1/length^2: times n / lambda1, the squared
        # radius `radius_from_lambda1` reports, it has none
        residual_rel = rho_l2 / np.where(psi_l2 < 1e-300, 1e-300, psi_l2) * (n / lam)

        b = dirs * self.signs
        a_g_b = np.einsum("...i,ij,...j->...", dirs, g_r, b)
        a_sq = np.einsum("...i,...i->...", dirs, dirs)
        rho_canon_sq = float(np.trace(g_r)) + 2.0 * a_g_b + a_sq * c_sq
        rho_l2_canon = np.sqrt(np.where(rho_canon_sq < 0.0, 0.0, rho_canon_sq) / vol)
        psi_l2_canon = math.sqrt(float(np.trace(g_p)) / vol)

        h_a_mean = h_a_int / vol
        k = len(dirs)
        meta = {"curvature_integral": h_a_int, "tangential": tangential}
        name = "projected-curvature-sharp"
        sharp = BoundTable(name, name, lam, sharp_rhs, self.tol_disc, dirs, meta)
        name = "projected-curvature"
        plain = BoundTable(name, name, lam, plain_rhs, self.tol_disc, dirs, meta)
        equality = {
            "verdict": np.select(
                [residual_rel <= tau_eq, residual_rel >= STRICT_FACTOR * tau_eq],
                ["equality-case", "strict"],
                "inconclusive",
            ),
            "residual_rel": residual_rel,
            "residual_rel_canonical": rho_l2_canon / max(psi_l2_canon, 1e-300) * (n / lam),
            "causal_residual_sq": np.full(k, self._trace(g_r) / vol * (n / lam)),
            "a_component_integral": -np.einsum("i,...i->...", self._resid_integral, b),
            "tangential_ratio": tangential / vol,
            "radius_from_curvature": 1.0 / np.sqrt(np.where(h_a_mean < 1e-300, 1e-300, h_a_mean)),
            "radius_from_lambda1": np.full(k, math.sqrt(n / lam)),
            "projection_bound_rel_slack": sharp.slack / np.maximum(abs(lam), np.abs(sharp.rhs)),
        }
        return DirectionCatalogue(sharp, plain, equality)
