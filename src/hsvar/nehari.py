"""Projection onto the constraint set by scalar root finding.

Any nonzero pair can be rescaled onto the constraint set: with
``A = ||(u,v)||^2``, ``B`` the sum of critical integrals and ``C`` the
coupling integral, the scale ``t`` solves

    A = t^(p-2) B + nu (alpha+beta) t^(alpha+beta-2) C.

The right side is strictly increasing in ``t > 0`` whenever ``B + C > 0``
(both exponents exceed 2), so the root is unique.  It is found by a
geometrically expanded bracket, bisection, and a Newton polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (Integrals, StatePair, Weights, integrals, lambda_norm_sq,
                     pair_integrals)
from .errors import DegenerateInputError, NoProjectionError, PreconditionError
from .grid import RadialFunction, weighted_lp
from .params import ProblemParams

PROJECTION_TOL = 1e-12    # scale-free projection residual |Psi| / ||(u, v)||^2


@dataclass(frozen=True)
class ProjectionResult:
    """Scale factor, rescaled state, achieved residual, and the bracket used."""

    t_star: float
    projected: object            # StatePair, or RadialFunction for the decoupled set
    residual: float
    bracket: tuple[float, float]

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "residual": self.residual,
                "bracket": list(self.bracket)}


def _solve_scale(A: float, B: float, C: float, p: float, q: float,
                 nu: float, tol: float) -> tuple[float, tuple[float, float]]:
    """Root of A = t^(p-2) B + nu q t^(q-2) C; returns (t, bracket).

    Raises :class:`NoProjectionError` when no bracket is found within 200
    expansions on either side (or an expansion overflows), or when the root
    is not finite.
    """
    nuqC = nu * q * C

    def resid(t: float) -> float:
        return t ** (p - 2.0) * B + nuqC * t ** (q - 2.0) - A

    t0 = (A / (B + nuqC + 1.0)) ** (1.0 / (p - 2.0))
    lo, hi = 1e-3 * t0, 1e3 * t0
    try:
        for _ in range(200):
            if resid(lo) <= 0:
                break
            lo *= 0.125
        else:
            raise NoProjectionError(f"no lower bracket for the scale below {lo:.3e}")
        for _ in range(200):
            if resid(hi) >= 0:
                break
            hi *= 8.0
        else:
            raise NoProjectionError(f"no upper bracket for the scale above {hi:.3e}")
    except OverflowError as exc:
        raise NoProjectionError("scale bracket overflowed") from exc
    bracket = (lo, hi)

    # bisection in log t until Newton is safe
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.125:
            break
    t = math.sqrt(lo * hi)
    for _ in range(60):
        f = resid(t)
        if abs(f) <= tol * A:
            break
        df = (p - 2.0) * t ** (p - 3.0) * B + (q - 2.0) * nuqC * t ** (q - 3.0)
        step = f / df
        t_new = t - step
        if not (lo <= t_new <= hi):
            t_new = math.sqrt(lo * hi)   # fall back to bisection
        if resid(t_new) > 0:
            hi = t_new
        else:
            lo = t_new
        t = t_new
    if not (math.isfinite(t) and t > 0):
        raise NoProjectionError(f"scale onto the constraint set is not finite: {t}")
    return t, bracket


def _scale(I: Integrals, tol: float) -> tuple[float, tuple[float, float]]:
    """Scale t putting t (u, v) on the constraint set, from the integrals of (u, v)."""
    if not I.A > 0:
        raise DegenerateInputError(
            "pair has nonpositive energy-space norm (inadmissible state)")
    if I.B <= 0 and I.C <= 0:
        raise NoProjectionError("all nonlinear integrals vanish; no rescaling exists")
    pr = I.params
    return _solve_scale(I.A, I.B, I.C, pr.crit_exp, pr.alpha + pr.beta, pr.nu, tol)


def project_arrays(wt: Weights, u: np.ndarray, v: np.ndarray, positive: bool = False,
                   grad: bool = False) -> tuple[float, Integrals]:
    """Projection of raw node arrays: the scale t and the integrals of (u, v).

    ``t (u, v)`` lies on the constraint set; its energy, norm and (with
    ``grad``) gradient follow by homogeneity (``I.energy(t)``, ``t^2 I.A``,
    ``I.gradient(t)``) without another grid pass.
    """
    I = integrals(wt, u, v, positive, grad)
    return _scale(I, PROJECTION_TOL)[0], I


def project(pair: StatePair, params: ProblemParams, tol: float = PROJECTION_TOL,
            positive: bool = False) -> ProjectionResult:
    """Rescale a pair onto the constraint set.

    Convergence is declared scale-free: |Psi(t u, t v)| <= tol * ||(u,v)||^2.
    With ``positive=True`` the truncated constraint (positive parts in the
    nonlinear integrals) is used instead; the scalar equation is identical
    because positive parts are homogeneous under positive rescaling.
    """
    if pair.is_zero():
        raise DegenerateInputError("cannot project the zero pair")
    I = pair_integrals(pair, params, positive)
    t, bracket = _scale(I, tol)
    return ProjectionResult(t_star=t, projected=pair.scaled(t),
                            residual=I.residual(t), bracket=bracket)


def project_decoupled(u: RadialFunction, lam: float, s: float) -> ProjectionResult:
    """Rescale a single profile onto the decoupled constraint set.

    The scale is explicit: t = (||u||_lam^2 / int |u|^p / r^s)^(1/(p-2)).
    """
    if not np.any(u.values):
        raise DegenerateInputError("cannot project the zero profile")
    grid = u.grid
    p = 2.0 * (grid.N - s) / (grid.N - 2)
    A = lambda_norm_sq(u, lam)
    B = weighted_lp(grid, u, p, s)
    if B <= 0:
        raise NoProjectionError("critical integral vanishes; no rescaling exists")
    if not A > 0:
        raise DegenerateInputError("profile has nonpositive shifted norm")
    t = (A / B) ** (1.0 / (p - 2.0))
    projected = u.scaled(t)
    residual = t * t * A - t ** p * B
    return ProjectionResult(t_star=t, projected=projected,
                            residual=residual, bracket=(t, t))


def constrained_energy(pair: StatePair, params: ProblemParams,
                       tol: float = 1e-6) -> float:
    """Energy through the on-constraint identity.

    On the constraint set the functional collapses to

        (2-s)/(2(N-s)) * (critical integrals)
        + nu (alpha+beta-2)/2 * coupling integral,

    which must agree with the direct evaluation to rounding accuracy.
    """
    I = pair_integrals(pair, params)
    psi = I.residual()
    if abs(psi) > tol * max(I.A, 1e-300):
        raise PreconditionError(
            f"pair is off the constraint set: |Psi|/||.||^2 = {abs(psi) / I.A:.3e}")
    return ((2.0 - params.s) / (2.0 * (params.N - params.s)) * I.B
            + params.nu * (params.alpha + params.beta - 2.0) / 2.0 * I.C)
