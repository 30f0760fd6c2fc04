"""Projection onto the constraint set by one scalar Newton iteration.

Any nonzero pair can be rescaled onto the constraint set: with
``A = ||(u,v)||^2``, ``B`` the sum of critical integrals and ``C`` the
coupling integral, the scale ``t`` solves

    A = t^(p-2) B + nu q t^(q-2) C,        q = alpha + beta.

Both exponents are positive (p >= q > 2) and both coefficients
nonnegative, so in x = log t the right side is a sum of terms
exp(e x + ln k): increasing and convex, with exactly one root as soon as
one coefficient is positive.  Newton's method on a convex increasing
function, started at or above its root, falls monotonically onto it.  The
start is the smaller single-term root min_k (ln A - ln k) / e_k, where that
term alone equals A, so the sum is at least A and no term exceeds A along
the iteration: nothing overflows, whatever the size of the root.  The loop,
``power_root``, takes any such sum; ``regimes`` solves the scaling-set
equation with it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Integrals, StatePair, Weights, integrals, pair_integrals
from .errors import DegenerateInputError, NoProjectionError, PreconditionError
from .params import ProblemParams

EPS = np.finfo(float).eps
LN2 = math.log(2.0)
MAX_NEWTON = 100    # safety cap; a projection takes 2-5 residual evaluations


@dataclass(frozen=True)
class ProjectionResult:
    """Scale factor, rescaled state, and the achieved residual Psi(t u, t v)."""

    t_star: float
    projected: StatePair
    residual: float

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "residual": self.residual}


def _log_ratio(k: float, A: float) -> float:
    """ln(k / A) for positive floats, whose quotient may overflow or
    underflow: the log of the mantissas' quotient plus ln 2 times the
    difference of the binary exponents."""
    mk, ek = math.frexp(k)
    mA, eA = math.frexp(A)
    return math.log(mk / mA) + (ek - eA) * LN2


def power_root(A: float, terms) -> float:
    """Root t > 0 of sum_k k t^e = A over the (e, k) pairs of ``terms``
    (e > 0, k >= 0), by Newton's method in log t.

    The residual is taken relative to A, sum_k exp(e_k x + ln(k / A)) - 1
    with x = log t, and the iteration stops once it is no longer positive
    or the Newton step is within rounding of x.  Raises
    :class:`NoProjectionError` when every coefficient vanishes, or when the
    root is not a finite positive float.
    """
    terms = [(e, _log_ratio(k, A)) for e, k in terms if k > 0]
    if not terms:
        raise NoProjectionError("every coefficient of the power sum vanishes; "
                                "no positive root exists")
    x = min(-c / e for e, c in terms)
    for _ in range(MAX_NEWTON):
        vals = [math.exp(e * x + c) for e, c in terms]
        f = sum(vals) - 1.0
        if f <= 0:
            break
        step = f / sum(e * val for (e, _), val in zip(terms, vals))
        x -= step
        if step <= EPS * (1.0 + abs(x)):
            break
    else:
        raise NoProjectionError(f"power-sum root iteration did not settle: log t = {x:.6g}")
    try:
        t = math.exp(x)
    except OverflowError:
        t = math.inf
    if not 0.0 < t < math.inf:
        raise NoProjectionError(
            f"power-sum root is not a finite positive float: log t = {x:.6g}")
    return t


def _solve_scale(A: float, B: float, C: float, p: float, q: float,
                 nu: float) -> float:
    """Root t of A = t^(p-2) B + nu q t^(q-2) C."""
    return power_root(A, ((p - 2.0, B), (q - 2.0, nu * q * C)))


def _scale(I: Integrals) -> float:
    """Scale t putting t (u, v) on the constraint set, from the integrals of (u, v)."""
    if not 0.0 < I.A < math.inf:
        raise DegenerateInputError(
            f"pair norm squared {I.A} is not positive and finite (inadmissible state)")
    pr = I.params
    return _solve_scale(I.A, I.B, I.C, pr.crit_exp, pr.alpha + pr.beta, pr.nu)


def project_arrays(wt: Weights, u: np.ndarray, v: np.ndarray, positive: bool = False,
                   grad: bool = False) -> tuple[float, Integrals]:
    """Projection of raw node arrays: the scale t and the integrals of (u, v).

    ``t (u, v)`` lies on the constraint set; its energy, norm and (with
    ``grad``) gradient follow by homogeneity (``I.energy(t)``, ``t^2 I.A``,
    ``I.gradient(t)``) without another grid pass.
    """
    I = integrals(wt, u, v, positive, grad)
    return _scale(I), I


def project(pair: StatePair, params: ProblemParams,
            positive: bool = False) -> ProjectionResult:
    """Rescale a pair onto the constraint set.

    With ``positive=True`` the truncated constraint (positive parts in the
    nonlinear integrals) is used instead; the scalar equation is identical
    because positive parts are homogeneous under positive rescaling.
    """
    if pair.is_zero():
        raise DegenerateInputError("cannot project the zero pair")
    I = pair_integrals(pair, params, positive)
    t = _scale(I)
    return ProjectionResult(t_star=t, projected=pair.scaled(t), residual=I.residual(t))


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
