"""Closed-form constants and explicit extremal profiles.

Everything in this module is exact arithmetic on top of the log-Gamma
function; no quadrature is involved.  The key quantities, for dimension
``N >= 3``, singularity order ``0 <= s < 2`` and Hardy parameter
``0 <= lam < (N-2)^2/4``:

* ``hardy_constant(N)``: the optimal constant ``(N-2)^2/4`` of the
  inverse-square (Hardy) inequality.
* ``critical_exponent(N, s) = 2(N-s)/(N-2)``: the critical power for the
  embedding into the ``|x|^{-s}``-weighted Lebesgue space.
* ``best_constant(N, lam, s)``: the optimal constant of the weighted
  Sobolev-type inequality with the inverse-square potential subtracted,

      S * (int |u|^p / |x|^s)^(2/p) <= int |grad u|^2 - lam int u^2/|x|^2,

  given by a ratio of Gamma factors.
* ``critical_level(N, lam, s)``: the energy of the explicit minimizer,
  ``(2-s)/(2(N-s)) * S^((N-s)/(2-s))``, which quantizes the compactness
  thresholds of the coupled problem.
* ``exact_solution``: the explicit one-parameter family of radial
  minimizers, singular like ``r^{-a}`` at the origin with
  ``a = sqrt(L) - sqrt(L - lam)``.
* ``power_root(A, terms)``: the log x = ln t of the root of a power sum
  ``sum_k k t^e = A``, the equation of both the projection scale
  (``energy``) and the scaling-set infimum (``regimes``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, NoProjectionError
from .params import ProblemParams, order

EPS = np.finfo(float).eps
LN2 = math.log(2.0)
MAX_NEWTON = 100    # safety cap; a projection takes 2-5 residual evaluations


def _check_domain(N: int, lam: float, s: float) -> float:
    """Validate (N, lam, s) and return the Hardy threshold."""
    if not (isinstance(N, (int, np.integer)) and N >= 3):
        raise InvalidParameterError(f"dimension must be an integer >= 3, got {N}")
    if not (0.0 <= s < 2.0):
        raise InvalidParameterError(f"s must lie in [0, 2), got {s}")
    threshold = (N - 2) ** 2 / 4.0
    if not (0.0 <= lam < threshold):
        raise InvalidParameterError(
            f"lambda must lie in [0, {threshold}), got {lam}")
    return threshold


def hardy_constant(N: int) -> float:
    """Optimal constant (N-2)^2/4 of the inverse-square inequality."""
    return _check_domain(N, 0.0, 0.0)


def critical_exponent(N: int, s: float) -> float:
    """Critical power 2(N-s)/(N-2); reduces to 2N/(N-2) at s = 0."""
    _check_domain(N, 0.0, s)
    return 2.0 * (N - s) / (N - 2)


def singular_exponent(N: int, lam: float) -> float:
    """Origin exponent a = sqrt(L) - sqrt(L - lam) of the extremal profile."""
    L = _check_domain(N, lam, 0.0)
    return math.sqrt(L) - math.sqrt(L - lam)


def extremal_prefactor(N: int, lam: float, s: float) -> float:
    """Amplitude constant 2 (L - lam) (N - s) / sqrt(L) of the extremal."""
    L = _check_domain(N, lam, s)
    return 2.0 * (L - lam) * (N - s) / math.sqrt(L)


def best_constant(N: int, lam: float, s: float) -> float:
    """Optimal constant of the lam-shifted weighted Sobolev inequality.

    Evaluated through log-Gamma for stability:

        S = 4 (L-lam) (N-s)/(N-2) * [ (N-2) / (2 (2-s) sqrt(L-lam))
              * 2 pi^(N/2) / Gamma(N/2) * Gamma(x)^2 / Gamma(2x) ]^((2-s)/(N-s))

    with ``x = (N-s)/(2-s)`` and ``L`` the Hardy threshold.  At
    ``(lam, s) = (0, 0)`` this reduces to the classical Sobolev constant
    ``pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N)``, and at ``s = 0`` it equals
    ``(1 - lam/L)^((N-1)/N)`` times that value.
    """
    L = _check_domain(N, lam, s)
    x = (N - s) / (2.0 - s)
    log_bracket = (
        math.log(N - 2) - math.log(2.0 * (2.0 - s)) - 0.5 * math.log(L - lam)
        + math.log(2.0) + 0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N)
        + 2.0 * math.lgamma(x) - math.lgamma(2.0 * x)
    )
    return 4.0 * (L - lam) * (N - s) / (N - 2) * math.exp(log_bracket * (2.0 - s) / (N - s))


def sobolev_constant(N: int) -> float:
    """Classical Sobolev constant pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N)."""
    _check_domain(N, 0.0, 0.0)
    return math.pi * N * (N - 2) * math.exp(
        (2.0 / N) * (math.lgamma(0.5 * N) - math.lgamma(float(N))))


@lru_cache(maxsize=1024, typed=True)
def critical_level(N: int, lam: float, s: float) -> float:
    """Energy (2-s)/(2(N-s)) * S^((N-s)/(2-s)) of the explicit minimizer.

    Cached: a regime sweep asks for the same few (N, lam, s) in every row.
    ``typed`` keeps ``N = 3.0`` a miss after ``N = 3`` has been cached, so it
    is refused as before; refusals are not cached.
    """
    S = best_constant(N, lam, s)
    try:
        return (2.0 - s) / (2.0 * (N - s)) * S ** ((N - s) / (2.0 - s))
    except OverflowError:
        raise InvalidParameterError(f"critical level at (N, lambda, s) = ({N}, {lam}, "
                                    f"{s}) overflows a float") from None


def exact_solution(N: int, lam: float, s: float, mu: float, r) -> np.ndarray:
    """Sample the explicit radial minimizer with scale parameter mu.

    The profile is

        z_mu(r) = mu^(-(N-2)/2) * z_1(r / mu),
        z_1(r)  = A^((N-2)/(2(2-s))) / [ r^a (1 + r^((2-s)(1 - 2a/(N-2))))^((N-2)/(2-s)) ],

    with ``A = extremal_prefactor`` and ``a = singular_exponent``.  For
    ``lam > 0`` the profile diverges like ``r^{-a}`` at the origin; samples
    at small radii evaluate the closed form directly without regularization.

    Parameters
    ----------
    r : array_like
        Strictly positive radii at which to sample.
    """
    _check_domain(N, lam, s)
    if not mu > 0:
        raise InvalidParameterError(f"scale mu must be positive, got {mu}")
    a = singular_exponent(N, lam)
    A = extremal_prefactor(N, lam, s)
    r = np.asarray(r, dtype=float)
    rr = r / mu
    inner = (2.0 - s) * (1.0 - 2.0 * a / (N - 2))
    outer = (N - 2) / (2.0 - s)
    return (mu ** (-(N - 2) / 2.0) * A ** ((N - 2) / (2.0 * (2.0 - s)))
            / (rr ** a * (1.0 + rr ** inner) ** outer))


@lru_cache(maxsize=1024, typed=True)
def _separability(N: int, s: float, l1: float, l2: float) -> tuple:
    """The lambda part of a regime, (order(lambda1, lambda2), cond_i,
    cond_ii), and the dict of ``separability_check``, cached like
    ``critical_level``: a regime sweep tests the same few
    (N, s, lambda1, lambda2) in every row."""
    L = hardy_constant(N)
    threshold = 2.0 ** (-2.0 * (2.0 - s) / (2.0 * (N - 1) - s))
    ratio_i = (L - l2) / (L - l1)
    lam = order(l1, l2)
    sep = {
        "cond_i": bool(lam < 0 and ratio_i > threshold),
        "cond_ii": bool(lam > 0 and (L - l1) / (L - l2) > threshold),
        "ratio": ratio_i,
        "threshold": threshold,
        "level_1": critical_level(N, l1, s),
        "level_2": critical_level(N, l2, s),
    }
    return (lam, sep["cond_i"], sep["cond_ii"]), sep


def separability_check(params: ProblemParams) -> dict:
    """Test the level-separation window in both orientations.

    Orientation (i) holds when the component-2 level sits strictly between
    half of and all of the component-1 level:

        2 E(lambda2, s) > E(lambda1, s) > E(lambda2, s).

    The test is its algebraic form, which needs no Gamma evaluation and is
    exact on the window boundary: lambda2 > lambda1 in ``params.order`` and

        (L - lambda2) / (L - lambda1) > 2^(-2(2-s) / (2(N-1)-s)).

    Orientation (ii) swaps the component indices.  The level form above is
    the reference of the test suite's random-draw check.  Returns a new dict
    with ``cond_i``, ``cond_ii``, the ratio and the threshold of orientation
    (i), and the two levels ``level_1`` and ``level_2``.  The numbers are
    computed once per (N, s, lambda1, lambda2) and cached, typed as
    ``critical_level`` is; refusals are not cached.
    """
    return _separability(params.N, params.s, params.lambda1, params.lambda2)[1].copy()


def _log_ratio(k: float, A: float) -> float:
    """ln(k / A) for positive floats, whose quotient may overflow or
    underflow: the log of the mantissas' quotient plus ln 2 times the
    difference of the binary exponents."""
    mk, ek = math.frexp(k)
    mA, eA = math.frexp(A)
    return math.log(mk / mA) + (ek - eA) * LN2


def power_root(A: float, terms) -> float:
    """Log x = ln t of the root t > 0 of sum_k k t^e = A over the (e, k)
    pairs of ``terms`` (e > 0, k >= 0), by Newton's method in x.

    In x the relative residual sum_k exp(e_k x + ln(k / A)) - 1 is
    increasing and convex, so Newton's method started at the smaller
    single-term root min_k (ln A - ln k) / e_k falls monotonically onto
    the root; it stops once the residual is no longer positive or the step
    is within rounding of x.  No term exceeds A on the way, so nothing
    overflows whatever the size of t, and whether t is a float is the
    caller's call.  Raises :class:`NoProjectionError` when every
    coefficient vanishes or the iteration does not settle.
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
    return x
