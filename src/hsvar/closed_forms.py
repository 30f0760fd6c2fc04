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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .params import ProblemParams


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
    if not (isinstance(N, (int, np.integer)) and N >= 3):
        raise InvalidParameterError(f"dimension must be an integer >= 3, got {N}")
    return (N - 2) ** 2 / 4.0


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


def critical_level(N: int, lam: float, s: float) -> float:
    """Energy (2-s)/(2(N-s)) * S^((N-s)/(2-s)) of the explicit minimizer."""
    S = best_constant(N, lam, s)
    return (2.0 - s) / (2.0 * (N - s)) * S ** ((N - s) / (2.0 - s))


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


def separability_check(params: ProblemParams) -> dict:
    """Test the level-separation window in both orientations.

    Orientation (i) holds when the component-2 level sits strictly between
    half of and all of the component-1 level:

        2 E(lambda2, s) > E(lambda1, s) > E(lambda2, s).

    An equivalent algebraic form avoids the Gamma evaluations entirely:
    ``lambda2 > lambda1`` together with

        (L - lambda2) / (L - lambda1) > 2^(-2(2-s) / (2(N-1)-s)).

    Both routes are evaluated and must agree; orientation (ii) swaps the
    component indices.  Returns a dict with ``cond_i``, ``cond_ii``, the
    ratio and the threshold of the algebraic form (orientation (i)), and the
    two levels ``level_1`` and ``level_2``.
    """
    N, s = params.N, params.s
    l1, l2 = params.lambda1, params.lambda2
    L = hardy_constant(N)
    E1 = critical_level(N, l1, s)
    E2 = critical_level(N, l2, s)
    threshold = 2.0 ** (-2.0 * (2.0 - s) / (2.0 * (N - 1) - s))

    cond_i_levels = 2.0 * E2 > E1 > E2
    ratio_i = (L - l2) / (L - l1)
    cond_i_ratio = (l2 > l1) and (ratio_i > threshold)

    cond_ii_levels = 2.0 * E1 > E2 > E1
    ratio_ii = (L - l1) / (L - l2)
    cond_ii_ratio = (l1 > l2) and (ratio_ii > threshold)

    # The two forms are algebraically identical; they can only differ through
    # rounding when the parameters sit on the window boundary itself.  There
    # the ratio form is exact arithmetic, so it wins; away from the boundary
    # a mismatch would be a genuine defect.
    on_boundary = (abs(l1 - l2) <= 64 * np.finfo(float).eps * L
                   or abs(ratio_i - threshold) <= 64 * np.finfo(float).eps
                   or abs(ratio_ii - threshold) <= 64 * np.finfo(float).eps)
    if (cond_i_levels != cond_i_ratio or cond_ii_levels != cond_ii_ratio) and not on_boundary:
        raise InvalidParameterError(
            "separability tests disagree away from the window boundary")
    return {
        "cond_i": cond_i_ratio if on_boundary else cond_i_levels,
        "cond_ii": cond_ii_ratio if on_boundary else cond_ii_levels,
        "ratio": ratio_i,
        "threshold": threshold,
        "level_1": E1,
        "level_2": E2,
    }
