"""Existence-regime classification and the brute-force scaling-set oracle.

``classify`` evaluates, exactly as stated, the hypothesis list of each
existence result for the coupled system; size conditions on the coupling
strength are non-constructive and therefore reported as "requires small nu"
or "requires large nu" flags rather than booleans.

``algebraic_inf`` brute-forces the infimum of the scaling set

    Sigma_nu = { sigma > 0 : A sigma^(2/p) < sigma + B nu sigma^(theta/p) },

which for nu = 0 is exactly (A^(p/(p-2)), inf) = (A^((N-s)/(2-s)), inf).
The lemma behind the coupled-mass lower bounds states that for every
eps > 0 there is a nu threshold below which the infimum stays above
(1 - eps) A^((N-s)/(2-s)); the oracle reproduces it by scanning a log grid.
nu enters the set only through the factor B nu, so the grid and both power
terms are built once per (A, theta, s, N) and kept for the calls after it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .closed_forms import critical_exponent, separability_check
from .errors import InvalidParameterError
from .params import ProblemParams

_EXPONENT_TIE = 1e-12


@dataclass(frozen=True)
class RegimeReport:
    """Applicability of each existence result for one parameter tuple."""

    subcritical: bool
    critical: bool
    thm_large_nu: dict          # minimization for large coupling
    thm_mixed: dict             # ground state via sub-2 exponent (case i/ii)
    thm_small_nu: dict          # one-component couple is the ground state
    thm_minmax: dict            # bound state between the two levels
    h_vanishes: bool
    levels: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= _EXPONENT_TIE * max(1.0, abs(a), abs(b))


def classify(params: ProblemParams) -> RegimeReport:
    """Map a parameter tuple to the applicable existence statements.

    This is the one place that decides each statement's case; the solvers
    that need one (``mountain_pass``) ask it here.
    """
    critical = params.is_critical_coupling
    h_ok = params.h_profile.vanishes_at_origin_and_infinity
    l1, l2 = params.lambda1, params.lambda2
    alpha, beta = params.alpha, params.beta

    # compactness gate: subcritical coupling, or critical coupling with a
    # weight vanishing at 0 and infinity.  Critical coupling with small nu is
    # the alternative of the other statements, so only this one is gated.
    thm_large_nu = {
        "applicable": not critical or h_ok,
        "requires": "large nu",
    }

    case, branch = None, None
    if l1 >= l2 and (beta < 2 or _eq(beta, 2)):
        case = "i"
        branch = "beta<2" if beta < 2 and not _eq(beta, 2) else "beta=2+large nu"
    if l1 <= l2 and (alpha < 2 or _eq(alpha, 2)):
        alt = "alpha<2" if alpha < 2 and not _eq(alpha, 2) else "alpha=2+large nu"
        if case is None:
            case, branch = "ii", alt
        else:
            case, branch = "both", branch + "|" + alt
    thm_mixed = {
        "case": case or "none",
        "branch": branch,
        "applicable": case is not None,
        "requires": ("large nu" if branch and "large nu" in branch else "none"),
    }

    if _eq(l1, l2):
        small_case = "boundary"     # levels coincide; no statement selects a side
    elif alpha >= 2 and beta >= 2:
        small_case = "iii:" + ("second" if l1 < l2 else "first")
    elif alpha >= 2 and l1 < l2:
        small_case = "i"
    elif beta >= 2 and l1 > l2:
        small_case = "ii"
    else:
        small_case = "none"
    thm_small_nu = {
        "case": small_case,
        "applicable": small_case not in ("none", "boundary"),
        "requires": "small nu",
    }

    sep = separability_check(params)
    if alpha >= 2 and sep["cond_i"]:
        mm_case = "i"
    elif beta >= 2 and sep["cond_ii"]:
        mm_case = "ii"
    else:
        mm_case = "none"
    thm_minmax = {
        "case": mm_case,
        "applicable": mm_case != "none",
        "requires": "small nu",
        "cond_i": sep["cond_i"],
        "cond_ii": sep["cond_ii"],
    }

    return RegimeReport(
        subcritical=not critical, critical=critical,
        thm_large_nu=thm_large_nu, thm_mixed=thm_mixed,
        thm_small_nu=thm_small_nu, thm_minmax=thm_minmax,
        h_vanishes=h_ok,
        levels={"level_1": sep["level_1"], "level_2": sep["level_2"]},
    )


@dataclass(frozen=True)
class LemmaInstance:
    """Inputs of the scaling-set infimum."""

    A: float
    B: float
    theta: float
    s: float = 0.0
    N: int = 4
    nu: float = 0.0

    def __post_init__(self):
        bad = []
        if not 0 < self.A < math.inf:
            bad.append("A")
        if not 0 < self.B < math.inf:
            bad.append("B")
        if not 2 <= self.theta < math.inf:
            bad.append("theta")
        if not (0 <= self.s < 2):
            bad.append("s")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 3):
            bad.append("N")
        if not 0 <= self.nu < math.inf:
            bad.append("nu")
        if not bad:
            try:
                x = self.decoupled_inf
            except OverflowError:
                x = math.inf
            if not 0 < x < math.inf:
                bad.append(f"A (decoupled infimum A^((N-s)/(2-s)) = {x} "
                           f"is not a positive finite float)")
        if bad:
            raise InvalidParameterError(f"invalid lemma instance: {', '.join(bad)}")

    @property
    def decoupled_inf(self) -> float:
        """Exact infimum at nu = 0: A^((N-s)/(2-s))."""
        return self.A ** ((self.N - self.s) / (2.0 - self.s))


def default_sigma_grid(inst: LemmaInstance) -> np.ndarray:
    """Log grid of 20000 points spanning [1e-6, 1e3] times the decoupled infimum."""
    x = inst.decoupled_inf
    if not (0 < 1e-6 * x and 1e3 * x < math.inf):
        raise InvalidParameterError(
            f"decoupled infimum {x} leaves the float range of the sigma grid "
            f"[1e-6, 1e3] times it")
    return np.geomspace(1e-6 * x, 1e3 * x, 20000)


def _sigma_terms(inst: LemmaInstance, grid: np.ndarray):
    """The sigma grid and the nu-free terms of the set's inequality on it:
    A sigma^(2/p) and sigma^(theta/p)."""
    if grid.ndim != 1 or len(grid) < 2 or np.any(grid <= 0):
        raise InvalidParameterError("sigma grid must be a 1-d positive range")
    p = critical_exponent(inst.N, inst.s)
    return grid, inst.A * grid ** (2.0 / p), grid ** (inst.theta / p)


@functools.lru_cache(maxsize=1)
def _default_sigma_terms(A: float, theta: float, s: float, N: int):
    """_sigma_terms on the default grid, read-only.  B and nu enter neither, so
    instances that differ only there (a lemma sweep over nu, the bisection of
    small_nu_threshold) share the one entry, 3 x 20000 floats."""
    inst = LemmaInstance(A=A, B=1.0, theta=theta, s=s, N=N)
    terms = _sigma_terms(inst, default_sigma_grid(inst))
    for a in terms:
        a.flags.writeable = False
    return terms


def algebraic_inf(inst: LemmaInstance, sigma_grid: np.ndarray | None = None):
    """Brute-force infimum of the scaling set over a log grid.

    Membership uses the strict inequality of the set definition.  Returns
    ``None`` when no grid point belongs to the set (empty-set sentinel,
    distinct from a zero infimum).
    """
    if sigma_grid is None:
        grid, lhs, g = _default_sigma_terms(inst.A, inst.theta, inst.s, inst.N)
    else:
        grid, lhs, g = _sigma_terms(inst, np.asarray(sigma_grid))
    members = lhs < grid + inst.B * inst.nu * g
    if not members.any():
        return None
    return float(grid[members].min())


def small_nu_threshold(inst_at, eps: float):
    """Empirical threshold below which the infimum stays above (1-eps) of exact.

    ``inst_at(nu)`` builds the instance.  Returns the largest tested nu for
    which the bound holds, found by 40 bisections of [0, 1]; None when it
    fails even for the smallest tested nu.  When ``inst_at`` varies nu alone,
    its up to 42 evaluations share one sigma grid.
    """
    target = inst_at(0.0).decoupled_inf * (1.0 - eps)

    def holds(nu: float) -> bool:
        inf_nu = algebraic_inf(inst_at(nu))
        return inf_nu is not None and inf_nu > target

    if not holds(0.0):
        return None
    lo, hi = 0.0, 1.0
    if holds(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else None
