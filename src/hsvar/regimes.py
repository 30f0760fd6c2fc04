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
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {
            "subcritical": self.subcritical,
            "critical": self.critical,
            "thm_large_nu": self.thm_large_nu,
            "thm_mixed": self.thm_mixed,
            "thm_small_nu": self.thm_small_nu,
            "thm_minmax": self.thm_minmax,
            "h_vanishes": self.h_vanishes,
            "levels": self.levels,
        }


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= _EXPONENT_TIE * max(1.0, abs(a), abs(b))


def classify(params: ProblemParams) -> RegimeReport:
    """Map a parameter tuple to the applicable existence statements."""
    p = params.crit_exp
    q = params.alpha + params.beta
    subcritical = q < p and not _eq(q, p)
    critical = _eq(q, p)
    h_ok = params.h_profile.vanishes_at_origin_and_infinity
    l1, l2 = params.lambda1, params.lambda2
    alpha, beta = params.alpha, params.beta

    # compactness hypothesis common to all statements: subcritical coupling,
    # or critical coupling with a vanishing weight / small coupling strength
    base_sub = subcritical
    base_crit_h = critical and h_ok
    base = base_sub or base_crit_h
    base_or_small = base or critical   # critical + small-nu alternative

    thm_large_nu = {
        "applicable": bool(base),
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
        "applicable": bool(case is not None and base_or_small),
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
        "applicable": bool(small_case not in ("none", "boundary") and base_or_small),
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
        "applicable": bool(mm_case != "none" and base_or_small),
        "requires": "small nu",
        "cond_i": sep["cond_i"],
        "cond_ii": sep["cond_ii"],
    }

    return RegimeReport(
        subcritical=subcritical, critical=critical,
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
    s: float
    N: int
    nu: float = 0.0

    def __post_init__(self):
        bad = []
        if not self.A > 0:
            bad.append("A")
        if not self.B > 0:
            bad.append("B")
        if not self.theta >= 2:
            bad.append("theta")
        if not (0 <= self.s < 2):
            bad.append("s")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 3):
            bad.append("N")
        if not self.nu >= 0:
            bad.append("nu")
        if bad:
            raise InvalidParameterError(f"invalid lemma instance: {', '.join(bad)}")

    @property
    def decoupled_inf(self) -> float:
        """Exact infimum at nu = 0: A^((N-s)/(2-s))."""
        return self.A ** ((self.N - self.s) / (2.0 - self.s))


def default_sigma_grid(inst: LemmaInstance, n_points: int = 20000) -> np.ndarray:
    """Log grid spanning [1e-6, 1e3] times the decoupled infimum."""
    x = inst.decoupled_inf
    return np.geomspace(1e-6 * x, 1e3 * x, n_points)


def algebraic_inf(inst: LemmaInstance, sigma_grid: np.ndarray | None = None):
    """Brute-force infimum of the scaling set over a log grid.

    Membership uses the strict inequality of the set definition.  Returns
    ``None`` when no grid point belongs to the set (empty-set sentinel,
    distinct from a zero infimum).
    """
    grid = default_sigma_grid(inst) if sigma_grid is None else np.asarray(sigma_grid)
    if grid.ndim != 1 or len(grid) < 2 or np.any(grid <= 0):
        raise InvalidParameterError("sigma grid must be a 1-d positive range")
    p = critical_exponent(inst.N, inst.s)
    lhs = inst.A * grid ** (2.0 / p)
    rhs = grid + inst.B * inst.nu * grid ** (inst.theta / p)
    members = lhs < rhs
    if not members.any():
        return None
    return float(grid[members].min())


def small_nu_threshold(inst_at, eps: float, nu_hi: float = 1.0,
                       bisections: int = 40):
    """Empirical threshold below which the infimum stays above (1-eps) of exact.

    ``inst_at(nu)`` builds the instance.  Returns the largest tested nu for
    which the bound holds, found by bisection from [0, nu_hi]; None when it
    fails even for the smallest tested nu.
    """
    target = inst_at(0.0).decoupled_inf * (1.0 - eps)

    def holds(nu: float) -> bool:
        inf_nu = algebraic_inf(inst_at(nu))
        return inf_nu is not None and inf_nu > target

    if not holds(0.0):
        return None
    lo, hi = 0.0, nu_hi
    if holds(hi):
        return hi
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else None
