"""Existence-regime classification and the scaling-set lemma.

``classify`` evaluates, exactly as stated, the hypothesis list of each
existence result for the coupled system; size conditions on the coupling
strength are non-constructive and therefore reported as "requires small nu"
or "requires large nu" flags rather than booleans.

The lemma behind the coupled-mass lower bounds concerns the scaling set

    Sigma_nu = { sigma > 0 : A sigma^(2/p) < sigma + B nu sigma^(theta/p) }.

Dividing by sigma^(2/p) gives A < sigma^a + B nu sigma^b with
a = (2-s)/(N-s) > 0 and b = (theta-2)/p >= 0.  The right side increases in
sigma, so Sigma_nu is the half-line (sigma*, inf), where sigma* solves
sigma^a + B nu sigma^b = A; at nu = 0 it is A^((N-s)/(2-s)).  This is the
power-sum equation of the projection scale, and ``algebraic_inf`` solves it
with the same Newton loop, ``closed_forms.power_root``.  The lemma states
that for every eps > 0 the infimum stays above (1 - eps) A^((N-s)/(2-s))
for small nu; ``small_nu_threshold`` gives the supremum of those nu in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .closed_forms import _separability, critical_exponent, power_root
from .errors import InvalidParameterError
from .params import ProblemParams, order


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


@lru_cache(maxsize=1024)
def _exponent_part(alpha: float, beta: float, p: float) -> tuple:
    """Whether alpha + beta is critical (at p in ``order``; construction
    refuses sums above it), and order(alpha, 2) and order(beta, 2), once per
    (alpha, beta, p)."""
    return order(alpha + beta, p) >= 0, order(alpha, 2.0), order(beta, 2.0)


@lru_cache(maxsize=None)
def _statements(lam: int, cond_i: bool, cond_ii: bool, critical: bool,
                a2: int, b2: int, h_ok: bool) -> tuple:
    """Each statement's dict and the six cells of a sweep row, from the seven
    values that decide every case and branch: the lambda part, the exponent
    part and whether h vanishes at 0 and infinity.  At most 432 inputs, each
    decided once; the dicts are shared, so callers copy them."""
    # compactness gate: subcritical coupling, or critical coupling with a
    # weight vanishing at 0 and infinity.  Critical coupling with small nu is
    # the alternative of the other statements, so only this one is gated.
    thm_large_nu = {
        "applicable": not critical or h_ok,
        "requires": "large nu",
    }

    case, branch = None, None
    if lam >= 0 and b2 <= 0:
        case, branch = "i", "beta<2" if b2 < 0 else "beta=2+large nu"
    if lam <= 0 and a2 <= 0:
        alt = "alpha<2" if a2 < 0 else "alpha=2+large nu"
        case, branch = ("ii", alt) if case is None else ("both", branch + "|" + alt)
    thm_mixed = {
        "case": case or "none",
        "branch": branch,
        "applicable": case is not None,
        "requires": ("large nu" if branch and "large nu" in branch else "none"),
    }

    if lam == 0:
        small_case = "boundary"     # levels coincide; no statement selects a side
    elif a2 >= 0 and b2 >= 0:
        small_case = "iii:" + ("second" if lam < 0 else "first")
    elif a2 >= 0 and lam < 0:
        small_case = "i"
    elif b2 >= 0 and lam > 0:
        small_case = "ii"
    else:
        small_case = "none"
    thm_small_nu = {
        "case": small_case,
        "applicable": small_case not in ("none", "boundary"),
        "requires": "small nu",
    }

    if a2 >= 0 and cond_i:
        mm_case = "i"
    elif b2 >= 0 and cond_ii:
        mm_case = "ii"
    else:
        mm_case = "none"
    thm_minmax = {
        "case": mm_case,
        "applicable": mm_case != "none",
        "requires": "small nu",
        "cond_i": cond_i,
        "cond_ii": cond_ii,
    }

    cells = (not critical, critical, thm_large_nu["applicable"], thm_mixed["case"],
             small_case, mm_case)
    return (thm_large_nu, thm_mixed, thm_small_nu, thm_minmax), cells


def _decided(params: ProblemParams) -> tuple:
    """``_statements`` of ``params``, read from its two cached parts, and
    the dict of its separability test."""
    lambda_part, sep = _separability(params.N, params.s, params.lambda1, params.lambda2)
    return _statements(*lambda_part,
                       *_exponent_part(params.alpha, params.beta, params.crit_exp),
                       params.h_profile.vanishes_at_origin_and_infinity), sep


# the names of the cells of a sweep row, in the order sweep_cells gives them
SWEEP_COLUMNS = ("subcritical", "critical", "thm_large_nu", "thm_mixed",
                 "thm_small_nu", "thm_minmax")


def sweep_cells(params: ProblemParams) -> tuple:
    """The cells of a sweep row, named by ``SWEEP_COLUMNS``: ``subcritical``,
    ``critical``, whether the large-nu statement applies, and the cases of
    the mixed, small-nu and min-max statements, as in ``classify(params)``,
    which is not built."""
    return _decided(params)[0][1]


def classify(params: ProblemParams) -> RegimeReport:
    """Map a parameter tuple to the applicable existence statements.

    This is the one place that decides each statement's case; the solvers
    that need one (``mountain_pass``) ask it here, by ``params.order``.  The
    tuple is seen through two parts, each cached: the lambda part (the
    order of lambda1 against lambda2 and the level-separation window, per
    (N, s, lambda1, lambda2)) and the exponent part (the orders of alpha and
    beta against 2 and of alpha + beta against p, per (alpha, beta, p)).
    With whether h vanishes, these seven values decide every case, once per
    combination; the report's dicts are fresh on each call.
    """
    (statements, cells), sep = _decided(params)
    thm_large_nu, thm_mixed, thm_small_nu, thm_minmax = map(dict, statements)
    return RegimeReport(
        subcritical=cells[0], critical=cells[1],
        thm_large_nu=thm_large_nu, thm_mixed=thm_mixed,
        thm_small_nu=thm_small_nu, thm_minmax=thm_minmax,
        h_vanishes=params.h_profile.vanishes_at_origin_and_infinity,
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
            if self.B * self.nu == math.inf:
                bad.append("B, nu (the coupling factor B nu overflows)")
        if bad:
            raise InvalidParameterError(f"invalid lemma instance: {', '.join(bad)}")

    @property
    def decoupled_inf(self) -> float:
        """Exact infimum at nu = 0: A^((N-s)/(2-s))."""
        return self.A ** ((self.N - self.s) / (2.0 - self.s))


def _exponents(inst: LemmaInstance) -> tuple[float, float]:
    """Exponents a = (2-s)/(N-s) and b = (theta-2)/p of sigma^a + B nu sigma^b = A."""
    return ((2.0 - inst.s) / (inst.N - inst.s),
            (inst.theta - 2.0) / critical_exponent(inst.N, inst.s))


def algebraic_inf(inst: LemmaInstance) -> float:
    """Infimum sigma* of the scaling set, which is the half-line (sigma*, inf).

    sigma* is the root of sigma^a + B nu sigma^b = A, solved in log sigma
    by ``closed_forms.power_root``; it is the decoupled infimum at B nu = 0,
    in closed form at theta = 2, and 0.0 when every sigma > 0 belongs to the
    set (theta = 2 and B nu >= A) or when sigma* is below the float range.
    """
    bnu = inst.B * inst.nu
    if bnu == 0:
        return inst.decoupled_inf
    if inst.theta == 2:
        if bnu >= inst.A:
            return 0.0
        return (inst.A - bnu) ** ((inst.N - inst.s) / (2.0 - inst.s))
    a, b = _exponents(inst)
    # sigma* <= decoupled_inf exactly, so exp cannot overflow; the min removes
    # the rounding of the root, and a root below the float range is 0.0
    x = power_root(inst.A, ((a, 1.0), (b, bnu)))
    return min(math.exp(x), inst.decoupled_inf)


def small_nu_threshold(inst: LemmaInstance, eps: float) -> float:
    """Supremum nu_eps of the couplings whose infimum stays above
    (1 - eps) x0, x0 = ``decoupled_inf``: the bound holds exactly when
    nu < nu_eps.  ``inst.nu`` is not read.

    At sigma = (1 - eps) x0 the left side of sigma^a + B nu sigma^b = A
    equals (1 - eps)^a A + B nu sigma^b, which is below A exactly when
    nu < A (1 - (1 - eps)^a) / (B ((1 - eps) x0)^b).
    """
    if not 0 < eps < 1:
        raise InvalidParameterError(f"eps must lie in (0, 1), got {eps!r}")
    a, b = _exponents(inst)
    ln_keep = math.log1p(-eps)
    # ln(1 - (1-eps)^a); below eps = 1e-20 it is ln(a eps) to rounding, which
    # stays finite where a eps underflows
    ln_gap = (math.log(a) + math.log(eps) if eps < 1e-20
              else math.log(-math.expm1(a * ln_keep)))
    # in logs: a threshold beyond the float range is inf or 0.0, not an error
    ln_nu = (math.log(inst.A) - math.log(inst.B) + ln_gap
             - b * (ln_keep + math.log(inst.decoupled_inf)))
    try:
        return math.exp(ln_nu)
    except OverflowError:
        return math.inf
