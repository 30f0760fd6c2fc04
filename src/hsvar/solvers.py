"""Constrained solvers: ground-state descent, min-max path, semitrivial labels.

Inside the solvers a state is one (2, n) array, rows u and v, as its
gradient and metric direction are, and the min-max chain one (K+1, 2, n)
array, node k in row k.  ``operators.pair_dot`` pairs two couples, one
dot product per row; ``StatePair`` appears only where a solver takes or
returns a state.  The solvers pass these node-length arrays on and know
nothing of the discretization: the Dirichlet collar, the metric and the
tangent removal are ``operators``' (``PairMetric``, ``LambdaOperator``),
and every weighted sum is ``energy``'s (``Weights``, ``integrals``).

Ground states are computed by projected Polak-Ribiere+ conjugate gradient
on the constraint set of the truncated functional.  The metric M is the
factorized interior operator of each component's quadratic form, so m =
M^-1 g is a Sobolev gradient; the step direction is d = m + beta d_prev
with beta = max(0, <g, m - m_prev> / <g_prev, m_prev>).  The iteration
restarts from d = m when d is not a descent direction or its search fails.
The step must meet the strong Wolfe conditions on the projected energy: an
Armijo decrease, and a slope at most c2 of the initial one in magnitude.
The slope comes from the gradient each trial computes anyway, and so does
the next trial: a step that decreases the energy while its slope is still
steep is lengthened to the zero of the secant of the slope, and once a
trial overshoots, the next lies at the minimizer of the cubic that matches
energy and slope at both ends of the bracket.  A search that finds no
such step takes its last Armijo step.  Every accepted iterate is
reprojected.  Negative parts carry only quadratic energy under the
truncated functional, so they decay along the iteration and the computed
profiles come out nonnegative.

Bound states between the two one-component solutions are bracketed by a
discrete min-max path: nodes of the explicit interpolating path are
rescaled onto the truncated constraint set, and deformation sweeps relax
the neighbors of the maximum node transversally and let the maximum node
climb toward the barrier.  The chain is one object, ``_Chain``: its rows,
energies, plane coordinates, segment lengths, the crest's measurement and
the path's counts, kept current by two writers, one that projects a state
into a row and one that writes an accepted move.  A node move updates the
two segments next to it, and a side of the crest is resampled to equal
arclength only once its longest segment exceeds ``RESAMPLE_RATIO`` times
its shortest.  A crest row that no writer rewrote keeps its measurement, so
a failed climb does not measure the same crest again.  Each row keeps its
coordinates (a, b) in the plane of the two one-component profiles, (a z1, b
z2), until a move takes it off that plane; a node resampled between two
plane nodes is projected, and its segments measured, by the scalar algebra
of ``energy.Plane``, without a grid pass.  The reported level is the energy
of the crest, the chain's maximum node, whose gradient was last measured;
it is ``converged`` once that relative gradient is within
``crest_grad_tol``.  The path stops unconverged, with "stall", once the
least crest gradient has not fallen by ``PATH_STALL_DROP`` over the last
half of its sweeps, and at least over the last ``PATH_STALL_WINDOW``.

The descent and the moving path nodes share one line search, at one grid
pass per trial.  Its accept test may answer "too short" and report the
slope; the path's tests do neither, so the path halves its step from trial
to trial.  It stops once the bracket in the metric, relative to the state,
falls to sqrt(eps).  The climbing node's test (its gradient shrinks) judges
that floor after a failed first trial, and before its first trial when the
last climb failed, and stops there if the floor fails too.

The variational character of a one-component couple (0, z) is read from
the second variation in the directions (phi, 0), tangent to the constraint
set: with foreign exponent 2 the couple is a saddle iff nu exceeds the
lowest eigenvalue nu* of the foreign operator against the weight 2 h z^f
r^-s, computed by shifted inverse iteration (``LambdaOperator.lowest_mode``:
two plain solves set a shift that its factorization certifies below nu*);
other exponents fix nu* at 0 or inf.  Neither the weight nor z contains nu,
so nu* is where the label flips: the flip over a range of nu is read off
one probe, with no search over nu.  With host exponent p - 2 and constant
h the eigenproblem is a Poschl-Teller well, and the probe reports nu* in
closed form beside the computed one (``closed_forms.nu_star_closed_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .closed_forms import critical_level, exact_solution, nu_star_closed_form
from .energy import Plane, StatePair, Weights, integrals, project_arrays
from .errors import (DegenerateInputError, DegeneratePathError, HsvarError,
                     InvalidParameterError, PreconditionError)
from .grid import RadialFunction, RadialGrid, reference_grid
from .operators import LambdaOperator, PairMetric, pair_dot
from .params import ProblemParams, order
from .regimes import classify

RADIAL_NOTE = "radial ansatz: all states are radial profiles on a truncated window"
SQRT_EPS = math.sqrt(np.finfo(float).eps)

# line search: largest and default first trial step, Armijo constant, the
# strong-Wolfe slope constant of the descent, and the cap on trials per
# search.  The descent starts each search at its previous step, capped at
# STEP_MAX; lengthening may pass the cap.  Line-search projections on the
# ground-state workload, seeds 1-12 / 13-24 / 25-36: 1780 / 1968 / 1663
# with the cap, 2057 / 1963 / 1752 without it.  On seeds 1-12 with the cap,
# c2 = 0.3, 0.4, 0.5, 0.7 took 2511, 2111, 1780, 2281; without it c2 = 0.1,
# 0.3, 0.5, 0.7, 0.9 took 6717, 2436, 2057, 2526, 3072.
STEP0 = 1.0
STEP_MAX = 4.0
ARMIJO = 1e-4
WOLFE_C2 = 0.5
MAX_BACKTRACKS = 60
SHORT = "short"           # an accept answer: Armijo holds, step too short
STALL_WINDOW = 80         # descent iterations without decrease before stopping
# min-max path: a side of the crest is resampled to equal arclength once its
# longest segment exceeds RESAMPLE_RATIO times its shortest.  Criterion 10
# (4096 nodes, K = 32; it stalls at sweep 54 at each ratio) resamples 35 /
# 24 / 23 / 36 of its 108 sides at ratios 1.25 / 1.5 / 1.75 / 2.0, with 726
# / 562 / 645 / 760 projections against 1816 when every side is resampled;
# the bump-h crest to 1e-9 resamples 32 / 25 / 20 / 9 sides.
RESAMPLE_RATIO = 1.5
# min-max path: it stops with "stall" once its least crest gradient has not
# fallen by PATH_STALL_DROP over the last half of its sweeps, and at least
# over the last PATH_STALL_WINDOW.  On 4096 nodes with K = 32, criterion 10
# stops at sweep 54 of 150 and bump h at nu = 0.2 at 60 of 600, each at its
# full run's crest gradient to 4 digits.  Bump h at nu = 0.05 falls by under
# 1% from sweep 210 to 277 and reaches 1e-5 at 371; a window fixed at 50
# sweeps stops it at 260.  The 10 of 60 random bump-h tuples (N = 3, 4; 1024
# nodes, K = 16; 400 or 600 sweeps) that reach 1e-5 do so with either
# window.  One run is cut short: nu = 0.05 on 1024 nodes with K = 32 falls
# by under 1% from sweep 11 to 64, stops at 61 and would converge at 257.
PATH_STALL_WINDOW = 50
PATH_STALL_DROP = 0.01
# the most segments a min-max chain takes: its K + 1 states hold 64 MiB on
# the reference grid of 4096 nodes.  A larger count is refused before any
# state is built
MAX_PATH_NODES = 1024


# ---------------------------------------------------------------------------
# options and report types
# ---------------------------------------------------------------------------

def _check_floors(opts, **floors) -> None:
    """Reject option fields below their floors (or NaN), naming each."""
    bad = [f"{name}={getattr(opts, name)!r} (must be >= {lo})"
           for name, lo in floors.items() if not getattr(opts, name) >= lo]
    if bad:
        raise InvalidParameterError(
            f"invalid {type(opts).__name__}: {', '.join(bad)}")


@dataclass
class DescentOptions:
    tol_grad: float = 1e-5          # relative dual-norm gradient target
    max_iter: int = 8000

    def __post_init__(self):
        _check_floors(self, tol_grad=0, max_iter=0)


@dataclass
class PathOptions:
    n_path_nodes: int = 32          # number of segments; K+1 states
    max_sweeps: int = 40
    crest_grad_tol: float = 1e-5    # stop once the max node is near-critical

    def __post_init__(self):
        _check_floors(self, n_path_nodes=2, max_sweeps=0, crest_grad_tol=0)
        if self.n_path_nodes > MAX_PATH_NODES:
            raise InvalidParameterError(f"invalid PathOptions: n_path_nodes="
                                        f"{self.n_path_nodes!r} (must be <= {MAX_PATH_NODES})")


@dataclass
class ProbeOptions:
    """Not read by :func:`semitrivial_probe`, whose criterion has no random
    input; kept so that existing callers still construct it."""
    seed: int = 0


@dataclass
class SolverReport:
    kind: str
    params: dict
    energy: float
    gradient_norm: float
    nehari_residual: float
    iterations: int
    converged: bool
    level_diagnostics: dict
    profiles: StatePair
    classification: str | None = None
    stop_reason: str | None = None
    trace: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    note: str = RADIAL_NOTE

    def to_dict(self) -> dict:
        """Every field but the profiles, which are persisted as CSV."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "profiles"}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def compact_bump(t: np.ndarray, center: float, halfwidth: float,
                 amplitude: float) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - xi^2)) supported on |xi| < 1, xi=(t-c)/hw."""
    xi = (t - center) / halfwidth
    out = np.zeros_like(t)
    inside = np.abs(xi) < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out


def random_bump(grid: RadialGrid, rng: np.random.Generator) -> RadialFunction:
    """Random compactly supported bump of random sign, kept away from both
    truncation radii."""
    lo = max(grid.t[0] + 0.05 * (grid.t[-1] - grid.t[0]), math.log(0.02))
    hi = min(grid.t[-1] - 0.05 * (grid.t[-1] - grid.t[0]), math.log(50.0))
    center = rng.uniform(lo, hi)
    halfwidth = rng.uniform(1.0, 2.5)
    halfwidth = min(halfwidth, center - grid.t[0] - 0.5, grid.t[-1] - center - 0.5)
    amp = rng.choice([-1.0, 1.0])
    return RadialFunction(grid, compact_bump(grid.t, center, halfwidth, amp))


def extremal_pair(params: ProblemParams, grid: RadialGrid,
                  which: str) -> StatePair:
    """Discrete one-component solution couple, rescaled onto the constraint.

    ``which="first"`` gives (z1, 0); ``which="second"`` gives (0, z2), each
    the closed-form solution of unit scale.  The sampled closed form is
    projected onto the discrete constraint set so downstream identities
    hold at quadrature accuracy; the coupling of a one-component pair
    vanishes, so its scale is the single-term root.
    """
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")
    return _pair(grid, _semitrivial(_extremal(Weights(grid, params), which)[0],
                                    which))


def _semitrivial(z: np.ndarray, which: str) -> np.ndarray:
    """The couple (z, 0) for ``which="first"``, (0, z) for "second"."""
    x = np.zeros((2, z.size))
    x[0 if which == "first" else 1] = z
    return x


def _extremal(wt: Weights, which: str) -> tuple[np.ndarray, float]:
    """The nonzero component of :func:`extremal_pair` and its energy, on
    the caller's weights."""
    pr = wt.params
    lam = pr.lambda1 if which == "first" else pr.lambda2
    z = exact_solution(pr.N, lam, pr.s, 1.0, wt.grid.r)
    t, I = project_arrays(wt, *_semitrivial(z, which))
    return t * z, I.energy(t)


def _levels(params: ProblemParams) -> dict:
    E1 = critical_level(params.N, params.lambda1, params.s)
    E2 = critical_level(params.N, params.lambda2, params.s)
    return {"level_1": E1, "level_2": E2,
            "min_level": min(E1, E2), "sum_levels": E1 + E2}


# ---------------------------------------------------------------------------
# ground state
# ---------------------------------------------------------------------------

def _rel_grad(slope: float, nsq: float) -> float:
    """Dual-norm gradient relative to the pair norm, from g M^-1 g and ||x||^2."""
    return math.sqrt(slope) / math.sqrt(max(nsq, 1e-300))


def _armijo(E: float, slope: float, st: float, t: float, I) -> bool:
    """Sufficient decrease from E of the trial at step st, slope <g, d>."""
    return I.energy(t) <= E - ARMIJO * st * slope


def _line_search(wt: Weights, x: np.ndarray, d: np.ndarray, slope: float,
                 nsq: float, E: float, accept=None, grad: bool = False,
                 step: float = STEP0, *, floor_after: int | None = None):
    """Line search along -d from the couple x, one grid pass per trial.

    The trial at step st is c = x - st d, both (2, n) arrays.  It is
    projected from its integrals I (with the gradient parts when
    ``grad``) and judged by ``accept(st, t, I)``, by default the Armijo
    decrease from ``E``: true accepts it, false (or a failed projection)
    marks the step too long, and ``SHORT`` too short.  A test may return
    ``(verdict, phi'(st), g)`` instead, the slope of phi(st) = I.energy(t)
    with the gradient it came from; phi(0) = ``E`` and phi'(0) = -``slope``.
    The next step then comes from a model of phi: while no trial was too
    long, the zero of the secant of phi' through the last short trial and
    the one before it, or 0, within [2 st, 16 st] (:func:`_secant_step`);
    after that, the minimizer of the cubic through the longest short step
    (0 if none) and the shortest long one (:func:`_cubic_step`), or the
    midpoint of that bracket when the last two steps together failed to
    halve it.  Without slopes the step doubles, then bisects, so a boolean
    ``accept`` tries st, st/2, st/4, ...  The search stops once the next
    step lies within sqrt(eps) of the longest short one, in the metric
    gradient relative to the state (the distance times ``sqrt(slope /
    nsq)``), or after ``MAX_BACKTRACKS`` trials.

    With ``floor_after`` (for a boolean ``accept``) the search judges the
    last rung of that halving ladder, the floor, once ``floor_after``
    trials have failed: 1 judges it after a failed first trial, 0 before
    the first trial.  A floor that fails ends the search; one that passes
    is not taken, and the ladder st, st/2, ... goes on as without it, so
    the accepted step is the ladder's own.  A floor at st or st/2 is not
    judged apart.  The path's climbing node uses it: its test asks the
    gradient to shrink, which a short enough step does whenever the
    direction lowers the gradient at all.

    Returns ``(trials, found)``: ``found`` is ``(st, t, I, t c, g)`` of the
    accepted trial, else of the last short one, else None; g is the
    gradient its test reported, None from a boolean test.
    """
    if accept is None:
        accept = partial(_armijo, E, slope)
    rel = _rel_grad(slope, nsq)

    def judge(st):
        """Verdict, (st, phi, phi') (None for what is unknown) and found."""
        c = x - st * d
        try:
            t, I = project_arrays(wt, *c, positive=True, grad=grad)
        except HsvarError:
            return False, (st, None, None), None
        verdict, end, g = accept(st, t, I), (st, None, None), None
        if isinstance(verdict, tuple):
            verdict, dphi, g = verdict
            end = (st, I.energy(t), dphi)
        return verdict, end, (st, t, I, t * c, g) if verdict else None

    st, short, probes, widths = step, None, 0, (math.inf, math.inf)
    lo, hi = (0.0, E, -slope), None
    if floor_after is not None:
        # the last step the halving below tries, as lo stays 0
        floor = st
        for _ in range(MAX_BACKTRACKS - 1):
            if 0.5 * floor * rel <= SQRT_EPS:
                break
            floor *= 0.5
        # a floor at st or st/2 is a rung the ladder tries next anyway
        floor_after = floor_after if floor < 0.5 * st else None
    for trial in range(1, MAX_BACKTRACKS + 1):
        if trial - 1 == floor_after:
            # judged once, after floor_after failed trials; one that passes
            # is not taken
            probes = 1
            if not judge(floor)[0]:
                return trial, None
        verdict, end, found = judge(st)
        if verdict is SHORT:
            prev, lo, short = lo, end, found
        elif verdict:
            return trial + probes, found
        else:
            hi = end
        if hi is None:
            st = _secant_step(prev, lo)
        else:
            # a bracket that the last two steps together failed to halve is
            # bisected, so it halves at least every third trial
            width = hi[0] - lo[0]
            st = (0.5 * (lo[0] + hi[0]) if width > 0.5 * widths[0]
                  else _cubic_step(lo, hi))
            widths = (widths[1], width)
        if (st - lo[0]) * rel <= SQRT_EPS:
            break
    return trial + probes, short


def _secant_step(a, b) -> float:
    """The next trial after the short trial b = (step, phi, phi') of a
    search that has not overshot, with a the short trial before it (or 0):
    the zero of the secant of phi' through both, within [2, 16] times b's
    step; twice it when the slopes are equal or unknown."""
    (x0, _, d0), (x1, _, d1) = a, b
    if d0 is None or d1 is None or d0 == d1:
        return 2.0 * x1
    x = x1 - d1 * (x1 - x0) / (d1 - d0)
    return min(x, 16.0 * x1) if x > 2.0 * x1 else 2.0 * x1


def _cubic_step(lo, hi) -> float:
    """The next trial in the bracket between the short end lo and the long
    end hi, each (step, phi, phi'): the minimizer of the cubic through both
    (Nocedal & Wright, eq. 3.59), at least a tenth of the bracket inside
    it; the midpoint when an end has no slope or the cubic has no real
    minimizer."""
    (a, fa, da), (b, fb, db) = lo, hi
    mid = 0.5 * (a + b)
    if da is None or db is None or not a < b:
        return mid
    w = b - a
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return mid
    d2 = math.sqrt(disc)
    den = db - da + 2.0 * d2
    x = b - w * (db + d2 - d1) / den if den else math.nan
    return min(max(x, a + 0.1 * w), b - 0.1 * w) if x == x else mid


def _strong_wolfe(E: float, gd: float, d: np.ndarray):
    """The descent's accept test along -d, with gd = <g, d> > 0.

    The projected trial t (x - st d) has slope phi'(st) = -t <g(st), d>: the
    Nehari term drops out, as <g, x> = Psi = 0 on the constraint set.  A
    trial that meets the Armijo test is accepted when |phi'(st)| <=
    ``WOLFE_C2`` gd, and is too short while phi'(st) < -``WOLFE_C2`` gd.
    The test reports phi'(st) and g(st) with its verdict, on every trial,
    for the search's step model.
    """
    def accept(st, t, I):
        g = I.gradient(t)
        dphi = -t * pair_dot(g, d)
        if not _armijo(E, gd, st, t, I):
            verdict = False
        elif dphi < -WOLFE_C2 * gd:
            verdict = SHORT
        else:
            verdict = dphi <= WOLFE_C2 * gd
        return verdict, dphi, g
    return accept


def _descend(wt: Weights, pair: StatePair, metric: PairMetric,
             opts: DescentOptions):
    """Projected Polak-Ribiere+ conjugate gradient in the metric M.

    With m = M^-1 g, the step runs along -d for d = m + beta d_prev, where
    beta = max(0, <g, m - m_prev> / <g_prev, m_prev>) (Antoine, Levitt &
    Tang, J. Comput. Phys. 343:92, 2017).  The iteration restarts from the
    steepest direction d = m when <g, d> <= 0 or when the search along d
    fails; only a failed search along m stops it.  The line search starts
    at the previous accepted step, at most ``STEP_MAX`` (``STEP0`` at
    first), and looks for a strong-Wolfe step (:func:`_strong_wolfe`,
    Nocedal & Wright, Numerical Optimization, 2nd ed., 3.1 and 5.2); every
    trial reports its slope, from which :func:`_line_search` picks the
    next one (Alg. 3.5-3.6 there).  A search that reaches its floor takes
    its last Armijo step; it fails only when no trial met the Armijo test.
    Every accepted trial is reprojected, so the iterates stay on the
    constraint set.

    Returns (pair, t, I, iterations, rel_grad, trace, stop_reason,
    counts), with pair = t x for the integrals I of x; ``counts`` holds
    ``restarts``, the steps along m, and ``trials``, the search projections.
    The loop runs on (2, n) arrays, rows u and v: the iterate x, the
    gradient g and the directions m and d.  An accepted trial's energy and
    norm after projection come from its integrals before projection, by
    homogeneity, and its gradient is the one its accept test assembled, so
    a trial makes one grid pass.
    """
    x = np.stack((pair.u.values, pair.v.values))
    t, I = project_arrays(wt, *x, positive=True, grad=True)
    x *= t
    E, nsq, g = I.energy(t), t * t * I.A, I.gradient(t)
    trace = [E]
    step, last_drop, restarts, trials = STEP0, 0, 0, 0
    stop = "max_iter"
    m = d = None

    def search(d, gd):
        nonlocal trials
        n, found = _line_search(wt, x, d, gd, nsq, E, _strong_wolfe(E, gd, d),
                                grad=True, step=step)
        trials += n
        return found

    for it in range(opts.max_iter):
        m_new, slope = metric.direction(g)
        rel_g = _rel_grad(slope, nsq)
        if rel_g <= opts.tol_grad or it - last_drop > STALL_WINDOW:
            stop = "tolerance" if rel_g <= opts.tol_grad else "stall"
            break
        # m vanishes at the two end nodes, so these products run over the
        # interior; slope > 0 here, as the tolerance test passed
        beta = 0.0 if m is None else max(0.0, pair_dot(g, m_new - m) / slope_prev)
        m, slope_prev = m_new, slope
        found = None
        if beta > 0.0:
            d = m + beta * d
            gd = pair_dot(g, d)
            if gd > 0.0:
                found = search(d, gd)
        if found is None:
            restarts += 1
            d = m
            found = search(d, slope)
            if found is None:
                stop = "line_search"
                break
        st, t, I, x, g = found
        step = min(st, STEP_MAX)
        if E - I.energy(t) > 1e-15 * (abs(E) + 1.0):
            last_drop = it
        E, nsq = I.energy(t), t * t * I.A
        trace.append(E)
    else:
        # the gradient of the iterate returned, not of the one before it
        it = opts.max_iter
        rel_g = _rel_grad(metric.direction(g)[1], nsq)
    return (_pair(wt.grid, x), t, I, it, rel_g, trace, stop,
            {"restarts": restarts, "trials": trials})


def ground_state(params: ProblemParams, init: StatePair,
                 opts: DescentOptions | None = None) -> SolverReport:
    """Minimize the truncated functional on its constraint set.

    Reports whether the final level lies below the smaller one-component
    level (the compactness threshold of the decoupled regime) and whether
    both components carry critical mass.
    """
    opts = opts or DescentOptions()
    if init.is_zero():
        raise DegenerateInputError("ground_state requires a nonzero initial pair")
    # the weights check the grid's dimension before the metric reads it
    wt = Weights(init.grid, params)
    metric = PairMetric(init.grid, params.lambda1, params.lambda2)
    pair, t, I, iters, rel_g, trace, stop, counts = _descend(wt, init, metric,
                                                             opts)
    # the integrals of pair = t x, by homogeneity from those of x
    E, tp = I.energy(t), t ** params.crit_exp
    hs_u, hs_v = tp * I.hs_u, tp * I.hs_v
    levels = _levels(params)
    levels.update(below_min_semitrivial=bool(E < levels["min_level"]),
                  crit_integral_u=hs_u, crit_integral_v=hs_v)
    classification = ("coupled" if hs_u > 1e-6 and hs_v > 1e-6
                      else "semitrivial_like")
    return SolverReport(
        kind="ground_state", params=params.to_dict(), energy=E,
        gradient_norm=rel_g, nehari_residual=abs(I.residual(t)) / (t * t * I.A),
        iterations=iters, converged=stop == "tolerance", level_diagnostics=levels,
        profiles=pair, classification=classification, stop_reason=stop,
        trace=trace[-200:],
        extra={"monotone": bool(all(b <= a + 1e-12 * (abs(a) + 1.0)
                                    for a, b in zip(trace, trace[1:]))),
               **counts})


def escalate_nu(params: ProblemParams, grid: RadialGrid) -> float:
    """The least nu of 1, 2, 4, ..., 2^59 at which the coupling term exceeds
    half the pair norm on the projected couple of the two one-component
    profiles, else 2^60.

    The integrals A, B, C of the couple do not depend on nu.  On the
    constraint t^2 A = t^p B + nu q t^q C, so the coupling dominates exactly
    when t^(p-2) B < A / 2, that is, since the scale t falls as nu grows,
    when nu > nu_c = A / (2 q C t_c^(q-2)), t_c = (A / (2B))^(1/(p-2)).
    """
    wt = Weights(grid, params)
    I = integrals(wt, _extremal(wt, "first")[0], _extremal(wt, "second")[0],
                  positive=True)
    p, q = params.crit_exp, params.alpha + params.beta
    # t_c^(q-2) = (A / (2B))^((q-2)/(p-2)), an exponent in (0, 1]
    d = 2.0 * q * I.C * (I.A / (2.0 * I.B)) ** ((q - 2.0) / (p - 2.0))
    nu_c = min(I.A / d if d > 0 else math.inf, 2.0 ** 59)
    # frexp: 2^(e-1) <= nu_c < 2^e, so 2^e is the least power of two above nu_c
    return 1.0 if nu_c < 1.0 else math.ldexp(1.0, math.frexp(nu_c)[1])


# ---------------------------------------------------------------------------
# min-max path
# ---------------------------------------------------------------------------

class _Chain:
    """The min-max chain and what is known of it, kept current by its two
    writers.

    ``P`` is the (K+1, 2, n) chain, node k in P[k]; ``E`` the node
    energies; ``Q`` the (K+1, 2) coordinates of the nodes in the plane of
    the two one-component profiles (z1, z2) of ``plane``: node k is (Q[k, 0]
    z1, Q[k, 1] z2) while it lies in that plane, and Q[k] is NaN once it
    has left it; ``seg`` the K segment lengths.  ``crest`` is the row that
    ``top``, the crest's measurement ``(I, g, m, slope)``, was taken of,
    -1 once that row is rewritten; ``climbed`` is whether the last climb
    moved the crest.  The counts are the path's: side resamplings, line-
    search trials, projections made in the plane and failed climbs.

    :meth:`project` writes a projected state to a row, and :meth:`move` an
    accepted line-search trial and the two segments next to it; each drops
    the crest's measurement when it rewrites the crest row.  A resample
    projects its rows and then measures its segments (:meth:`measure`).
    """

    def __init__(self, wt: Weights, plane: Plane, Q: np.ndarray):
        self.wt, self.plane, self.Q = wt, plane, Q
        self.P = Q[:, :, None] * plane.z
        self.E = np.empty(len(Q))
        self.seg = np.empty(len(Q) - 1)
        self.crest, self.top, self.climbed = -1, None, True
        self.resamples = self.trials = self.plane_projections = self.failed_climbs = 0

    def project(self, k: int, x) -> None:
        """Write the projection of x onto the constraint set to row k, with
        its energy.  A plane state x = (a, b), the couple (a z1, b z2), is
        projected by scalar algebra and its row stays in the plane, at t
        (a, b); a (2, n) couple x is projected by a grid pass and its row is
        off the plane."""
        if isinstance(x, np.ndarray):
            t, I = project_arrays(self.wt, *x, positive=True)
            np.multiply(x, t, out=self.P[k])
            self.Q[k] = np.nan
        else:
            a, b = x
            I = self.plane.integrals(a, b)
            t = I.scale()
            self.Q[k] = t * a, t * b
            np.multiply(self.Q[k, :, None], self.plane.z, out=self.P[k])
            self.plane_projections += 1
        self.E[k] = I.energy(t)
        if k == self.crest:
            self.crest = -1

    def move(self, k: int, t: float, J, x: np.ndarray) -> None:
        """Write the accepted trial x = t c of a line search, whose
        integrals before projection are J, to row k, which leaves the plane,
        and measure the two segments next to it."""
        self.P[k] = x
        self.E[k], self.Q[k] = J.energy(t), np.nan
        if k == self.crest:
            self.crest = -1
        self.measure(k - 1, k + 1)

    def measure(self, lo: int, hi: int) -> None:
        """Measure segments lo .. hi-1, segment k joining nodes k and k+1:
        by the plane's algebra when both nodes lie in it, else one
        :meth:`Weights.distance`."""
        P, Q = self.P, self.Q
        for k in range(lo, hi):
            dq = Q[k + 1] - Q[k]
            self.seg[k] = (self.wt.distance(P[k + 1] - P[k]) if np.isnan(dq[0])
                           else self.plane.distance(dq))

    def measure_crest(self, metric: PairMetric):
        """The crest, the chain's maximum node, and its measurement; a crest
        row that no writer rewrote since it was measured is not measured
        again."""
        k = int(np.argmax(self.E))
        if k in (0, len(self.E) - 1):
            raise DegeneratePathError("path maximum collapsed onto an endpoint")
        if k != self.crest:
            self.crest, self.top = k, _node_direction(self.wt, metric, self.P[k])
        return k, self.top


def _initial_path(wt: Weights, K: int) -> _Chain:
    """Explicit interpolating path ((1-t)^(1/2) z1, t^(1/2) z2), rescaled.

    Returns the :class:`_Chain` of K segments in the plane of the two
    one-component profiles (z1, z2).  Every node starts in the plane, so
    the interior nodes are projected from their coordinates, without a grid
    pass, and the segments by the plane's algebra.
    """
    (z1, E1), (z2, E2) = _extremal(wt, "first"), _extremal(wt, "second")
    tk = np.arange(K + 1) / K
    chain = _Chain(wt, Plane(wt, z1, z2),
                   np.stack((np.sqrt(1.0 - tk), np.sqrt(tk)), axis=1))
    chain.E[0], chain.E[K] = E1, E2
    for k in range(1, K):
        chain.project(k, chain.Q[k].tolist())
    chain.measure(0, K)
    return chain


def _pair(grid: RadialGrid, x: np.ndarray) -> StatePair:
    return StatePair(RadialFunction(grid, x[0]), RadialFunction(grid, x[1]))


def _pair_grad_norm(metric: PairMetric, I, t: float = 1.0) -> float:
    """Relative dual-norm gradient at t x, from the integrals I of x."""
    return _rel_grad(metric.direction(I.gradient(t))[1], t * t * I.A)


def _node_direction(wt: Weights, metric: PairMetric, x: np.ndarray):
    """Integrals, gradient g, metric direction m and slope <g, m> of a path
    node."""
    I = integrals(wt, *x, positive=True, grad=True)
    g = I.gradient()
    return (I, g, *metric.direction(g))


def _redistribute(chain: _Chain, lo: int, hi: int) -> bool:
    """Equal-arclength resampling in place of the side lo .. hi of a chain,
    its end nodes kept exact.

    It resamples only when the side's longest segment exceeds
    ``RESAMPLE_RATIO`` times its shortest.  Each resampled node is a convex
    combination of two nodes on the constraint set, so it is projected
    again (:meth:`_Chain.project`): from its interpolated plane coordinates
    when both nodes lie in the plane, else by a grid pass over the
    interpolated couple.  Every target is interpolated from the side as it
    was before any row is written, so the side is not copied; then the
    side's segments are measured afresh.  Returns whether it resampled.
    """
    m, seg = hi - lo, chain.seg[lo:hi]
    if m < 2 or seg.max() <= RESAMPLE_RATIO * seg.min():
        return False
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, arc[-1], m + 1)[1:-1]
    j = np.minimum(np.searchsorted(arc, targets, side="right") - 1, m - 1)
    theta = (targets - arc[j]) / np.maximum(arc[j + 1] - arc[j], 1e-300)
    # target i lies between old nodes j[i-1] and j[i-1]+1: its plane
    # coordinates, NaN where a node is off the plane, and then the couple
    P, Q = chain.P[lo:hi + 1], chain.Q[lo:hi + 1]
    Qt = (1 - theta)[:, None] * Q[j] + theta[:, None] * Q[j + 1]
    xs = [(1 - th) * P[r] + th * P[r + 1] if math.isnan(q[0]) else q
          for r, th, q in zip(j, theta, Qt.tolist())]
    for i, x in enumerate(xs, start=lo + 1):
        chain.project(i, x)
    chain.measure(lo, hi)
    chain.resamples += 1
    return True


def _move_node(chain: _Chain, metric: PairMetric, k: int) -> bool:
    """One line search that moves interior node k of a chain in place.

    The chain's measured crest climbs, from its measurement; any other node
    is measured here and relaxes.  A climb judges the floor of its step
    ladder after a failed first step, or before its first step when the
    last climb failed.  An accepted trial is written to the chain
    (:meth:`_Chain.move`), which takes the node off the plane.  The trials,
    and a failed climb, are counted on the chain.  Returns whether the node
    moved.  The move's arrays are freed on return, before the next sweep
    resamples the chain.
    """
    P, wt = chain.P, chain.wt
    climbing = k == chain.crest
    I, g, m, slope = chain.top if climbing else _node_direction(wt, metric, P[k])
    # the maximum node climbs: the gradient component along the path tangent
    # P[k+1] - P[k-1] is reversed so the node ascends the path direction
    # while relaxing transversally; neighbors relax transversally only.  The
    # move is a copy: a measurement is not edited, as the crest's may serve
    # the next sweep
    d, d_slope = metric.transversal(m, g, P[k + 1] - P[k - 1],
                                    2.0 if climbing else 1.0)
    if climbing:
        gnorm = _rel_grad(slope, I.A)

        def accept(st, t, J):
            # the climbing node is accepted when its gradient shrinks
            return _pair_grad_norm(metric, J, t) < gnorm
        floor_after = 1 if chain.climbed else 0
    else:
        accept, slope, floor_after = None, d_slope, None
    # neighbors take the Armijo test; the climbing node's step floor uses
    # its unmodified slope
    n, found = _line_search(wt, P[k], d, slope, I.A, chain.E[k], accept,
                            grad=climbing, floor_after=floor_after)
    chain.trials += n
    if climbing:
        chain.climbed = found is not None
        chain.failed_climbs += not chain.climbed
    if found is None:
        return False
    _, t, J, x, _ = found
    chain.move(k, t, J, x)
    return True


def mountain_pass(params: ProblemParams, grid: RadialGrid | None = None,
                  opts: PathOptions | None = None) -> SolverReport:
    """Estimate the min-max level between the two one-component couples.

    Its precondition is the case of ``classify(params).thm_minmax``: the
    level-separation window in one orientation together with the matching
    exponent bound (``alpha >= 2`` for orientation (i), ``beta >= 2`` for
    orientation (ii)); case "none" raises :class:`PreconditionError`, and
    ``extra["orientation"]`` is the case.  Each sweep applies descent steps
    with reprojection to the current maximum node and its two neighbors;
    the along-path component of each move is removed so nodes relax
    transversally instead of sliding off the barrier.  The chain
    (:class:`_Chain`) keeps its K segment lengths sqrt(sum w (du^2 +
    dv^2)): a moved node k updates segments k-1 and k only.  From the
    second sweep on, each side of the crest is
    resampled to equal arclength when its longest segment exceeds
    ``RESAMPLE_RATIO`` times its shortest (:func:`_redistribute`);
    ``extra["resamples"]`` counts those side resamplings,
    ``extra["trials"]`` the projections of all its line searches,
    ``extra["plane_projections"]`` the chain projections made in the plane
    of the two one-component profiles, without a grid pass, and
    ``extra["climbs"]`` and ``extra["failed_climbs"]`` the crest's climbing
    searches, one per sweep that moves the chain (so as many as
    ``iterations``), and those that left it in place; a failed climb makes
    the next one judge its step floor first.  The path stops with ``stop_reason`` "tolerance" once
    the crest's relative gradient is within ``crest_grad_tol``, "stall"
    once the least crest gradient has not fallen by ``PATH_STALL_DROP`` over
    the last half of the sweeps and at least the last ``PATH_STALL_WINDOW``
    (so a run of fewer sweeps never stalls), "no_improvement" when no node
    moved, else "max_sweeps".  The report describes the last crest
    measured: its energy, profiles, relative gradient, Nehari residual and
    index.
    ``trace`` holds the chain maximum before the first sweep and after each
    one.
    """
    opts = opts or PathOptions()
    grid = grid or reference_grid(params.N)
    orientation = classify(params).thm_minmax["case"]
    if orientation == "none":
        raise PreconditionError(
            "min-max geometry requires the separation window plus the "
            "matching exponent >= 2 in the same orientation")

    K = opts.n_path_nodes
    chain = _initial_path(Weights(grid, params), K)
    metric = PairMetric(grid, params.lambda1, params.lambda2)
    trace, gnorm_trace = [float(chain.E.max())], []
    stop = "max_sweeps"
    # sweeps 0 .. max_sweeps-1 move the chain; the extra pass only measures
    # the crest of the chain that the last sweep left
    for sweep in range(opts.max_sweeps + 1):
        if 0 < sweep < opts.max_sweeps:
            # equal arclength on each side of the anchored crest keeps the
            # chain sampled near the barrier without discarding the climbing
            # node's progress; without it, downhill moves let the neighbor
            # spacing grow and the discrete maximum dodge the barrier.  A
            # resample moves every interior node of its side and projects it
            # again, so it waits until the spacing has degraded.
            a = int(np.argmax(chain.E))
            _redistribute(chain, 0, a)
            _redistribute(chain, a, K)
        # the crest's gradient and direction serve its climb below as well
        k_max, (I, _, _, slope) = chain.measure_crest(metric)
        gnorm = _rel_grad(slope, I.A)
        gnorm_trace.append(gnorm)
        if gnorm <= opts.crest_grad_tol:
            stop = "tolerance"
            break
        # the least crest gradient fell by less than PATH_STALL_DROP over the
        # last half of the run, and at least over its last PATH_STALL_WINDOW
        # sweeps
        lag = min(sweep - PATH_STALL_WINDOW, sweep - sweep // 2)
        if lag >= 0 and (min(gnorm_trace) >
                         (1.0 - PATH_STALL_DROP) * min(gnorm_trace[:lag + 1])):
            stop = "stall"
            break
        if sweep == opts.max_sweeps:
            break

        improved = False
        for k in (k_max - 1, k_max, k_max + 1):
            if 0 < k < K:
                improved |= _move_node(chain, metric, k)
        trace.append(float(chain.E.max()))
        if not improved:
            stop = "no_improvement"
            break

    levels = _levels(params)
    levels["endpoint_energies"] = [float(chain.E[0]), float(chain.E[-1])]
    levels["initial_path_max"] = trace[0]
    # by Hoelder, the upper envelope of the interpolating path peaks at
    # t = 1/2, at E1 + E2
    levels["interpolation_bound_max"] = float(chain.E[0] + chain.E[-1])
    return SolverReport(
        kind="mountain_pass", params=params.to_dict(),
        energy=float(chain.E[k_max]), gradient_norm=gnorm,
        nehari_residual=abs(I.residual()) / max(I.A, 1e-300),
        iterations=len(trace) - 1,
        converged=stop == "tolerance", stop_reason=stop,
        level_diagnostics=levels,
        profiles=_pair(grid, chain.P[k_max].copy()),
        trace=trace,
        # one climb per sweep that moves the chain
        extra={"gradient_norm_trace": gnorm_trace, "crest_index": k_max,
               "resamples": chain.resamples, "trials": chain.trials,
               "plane_projections": chain.plane_projections,
               "climbs": len(trace) - 1, "failed_climbs": chain.failed_climbs,
               "orientation": orientation})


# ---------------------------------------------------------------------------
# semitrivial classification
# ---------------------------------------------------------------------------

def _label(nu: float, nu_star: float, stop: str | None) -> str:
    """Label of (0, z) at coupling nu, from its threshold nu* and the stop
    reason of the inverse iteration that computed it (None when nu* is
    0 or inf)."""
    if stop == "max_iter":
        return "inconclusive"
    return "saddle" if nu > nu_star else "local_min"


def semitrivial_probe(params: ProblemParams, which: str,
                      grid: RadialGrid | None = None,
                      opts: ProbeOptions | None = None) -> SolverReport:
    """Classify a one-component couple as local minimum or saddle.

    At a couple (0, z), alpha, beta > 1 make the cross terms of the second
    variation vanish, and the directions (phi, 0) are tangent to the
    constraint set, so the label follows from the foreign exponent e (alpha
    at (0, z2), beta at (z1, 0)): the couple is a saddle iff nu > nu*, with
    nu* = 0 for e < 2 and nu* = inf for e > 2 in ``params.order``.  For e = 2,
    nu* is the lowest eigenvalue of K phi = mu W phi, where K is the foreign
    component's interior operator and W = 2 h z^f r^-s, quadrature-weighted,
    with f the host exponent; shifted inverse iteration computes it, the
    report's ``iterations`` counts its solves, and the classification is
    ``inconclusive`` only when the cap on solves is hit.  For e = 2 only,
    ``extra["nu_star_closed_form"]`` holds
    :func:`~hsvar.closed_forms.nu_star_closed_form` of the oriented tuple:
    nu* in closed form, or None outside its family.  ``opts`` is not read:
    nothing here is random.
    """
    grid = grid or reference_grid(params.N)
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")

    # orient so the host component is v and the foreign component is u
    swapped = which == "first"
    work = params.swapped() if swapped else params

    wt = Weights(grid, work)
    z, base = _extremal(wt, "second")

    e, side, iters, stop, closed = work.alpha, order(work.alpha, 2.0), 0, None, {}
    if side:
        nu_star = 0.0 if side < 0 else math.inf
    else:
        nu_star, _, iters, done = LambdaOperator(grid, work.lambda1).lowest_mode(
            wt.foreign_weight(z, work.beta), z)
        stop = "tolerance" if done else "max_iter"
        closed = {"nu_star_closed_form": nu_star_closed_form(work)}
    classification = _label(work.nu, nu_star, stop)

    levels = _levels(params)
    levels["base_level"] = base
    return SolverReport(
        kind="semitrivial_probe", params=params.to_dict(), energy=base,
        gradient_norm=0.0, nehari_residual=0.0,
        iterations=iters, converged=classification != "inconclusive",
        level_diagnostics=levels,
        profiles=_pair(grid, _semitrivial(z, which)),
        classification=classification, stop_reason=stop,
        extra={"which": which, "nu_star": nu_star, "foreign_exponent": e, **closed})


def classification_flip(params_at, nu_lo: float, nu_hi: float, which: str,
                        grid: RadialGrid | None = None,
                        opts: ProbeOptions | None = None) -> dict:
    """Where the probe classification flips from local_min to saddle in nu.

    ``params_at(nu)`` builds the parameter tuple and must vary only nu; one
    that changes anything else raises :class:`InvalidParameterError`.  The
    bounds must be finite with ``0 < nu_lo < nu_hi``, else
    :class:`InvalidParameterError`.  The threshold nu* depends on the weight
    W = 2 h z^f r^-s and the host extremal z, neither of which contains nu,
    so one probe, at ``nu_lo``, gives it, and every nu is labeled by
    comparing it with that nu*, by the rule :func:`semitrivial_probe`
    applies.  The flip is found when ``nu_lo`` labels local_min and
    ``nu_hi`` saddle; the bracket is then nu* (local_min) and the next float
    above it (saddle), else ``(nu_lo, nu_hi)``.  Returns the bracket, the
    label at each labeled nu, whether the flip was found, and nu*.
    """
    if not 0.0 < nu_lo < nu_hi < math.inf:
        raise InvalidParameterError(
            f"flip bounds need finite 0 < nu_lo < nu_hi, got ({nu_lo!r}, {nu_hi!r})")
    base = params_at(nu_lo)
    rep = semitrivial_probe(base, which, grid=grid, opts=opts)
    nu_star, stop = rep.extra["nu_star"], rep.stop_reason
    labels = {}

    def label(nu):
        params = params_at(nu)
        if replace(params, nu=base.nu) != base:
            raise InvalidParameterError(
                f"params_at must vary only nu; at nu={nu!r} it changes more")
        labels[nu] = _label(params.nu, nu_star, stop)
        return labels[nu]

    found = (label(nu_lo), label(nu_hi)) == ("local_min", "saddle")
    bracket = (nu_star, math.nextafter(nu_star, math.inf)) if found else (nu_lo, nu_hi)
    for nu in bracket:
        label(nu)
    return {"bracket": bracket, "labels": labels, "flip_found": found,
            "nu_star": nu_star}
