"""Constrained solvers: ground-state descent, min-max path, semitrivial probes.

Ground states are computed by projected descent on the constraint set of the
truncated functional: the gradient is preconditioned by the factorized
interior operator of each component's quadratic form (a Sobolev-gradient
step), the step is backtracked until an Armijo decrease of the projected
energy holds, and every accepted iterate is reprojected.  Negative parts
carry only quadratic energy under the truncated functional, so they decay
along the flow and the computed profiles come out nonnegative.

Bound states between the two one-component solutions are bracketed by a
discrete min-max path: nodes of the explicit interpolating path are
rescaled onto the truncated constraint set, and deformation sweeps
redistribute the chain, relax the neighbors of the maximum node
transversally, and let the maximum node climb toward the barrier.  Every
sweep's chain is an admissible discrete path, so the smallest chain maximum
seen is a non-increasing estimate of the min-max level; it is
``converged`` once the crest's relative gradient is within ``crest_grad_tol``.

The descent and the moving path nodes share one line search, at one grid
pass per trial.  It stops once the step in the metric, relative to the
state, falls to sqrt(eps): the climbing node's test (its gradient shrinks)
fails at every step in most sweeps.

The variational character of the one-component couples is probed
numerically: directed two-parameter rescalings and random perturbations are
projected back to the constraint set and their energies compared with the
closed-form level, reading the sign of the difference at the smallest
amplitude that rises above the noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .closed_forms import critical_level, exact_solution, separability_check
from .energy import (StatePair, Weights, integrals, lambda_norm_sq,
                     pair_integrals)
from .errors import (DegenerateInputError, DegeneratePathError, HsvarError,
                     InvalidParameterError, PreconditionError)
from .grid import RadialFunction, RadialGrid, reference_grid, weighted_lp
from .nehari import (PROJECTION_TOL, _solve_scale, project_arrays,
                     project_decoupled)
from .operators import PairMetric
from .params import ProblemParams

RADIAL_NOTE = "radial ansatz: all states are radial profiles on a truncated window"
SQRT_EPS = math.sqrt(np.finfo(float).eps)

# line search: first trial step, largest step the descent grows to, Armijo
# constant, and the cap on halvings
STEP0 = 1.0
STEP_MAX = 2.0
ARMIJO = 1e-4
MAX_BACKTRACKS = 60
STALL_WINDOW = 80         # descent iterations without decrease before stopping
# probe: adaptive ladder floor when unresolved, direction norm as a fraction
# of the host norm, and the noise floor relative to the base level
EXTEND_TO = 1e-7
DIRECTION_SCALE = 0.1
NOISE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# options and report types
# ---------------------------------------------------------------------------

@dataclass
class DescentOptions:
    tol_grad: float = 1e-5          # relative dual-norm gradient target
    max_iter: int = 8000


@dataclass
class PathOptions:
    n_path_nodes: int = 32          # number of segments; K+1 states
    max_sweeps: int = 40
    crest_grad_tol: float = 1e-5    # stop once the max node is near-critical


@dataclass
class ProbeOptions:
    amplitudes: tuple = tuple(10.0 ** e for e in
                              (-1.0, -1.5, -2.0, -2.5, -3.0, -3.5, -4.0))
    n_directions: int = 4
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


def random_bump(grid: RadialGrid, rng: np.random.Generator,
                signed: bool = False) -> RadialFunction:
    """Random compactly supported bump, kept away from both truncation radii."""
    lo = max(grid.t[0] + 0.05 * (grid.t[-1] - grid.t[0]), math.log(0.02))
    hi = min(grid.t[-1] - 0.05 * (grid.t[-1] - grid.t[0]), math.log(50.0))
    center = rng.uniform(lo, hi)
    halfwidth = rng.uniform(1.0, 2.5)
    halfwidth = min(halfwidth, center - grid.t[0] - 0.5, grid.t[-1] - center - 0.5)
    amp = rng.choice([-1.0, 1.0]) if signed else 1.0
    return RadialFunction(grid, compact_bump(grid.t, center, halfwidth, amp))


def extremal_pair(params: ProblemParams, grid: RadialGrid,
                  which: str, mu: float = 1.0) -> StatePair:
    """Discrete one-component solution couple, rescaled onto the constraint.

    ``which="first"`` gives (z1, 0); ``which="second"`` gives (0, z2).  The
    sampled closed form is projected onto the discrete decoupled constraint
    so downstream identities hold at quadrature accuracy.
    """
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")
    lam = params.lambda1 if which == "first" else params.lambda2
    z = RadialFunction(grid, exact_solution(params.N, lam, params.s, mu, grid.r))
    z = project_decoupled(z, lam, params.s).projected
    zero = RadialFunction.zero(grid)
    return StatePair(z, zero) if which == "first" else StatePair(zero, z)


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


def _line_search(wt: Weights, u, v, du, dv, slope: float, nsq: float,
                 E: float, accept=None, grad: bool = False, step: float = STEP0):
    """Backtracking along -(du, dv) from (u, v), one grid pass per trial.

    A trial is projected from its integrals I (with the gradient parts when
    ``grad``) and returned as ``(st, t, I, t cu, t cv)`` once ``accept(st,
    t, I)`` holds, by default the Armijo decrease from ``E``.  None after
    ``MAX_BACKTRACKS`` halvings or once the relative step in the metric,
    ``st sqrt(slope / nsq)``, is at most sqrt(eps).
    """
    if accept is None:
        def accept(st, t, I):
            return I.energy(t) <= E - ARMIJO * st * slope
    st, rel = step, _rel_grad(slope, nsq)
    for _ in range(MAX_BACKTRACKS):
        cu, cv = u - st * du, v - st * dv
        try:
            t, I = project_arrays(wt, cu, cv, positive=True, grad=grad)
        except HsvarError:
            pass
        else:
            if accept(st, t, I):
                return st, t, I, t * cu, t * cv
        st *= 0.5
        if st * rel <= SQRT_EPS:
            break
    return None


def _descend(params: ProblemParams, pair: StatePair, metric: PairMetric,
             opts: DescentOptions):
    """Projected preconditioned descent on the truncated constraint set.

    Returns (pair, energy, iterations, rel_grad, trace, stop_reason).  The
    loop runs on node arrays; an accepted trial's energy, norm and gradient
    after projection come from its integrals before projection, by
    homogeneity, so an iteration makes one grid pass per trial.
    """
    grid = pair.grid
    wt = Weights(grid, params)
    t, I = project_arrays(wt, pair.u.values, pair.v.values, positive=True,
                          grad=True)
    u, v = t * pair.u.values, t * pair.v.values
    E, nsq, g = I.energy(t), t * t * I.A, I.gradient(t)
    trace = [E]
    step, last_drop = STEP0, 0
    rel_g, stop = math.inf, "max_iter"
    for it in range(opts.max_iter):
        du, dv, slope = metric.direction(*g)
        rel_g = _rel_grad(slope, nsq)
        if rel_g <= opts.tol_grad or it - last_drop > STALL_WINDOW:
            stop = "tolerance" if rel_g <= opts.tol_grad else "stall"
            break
        found = _line_search(wt, u, v, du, dv, slope, nsq, E, grad=True, step=step)
        if found is None:
            stop = "line_search"
            break
        st, t, I, u, v = found
        if E - I.energy(t) > 1e-15 * (abs(E) + 1.0):
            last_drop = it
        E, nsq, g = I.energy(t), t * t * I.A, I.gradient(t)
        trace.append(E)
        step = min(st * 1.5, STEP_MAX)
    else:
        it = opts.max_iter
    return _pair(grid, u, v), E, it, rel_g, trace, stop


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
    metric = PairMetric(init.grid, params.lambda1, params.lambda2)
    pair, E, iters, rel_g, trace, stop = _descend(params, init, metric, opts)

    I = pair_integrals(pair, params, positive=True)
    levels = _levels(params)
    levels.update(below_min_semitrivial=bool(E < levels["min_level"]),
                  crit_integral_u=I.hs_u, crit_integral_v=I.hs_v)
    classification = ("coupled" if I.hs_u > 1e-6 and I.hs_v > 1e-6
                      else "semitrivial_like")
    return SolverReport(
        kind="ground_state", params=params.to_dict(), energy=E,
        gradient_norm=rel_g, nehari_residual=abs(I.residual()) / max(I.A, 1e-300),
        iterations=iters, converged=stop == "tolerance", level_diagnostics=levels,
        profiles=pair, classification=classification, stop_reason=stop,
        trace=trace[-200:],
        extra={"monotone": bool(all(b <= a + 1e-12 * (abs(a) + 1.0)
                                    for a, b in zip(trace, trace[1:])))})


def escalate_nu(params: ProblemParams, grid: RadialGrid,
                nu_start: float = 1.0, max_doublings: int = 60) -> float:
    """Double nu until the coupling term dominates half the pair norm.

    The size threshold for coupling dominance is evaluated on the projected
    couple of the two one-component profiles.
    """
    # the integrals of the couple do not depend on nu; the projected
    # couple's follow by homogeneity
    I = integrals(Weights(grid, params), extremal_pair(params, grid, "first").u.values,
                  extremal_pair(params, grid, "second").v.values, positive=True)
    q = params.alpha + params.beta
    nu = nu_start
    for _ in range(max_doublings):
        t, _ = _solve_scale(I.A, I.B, I.C, params.crit_exp, q, nu, PROJECTION_TOL)
        if nu * q * t ** q * I.C > 0.5 * t * t * I.A:
            return nu
        nu *= 2.0
    return nu


# ---------------------------------------------------------------------------
# min-max path
# ---------------------------------------------------------------------------

def _initial_path(wt: Weights, K: int):
    """Explicit interpolating path ((1-t)^(1/2) z1, t^(1/2) z2), rescaled.

    Returns the node arrays U, V (row k is node k) and the node energies E.
    """
    z1 = extremal_pair(wt.params, wt.grid, "first").u.values
    z2 = extremal_pair(wt.params, wt.grid, "second").v.values
    tk = np.arange(K + 1)[:, None] / K
    U, V = np.sqrt(1.0 - tk) * z1, np.sqrt(tk) * z2
    E = np.empty(K + 1)
    for k in range(K + 1):
        t, I = (project_arrays(wt, U[k], V[k], positive=True) if 0 < k < K
                else (1.0, integrals(wt, U[k], V[k], positive=True)))
        U[k] *= t
        V[k] *= t
        E[k] = I.energy(t)
    return U, V, E


def interpolation_bound(params: ProblemParams, grid: RadialGrid,
                        samples: int = 401) -> tuple[float, np.ndarray]:
    """Upper envelope g(t) of the interpolating path and its maximum g(1/2).

    g(t) = (2-s)/(2(N-s)) * [((1-t) S1 + t S2) / ((1-t)^(p/2) S1 + t^(p/2) S2)]^(2/(p-2))
           * ((1-t) S1 + t S2),

    where S1, S2 are the critical integrals of the two rescaled profiles.
    Its maximum sits at t = 1/2 and equals the sum of the two levels.
    """
    p, s, N = params.crit_exp, params.s, params.N
    S1 = weighted_lp(grid, extremal_pair(params, grid, "first").u, p, s)
    S2 = weighted_lp(grid, extremal_pair(params, grid, "second").v, p, s)
    ts = np.linspace(0.0, 1.0, samples)[1:-1]
    lin = (1 - ts) * S1 + ts * S2
    curv = (1 - ts) ** (p / 2) * S1 + ts ** (p / 2) * S2
    g = (2 - s) / (2 * (N - s)) * (lin / curv) ** (2 / (p - 2)) * lin
    return float(g.max()), g


def _pair(grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> StatePair:
    return StatePair(RadialFunction(grid, u), RadialFunction(grid, v))


def _pair_grad_norm(metric: PairMetric, I, t: float = 1.0) -> float:
    """Relative dual-norm gradient at t (u, v), from the integrals I of (u, v)."""
    _, _, slope = metric.direction(*I.gradient(t))
    return _rel_grad(slope, t * t * I.A)


def _node_direction(wt: Weights, metric: PairMetric, u, v):
    """Integrals, gradient and metric direction of a path node."""
    I = integrals(wt, u, v, positive=True, grad=True)
    g = I.gradient()
    return (I, *g, *metric.direction(*g))


def _redistribute(U, V, E, wt: Weights) -> None:
    """Equal-arclength resampling of a sub-chain in place; endpoints kept exact.

    Each resampled node is a convex combination of two nodes on the
    constraint set, so it is projected again.
    """
    m = len(E) - 1
    if m < 2:
        return
    seg = np.sqrt(((np.diff(U, axis=0) ** 2 + np.diff(V, axis=0) ** 2)
                   * wt.grid.w).sum(axis=1))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] <= 0:
        return
    targets = np.linspace(0.0, arc[-1], m + 1)[1:-1]
    j = np.minimum(np.searchsorted(arc, targets, side="right") - 1, m - 1)
    theta = ((targets - arc[j]) / np.maximum(arc[j + 1] - arc[j], 1e-300))[:, None]
    U[1:m] = (1 - theta) * U[j] + theta * U[j + 1]
    V[1:m] = (1 - theta) * V[j] + theta * V[j + 1]
    for k in range(1, m):
        t, I = project_arrays(wt, U[k], V[k], positive=True)
        U[k] *= t
        V[k] *= t
        E[k] = I.energy(t)


def mountain_pass(params: ProblemParams, grid: RadialGrid | None = None,
                  opts: PathOptions | None = None) -> SolverReport:
    """Estimate the min-max level between the two one-component couples.

    Requires the level-separation window in one orientation together with
    the matching exponent bound (``alpha >= 2`` for orientation (i),
    ``beta >= 2`` for orientation (ii)).  Each sweep redistributes the chain
    to equal arclength, then applies descent steps with reprojection to the
    current maximum node and its two neighbors; the along-path component of
    each move is removed so nodes relax transversally instead of sliding off
    the barrier.  Every sweep's chain is an admissible discrete path, so the
    reported estimate is the best (smallest) chain maximum seen, which is
    non-increasing across sweeps by construction.
    """
    opts = opts or PathOptions()
    grid = grid or reference_grid(params.N)
    sep = separability_check(params)
    orient_i = sep["cond_i"] and params.alpha >= 2.0
    orient_ii = sep["cond_ii"] and params.beta >= 2.0
    if not (orient_i or orient_ii):
        raise PreconditionError(
            "min-max geometry requires the separation window plus the "
            "matching exponent >= 2 in the same orientation")

    K = opts.n_path_nodes
    wt = Weights(grid, params)
    U, V, E = _initial_path(wt, K)
    g_max, _ = interpolation_bound(params, grid)

    metric = PairMetric(grid, params.lambda1, params.lambda2)
    a = int(np.argmax(E))
    # rows are overwritten by later sweeps, so the best crest is a copy
    best_max, best_u, best_v = float(E[a]), U[a].copy(), V[a].copy()
    c_trace = [best_max]
    gnorm_trace = []
    stop = "max_sweeps"
    for sweep in range(opts.max_sweeps):
        if sweep > 0:
            # equal arclength on each side of the anchored crest keeps the
            # chain sampled near the barrier without discarding the climbing
            # node's progress; without it, downhill moves let the neighbor
            # spacing grow and the discrete maximum dodge the barrier
            a = int(np.argmax(E))
            _redistribute(U[:a + 1], V[:a + 1], E[:a + 1], wt)
            _redistribute(U[a:], V[a:], E[a:], wt)
        k_max = int(np.argmax(E))
        if k_max in (0, K):
            raise DegeneratePathError("path maximum collapsed onto an endpoint")
        # the crest's gradient and direction serve its climb below as well
        top = _node_direction(wt, metric, U[k_max], V[k_max])
        gnorm = _rel_grad(top[-1], top[0].A)
        gnorm_trace.append(gnorm)
        if gnorm <= opts.crest_grad_tol:
            stop = "tolerance"
            break

        def climbs(st, t, J):
            # the climbing node is accepted when its gradient shrinks
            return _pair_grad_norm(metric, J, t) < gnorm

        improved = False
        for k in (k_max - 1, k_max, k_max + 1):
            if k in (0, K):
                continue
            climbing = k == k_max
            I, gu, gv, du, dv, slope = top if climbing else _node_direction(
                wt, metric, U[k], V[k])
            tau_u, tau_v = U[k + 1] - U[k - 1], V[k + 1] - V[k - 1]
            tmt = (float(tau_u[1:-1] @ metric.op1.apply(tau_u[1:-1]))
                   + float(tau_v[1:-1] @ metric.op2.apply(tau_v[1:-1])))
            coef = (float(gu[1:-1] @ tau_u[1:-1])
                    + float(gv[1:-1] @ tau_v[1:-1])) / tmt if tmt > 0 else 0.0
            # the maximum node climbs: the along-path gradient component is
            # reversed so the node ascends the path direction while relaxing
            # transversally; neighbors relax transversally only
            factor = 2.0 if climbing else 1.0
            du[1:-1] -= factor * coef * tau_u[1:-1]
            dv[1:-1] -= factor * coef * tau_v[1:-1]
            if not climbing:
                slope = max(float(gu[1:-1] @ du[1:-1])
                            + float(gv[1:-1] @ dv[1:-1]), 0.0)
            # neighbors take the Armijo test; the climbing node's step floor
            # uses its unmodified slope
            found = _line_search(wt, U[k], V[k], du, dv, slope, I.A, E[k],
                                 climbs if climbing else None, grad=climbing)
            if found is not None:
                _, t, J, U[k], V[k] = found
                E[k] = J.energy(t)
                improved = True
        a = int(np.argmax(E))
        if E[a] < best_max:
            best_max, best_u, best_v = float(E[a]), U[a].copy(), V[a].copy()
        c_trace.append(best_max)
        if not improved:
            stop = "no_improvement"
            break

    I = integrals(wt, best_u, best_v, positive=True)
    levels = _levels(params)
    levels["endpoint_energies"] = [float(E[0]), float(E[-1])]
    levels["initial_path_max"] = c_trace[0]
    levels["interpolation_bound_max"] = g_max
    return SolverReport(
        kind="mountain_pass", params=params.to_dict(),
        energy=best_max,
        gradient_norm=gnorm_trace[-1] if gnorm_trace else math.inf,
        nehari_residual=abs(I.residual()) / max(I.A, 1e-300),
        iterations=len(c_trace) - 1,
        converged=stop == "tolerance", stop_reason=stop,
        level_diagnostics=levels, profiles=_pair(grid, best_u, best_v),
        trace=c_trace,
        extra={"gradient_norm_trace": gnorm_trace,
               "crest_index": int(np.argmax(E)),
               "orientation": "i" if orient_i else "ii"})


# ---------------------------------------------------------------------------
# semitrivial probes
# ---------------------------------------------------------------------------

def _resolved_sign(amplitudes, deltas, floor):
    """Sign of delta at the smallest amplitude above the noise floor."""
    for t, d in sorted(zip(amplitudes, deltas)):
        if abs(d) > floor:
            return 1 if d > 0 else -1
    return 0


def semitrivial_probe(params: ProblemParams, which: str,
                      grid: RadialGrid | None = None,
                      opts: ProbeOptions | None = None) -> SolverReport:
    """Classify a one-component couple as local minimum or saddle.

    Two probe families run around the couple on the constraint set:

    (a) random perturbed couples (t phi, z + t psi), reprojected;
    (b) directed rescaled paths: for each direction phi, the pair
        (t phi, z) is projected, which realizes the two-parameter family
        whose scale factor solves the constraint equation.

    The energy difference against the one-component level is read at the
    smallest amplitude that clears the noise floor.  If the default
    amplitude ladder leaves every direction unresolved it is extended
    adaptively; if still unresolved the classification is `inconclusive`
    rather than a guessed label.
    """
    opts = opts or ProbeOptions()
    grid = grid or reference_grid(params.N)
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")

    # orient so the host component is v and the foreign component is u
    swapped = which == "first"
    work = params.swapped() if swapped else params

    z = extremal_pair(work, grid, "second").v
    zero = RadialFunction.zero(grid)
    wt = Weights(grid, work)
    host = integrals(wt, zero.values, z.values)
    base = host.energy()
    floor = NOISE_FLOOR * (1.0 + abs(base))

    def delta(u, v):
        """Energy of the projected (u, v) minus the base level."""
        t, I = project_arrays(wt, u, v)
        return I.energy(t) - base

    rng = np.random.default_rng(opts.seed)

    def scaled_direction():
        phi = random_bump(grid, rng)
        nphi = math.sqrt(lambda_norm_sq(phi, work.lambda1))
        return phi.scaled(DIRECTION_SCALE * math.sqrt(host.A) / nphi)

    evidence = []     # (family, direction index, sign)
    deltas_log = {}
    ladder = list(opts.amplitudes)

    for k in range(opts.n_directions):
        phi = scaled_direction()
        amps = list(ladder)
        ds = [delta(t * phi.values, z.values) for t in amps]
        sign = _resolved_sign(amps, ds, floor)
        # extend the ladder adaptively when the leading order is unresolved
        t_next = amps[-1] / math.sqrt(10.0)
        while sign == 0 and t_next >= EXTEND_TO:
            amps.append(t_next)
            ds.append(delta(t_next * phi.values, z.values))
            sign = _resolved_sign(amps, ds, floor)
            t_next /= math.sqrt(10.0)
        evidence.append(("directed", k, sign))
        deltas_log[f"directed_{k}"] = ds

    for k in range(opts.n_directions):
        phi = scaled_direction()
        psi = scaled_direction()
        ds = [delta(t * phi.values, z.values + t * psi.values) for t in ladder]
        sign = _resolved_sign(ladder, ds, floor)
        evidence.append(("perturbed", k, sign))
        deltas_log[f"perturbed_{k}"] = ds

    least = min((sgn for _, _, sgn in evidence), default=1)
    classification = ("saddle" if least < 0 else
                      "local_min" if least > 0 else "inconclusive")

    levels = _levels(params)
    levels["base_level"] = base
    return SolverReport(
        kind="semitrivial_probe", params=params.to_dict(), energy=base,
        gradient_norm=0.0, nehari_residual=0.0,
        iterations=len(evidence), converged=classification != "inconclusive",
        level_diagnostics=levels,
        profiles=StatePair(z, zero) if swapped else StatePair(zero, z),
        classification=classification,
        extra={"which": which,
               "evidence": [{"family": f, "direction": i, "sign": sgn}
                            for f, i, sgn in evidence],
               "deltas": {k: [float(x) for x in v] for k, v in deltas_log.items()}})


def classification_flip(params_at, nu_lo: float, nu_hi: float, which: str,
                        grid: RadialGrid | None = None,
                        opts: ProbeOptions | None = None,
                        bisections: int = 12) -> dict:
    """Bisect over nu for a change of probe classification.

    ``params_at(nu)`` builds the parameter tuple; the endpoints must
    classify as local_min (low) and saddle (high).  Returns the bracketing
    interval and the label at each tested nu.
    """
    labels = {}

    def label(nu):
        rep = semitrivial_probe(params_at(nu), which, grid=grid, opts=opts)
        labels[nu] = rep.classification
        return rep.classification

    lab_lo, lab_hi = label(nu_lo), label(nu_hi)
    if lab_lo != "local_min" or lab_hi != "saddle":
        return {"bracket": (nu_lo, nu_hi), "labels": labels, "flip_found": False}
    for _ in range(bisections):
        mid = math.sqrt(nu_lo * nu_hi)
        if label(mid) == "local_min":
            nu_lo = mid
        else:
            nu_hi = mid
    return {"bracket": (nu_lo, nu_hi), "labels": labels, "flip_found": True}
