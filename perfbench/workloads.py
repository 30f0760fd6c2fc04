"""The four benchmark workloads and the checks applied to their results.

Each workload has three parts:

* ``setup(hs, seed, smoke, env)`` builds the inputs (grids, parameters, initial
  states, config files) from the seed; it is timed as set-up.
* ``run(state)`` makes the timed calls into hsvar and returns the results.
* ``check(state, result)`` recomputes what the results claim from the closed
  forms and hsvar's public evaluation functions, outside the timed region,
  and returns an :class:`Outcome`.

An operation fails when its stated tolerance is unmet (a *miss*) or when a
check is violated (a *violation*).  A violation means the result is wrong,
so the run reports ``correct: false``; a miss is a known accuracy shortfall,
counted in ``failed`` and printed, but the result still holds.

``smoke=True`` shrinks every workload so that a whole run takes seconds; it
exists for the benchmark's own smoke test and is never used for figures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Outcome:
    failures: list = field(default_factory=list)   # one flag per operation
    misses: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(self.failures)

    def op(self, misses=(), violations=()) -> None:
        """Record one operation with its misses and violations."""
        self.failures.append(bool(misses or violations))
        self.misses.extend(misses)
        self.violations.extend(violations)


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _residual_rel(hs, pair, params) -> float:
    """Scale-free constraint residual |Psi| / ||(u,v)||^2 (truncated form)."""
    return abs(hs.nehari_residual(pair, params, positive=True)
               / hs.pair_norm_sq(pair, params))


# ---------------------------------------------------------------------------
# ground-state: criterion-6 decoupled cases and the criterion-7 coupled case
# ---------------------------------------------------------------------------

GS_CASES = ((4, 1.0, 0.3), (3, 0.5, 0.1), (5, 1.0, 1.0))   # (N, s, lambda1)
COUPLED_PARAMS = (4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.0)          # nu escalates from 1
GS_LEVEL_TOL = 1e-3
RESIDUAL_TOL = 1e-9


def _bump(hs, grid, rng):
    """Random smooth bump well inside the window (as in the test suite)."""
    center = rng.uniform(math.log(0.05), math.log(20.0))
    halfwidth = rng.uniform(1.0, 2.5)
    amp = rng.uniform(0.3, 1.5)
    if rng.random() < 0.5:
        amp = -amp
    return hs.compact_bump(grid.t, center, halfwidth, amp)


def setup_ground_state(hs, seed: int, smoke: bool, env: dict):
    # The seed draws the perturbation of the N=3 case, which runs to
    # max_iter whatever its start.  N=4 and N=5 keep the draws of criterion 6
    # (default_rng(6), in the order N=4, N=3, N=5): their iteration counts
    # swing fourfold with the perturbation (225 to 1933 at N=4 over twelve
    # seeds), so seeded starts there would make wall_s measure the seed.
    fixed = np.random.default_rng(6)
    seeded = np.random.default_rng(seed)
    n = 1024 if smoke else 4096
    max_iter = 300 if smoke else 6000
    cases = []
    for N, s, lam in GS_CASES[:1] if smoke else GS_CASES:
        grid = hs.build_grid(N, 1e-6, 1e6, n)
        params = hs.ProblemParams(N, s, lam, 0.5 * hs.hardy_constant(N), 1.3, 1.3, 0.0)
        base = hs.extremal_pair(params, grid, "first")
        scale = float(np.interp(1.0, grid.r, base.u.values))
        bumps = [_bump(hs, grid, fixed), _bump(hs, grid, fixed)]
        if N == 3:
            bumps = [_bump(hs, grid, seeded), _bump(hs, grid, seeded)]
        u = np.abs(base.u.values + 0.25 * scale * bumps[0] + 0.15 * scale * bumps[1])
        init = hs.StatePair(hs.RadialFunction(grid, u), hs.RadialFunction.zero(grid))
        cases.append((N, s, lam, params, init))
    grid4 = cases[0][4].grid
    coupled = hs.ProblemParams(*COUPLED_PARAMS)
    init7 = hs.StatePair(hs.extremal_pair(coupled, grid4, "first").u,
                         hs.extremal_pair(coupled, grid4, "second").v)
    return {"hs": hs, "cases": cases, "grid4": grid4, "coupled": coupled,
            "init7": init7,
            "opts6": hs.DescentOptions(tol_grad=1e-6, max_iter=max_iter),
            "opts7": hs.DescentOptions(tol_grad=1e-5, max_iter=max_iter)}


def run_ground_state(st):
    hs = st["hs"]
    reports = [hs.ground_state(params, init, st["opts6"])
               for _, _, _, params, init in st["cases"]]
    c = st["coupled"]
    nu = hs.escalate_nu(c, st["grid4"])
    params7 = hs.ProblemParams(c.N, c.s, c.lambda1, c.lambda2, c.alpha, c.beta, nu)
    return reports, params7, hs.ground_state(params7, st["init7"], st["opts7"])


def check_ground_state(st, result) -> Outcome:
    hs = st["hs"]
    reports, params7, rep7 = result
    out = Outcome()
    errs, grads, iters = [], [], 0
    for (N, s, lam, params, _), rep in zip(st["cases"], reports):
        misses, bad = [], []
        E = hs.energy_positive(rep.profiles, params)
        err = _rel(E, hs.critical_level(N, lam, s))
        errs.append(err)
        if err > GS_LEVEL_TOL:
            bad.append(f"ground-state N={N}: level error {err:.2e} > {GS_LEVEL_TOL:g}")
        if abs(E - rep.energy) > 1e-12 * abs(E):
            bad.append(f"ground-state N={N}: reported energy {rep.energy!r} "
                       f"!= recomputed {E!r}")
        res = _residual_rel(hs, rep.profiles, params)
        if res > RESIDUAL_TOL:
            bad.append(f"ground-state N={N}: constraint residual {res:.2e}")
        g = hs.gradient_dual_norm(rep.profiles, params, positive=True)[1]
        grads.append(g)
        if g > st["opts6"].tol_grad:
            misses.append(f"ground-state N={N}: relative gradient {g:.2e} > "
                          f"tol_grad {st['opts6'].tol_grad:g} after "
                          f"{rep.iterations} iterations")
        iters += rep.iterations
        out.op(misses, bad)

    misses, bad = [], []
    c = params7
    E7 = hs.energy_positive(rep7.profiles, c)
    min_level = min(hs.critical_level(c.N, c.lambda1, c.s),
                    hs.critical_level(c.N, c.lambda2, c.s))
    grid = st["grid4"]
    mass_u = hs.weighted_lp(grid, rep7.profiles.u, c.crit_exp, c.s)
    mass_v = hs.weighted_lp(grid, rep7.profiles.v, c.crit_exp, c.s)
    if not E7 < min_level - 1e-6:
        bad.append(f"coupled ground state: energy {E7:.6f} not below "
                   f"min level {min_level:.6f} - 1e-6")
    if not (mass_u > 1e-6 and mass_v > 1e-6):
        bad.append(f"coupled ground state: critical masses ({mass_u:.2e}, "
                   f"{mass_v:.2e}) not both > 1e-6")
    if abs(E7 - rep7.energy) > 1e-12 * abs(E7):
        bad.append("coupled ground state: reported energy != recomputed")
    res = _residual_rel(hs, rep7.profiles, c)
    if res > RESIDUAL_TOL:
        bad.append(f"coupled ground state: constraint residual {res:.2e}")
    g7 = hs.gradient_dual_norm(rep7.profiles, c, positive=True)[1]
    grads.append(g7)
    if g7 > st["opts7"].tol_grad:
        misses.append(f"coupled ground state: relative gradient {g7:.2e} > "
                      f"tol_grad {st['opts7'].tol_grad:g}")
    iters += rep7.iterations
    out.op(misses, bad)

    out.values = {"descent_iters": iters, "level_rel_err": max(errs),
                  "grad_rel": max(grads)}
    return out


# ---------------------------------------------------------------------------
# mountain-pass: criterion 10
# ---------------------------------------------------------------------------

MP_PARAMS = (4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.02)


def setup_mountain_pass(hs, seed: int, smoke: bool, env: dict):
    # The path starts from the closed-form profiles: there is nothing random
    # to draw, so every seed gives the same input.
    grid = hs.build_grid(4, 1e-6, 1e6, 1024 if smoke else 4096)
    opts = (hs.PathOptions(n_path_nodes=8, max_sweeps=5) if smoke
            else hs.PathOptions(n_path_nodes=32, max_sweeps=150))
    return {"hs": hs, "grid": grid, "params": hs.ProblemParams(*MP_PARAMS),
            "opts": opts}


def run_mountain_pass(st):
    return st["hs"].mountain_pass(st["params"], st["grid"], st["opts"])


def check_mountain_pass(st, rep) -> Outcome:
    hs, params, grid = st["hs"], st["params"], st["grid"]
    misses, bad = [], []
    c = rep.energy
    E1 = hs.critical_level(params.N, params.lambda1, params.s)
    E2 = hs.critical_level(params.N, params.lambda2, params.s)
    upper = min(3.0 * E2, (E1 + E2) * (1.0 + 1e-3))
    if not E1 < c < upper:
        bad.append(f"mountain-pass: level {c:.6f} outside ({E1:.6f}, {upper:.6f})")
    crest = rep.profiles
    Ec = hs.energy_positive(crest, params)
    if abs(Ec - c) > 1e-12 * abs(c):
        bad.append(f"mountain-pass: reported level {c!r} != crest energy {Ec!r}")
    res = _residual_rel(hs, crest, params)
    if res > RESIDUAL_TOL:
        bad.append(f"mountain-pass: crest constraint residual {res:.2e}")
    # The path is pinned to the one-component couples; their levels have
    # closed forms.
    errs = []
    for which, level in (("first", E1), ("second", E2)):
        E = hs.energy_positive(hs.extremal_pair(params, grid, which), params)
        errs.append(_rel(E, level))
    if max(errs) > GS_LEVEL_TOL:
        bad.append(f"mountain-pass: endpoint level error {max(errs):.2e}")
    g = hs.gradient_dual_norm(crest, params, positive=True)[1]
    tol = st["opts"].crest_grad_tol
    if g > tol:
        misses.append(f"mountain-pass: crest relative gradient {g:.2e} > "
                      f"crest_grad_tol {tol:g} after {rep.iterations} sweeps")
    out = Outcome()
    out.op(misses, bad)
    out.values = {"path_sweeps": rep.iterations, "cmp_level": c,
                  "crest_grad_rel": g, "level_rel_err": max(errs)}
    return out


# ---------------------------------------------------------------------------
# probe: criterion-8 classification matrix and the alpha=2 flip
# ---------------------------------------------------------------------------

PROBE_MATRIX = (   # (which, alpha, beta, nu, expected label)
    ("first", 1.5, 3.0, 1e-3, "local_min"),
    ("second", 3.0, 1.5, 1e-3, "local_min"),
    ("second", 1.5, 3.0, 1e-2, "saddle"),
    ("first", 3.0, 1.5, 1e-2, "saddle"),
)
# The cost of a probe varies by about 5% with its seed; four seeds per
# repetition average that out of the spread of wall_ref.
PROBE_SEEDS = 4


def _probe_params(hs, alpha, beta, nu):
    return hs.ProblemParams(3, 0.5, 0.12, 0.1, alpha, beta, nu)


def setup_probe(hs, seed: int, smoke: bool, env: dict):
    seeds = np.random.SeedSequence(seed).generate_state(1 if smoke else PROBE_SEEDS)
    return {"hs": hs, "grid": hs.build_grid(3, 1e-6, 1e6, 2048),
            "seeds": [int(x) for x in seeds]}


def run_probe(st):
    hs, grid = st["hs"], st["grid"]
    out = []
    for seed in st["seeds"]:
        opts = hs.ProbeOptions(seed=seed)
        reports = [hs.semitrivial_probe(_probe_params(hs, a, b, nu), which, grid, opts)
                   for which, a, b, nu, _ in PROBE_MATRIX]
        flip = hs.classification_flip(lambda nu: _probe_params(hs, 2.0, 2.2, nu),
                                      1e-3, 100.0, "second", grid, opts)
        out.append((seed, reports, flip))
    return out


def check_probe(st, result) -> Outcome:
    hs = st["hs"]
    out = Outcome()
    errs, evals = [], 0
    for seed, reports, flip in result:
        for (which, a, b, nu, expected), rep in zip(PROBE_MATRIX, reports):
            misses, bad = [], []
            params = _probe_params(hs, a, b, nu)
            lam = params.lambda1 if which == "first" else params.lambda2
            err = _rel(hs.energy(rep.profiles, params).total,
                       hs.critical_level(params.N, lam, params.s))
            errs.append(err)
            if err > GS_LEVEL_TOL:
                bad.append(f"probe seed {seed} {which} alpha={a} beta={b}: "
                           f"base level error {err:.2e}")
            if rep.classification != expected:
                misses.append(f"probe seed {seed} {which} alpha={a} beta={b} "
                              f"nu={nu:g}: {rep.classification}, expected {expected}")
            out.op(misses, bad)
        misses, bad = [], []
        lo, hi = flip["bracket"]
        if not flip["flip_found"]:
            misses.append(f"probe seed {seed}: no alpha=2 flip between "
                          f"nu={lo:g} and nu={hi:g}")
        elif not (lo < hi and flip["labels"].get(lo) == "local_min"
                  and flip["labels"].get(hi) == "saddle"):
            bad.append(f"probe seed {seed}: flip bracket ({lo:g}, {hi:g}) "
                       f"is not local_min -> saddle")
        out.op(misses, bad)
        evals += len(reports) + len(flip["labels"])
    out.values = {"probe_evals": evals, "level_rel_err": max(errs)}
    return out


# ---------------------------------------------------------------------------
# sweep: `hsvar sweep` over a classify grid and a lemma grid; the same
# classify grid with 2 workers after the timed window
# ---------------------------------------------------------------------------

SWEEP_N, SWEEP_S = 3, 0.5      # critical exponent 2(N-s)/(N-2) = 5


def _sweep_docs(rng, smoke: bool, workers2: int):
    k_lam, k_exp, k_nu = (2, 2, 2) if smoke else (8, 5, 4)
    # lambda1 and lambda2 share one list, so equal levels occur; so do alpha
    # and beta, with 2.0 (a tie in several hypotheses) and 2.5 (2.5 + 2.5 is
    # the critical exponent, admissible with the vanishing bump weight).
    lams = sorted(rng.uniform(0.005, 0.245, k_lam).tolist())
    exps = sorted([2.0, 2.5] + rng.uniform(1.05, 2.5, k_exp - 2).tolist())
    nus = sorted((10.0 ** rng.uniform(-4.0, 1.0, k_nu)).tolist())
    base = {"params": {"N": SWEEP_N, "s": SWEEP_S, "lambda1": 0.1, "lambda2": 0.2,
                       "alpha": 1.5, "beta": 1.5, "nu": 0.01,
                       "h_profile": {"kind": "bump", "p_exp": 2.0, "q_exp": 2.0}}}
    over = {"lambda1": lams, "lambda2": lams, "alpha": exps, "beta": exps, "nu": nus}
    classify1 = dict(base, sweep={"over": over, "workers": 1})
    classify2 = dict(base, sweep={"over": over, "workers": workers2})
    lemma = {"lemma": {"A": 1.0, "B": 1.0, "theta": 3.0, "N": 4, "s": 1.0},
             "sweep": {"command": "lemma",
                       "over": {"nu": [0.0] + sorted((10.0 ** rng.uniform(
                                    -4.0, -1.0, 1 if smoke else 7)).tolist()),
                                "A": sorted(rng.uniform(0.5, 2.0,
                                                        2 if smoke else 4).tolist())}}}
    n_rows = k_lam * k_lam * k_exp * k_exp * k_nu
    return classify1, classify2, lemma, n_rows


def setup_sweep(hs, seed: int, smoke: bool, env: dict):
    rng = np.random.default_rng(seed)
    workdir = env["workdir"]
    workdir.mkdir(parents=True, exist_ok=True)
    docs = _sweep_docs(rng, smoke, min(2, env["nproc"]))
    paths = {}
    for key, doc in zip(("w1", "w2", "lemma"), docs[:3]):
        paths[key] = str(workdir / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    lemma_over = docs[2]["sweep"]["over"]
    return {"hs": hs, "cli": env["cli"], "cfg": paths, "workdir": workdir,
            "n_rows": docs[3],
            "n_lemma": len(lemma_over["nu"]) * len(lemma_over["A"]),
            "lemma": docs[2]["lemma"]}


def _sweep(st, key: str):
    """Run one `hsvar sweep` through the CLI; return (exit code, seconds, csv)."""
    out = str(st["workdir"] / f"{key}.csv")
    with redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = st["cli"].run_command(["sweep", "--config", st["cfg"][key], "--out", out])
        return code, perf_counter() - t0, out


def run_sweep(st):
    return {key: _sweep(st, key) for key in ("w1", "lemma")}


def _read_rows(path):
    with open(path, newline="") as fh:
        text = fh.read()
    return text, list(csv.DictReader(io.StringIO(text)))


def check_sweep(st, result) -> Outcome:
    hs = st["hs"]
    out = Outcome()
    p = hs.critical_exponent(SWEEP_N, SWEEP_S)

    bad = []
    code, _, path = result["w1"]
    if code != 0:
        bad.append(f"sweep: exit code {code}")
    else:
        _, rows = _read_rows(path)
        if len(rows) != st["n_rows"]:
            bad.append(f"sweep: {len(rows)} rows, expected {st['n_rows']}")
        for row in rows:
            q = float(row["alpha"]) + float(row["beta"])
            critical = abs(q - p) <= 1e-12 * p
            tie = row["lambda1"] == row["lambda2"]
            if (row["subcritical"] != str(q < p and not critical)
                    or row["critical"] != str(critical)
                    or (row["thm_small_nu"] == "boundary") != tie):
                bad.append(f"sweep: row {row} disagrees with the closed-form "
                           f"critical exponent {p}")
                break
    out.op((), bad)

    bad = []
    code, _, path = result["lemma"]
    if code != 0:
        bad.append(f"lemma sweep: exit code {code}")
    else:
        _, rows = _read_rows(path)
        lem = st["lemma"]
        cell = 1e9 ** (1.0 / 19999)      # ratio of the default sigma grid
        if len(rows) != st["n_lemma"]:
            bad.append(f"lemma sweep: {len(rows)} rows, expected {st['n_lemma']}")
        for row in rows:
            exact = float(row["A"]) ** ((lem["N"] - lem["s"]) / (2.0 - lem["s"]))
            inf = float(row["inf"])
            ok = (_rel(float(row["decoupled_inf"]), exact) <= 1e-12
                  and inf <= exact * cell * (1.0 + 1e-12))
            if float(row["nu"]) == 0.0:
                ok = ok and inf >= exact
            if not ok:
                bad.append(f"lemma sweep: row {row} violates the scaling-set bounds")
                break
    out.op((), bad)
    seconds = result["w1"][1] + result["lemma"][1]
    out.values = {"rows_per_s": (st["n_rows"] + st["n_lemma"]) / seconds,
                  "cli.sweep.workers1_s": result["w1"][1]}
    return out


PARALLEL_SWEEPS = 3


def finish_sweep(st) -> Outcome:
    """The same grid with 2 workers, after the timed window.

    On a 2-vCPU host its time swings between 0.36 and 0.97 s for the same
    rows (the threads hand the GIL back and forth) and it slows the serial
    sweep run after it, so inside the repetition it would set the spread of
    wall_s.  The output must match the serial sweep byte for byte.
    """
    out = Outcome()
    serial, _ = _read_rows(str(st["workdir"] / "w1.csv"))
    times = []
    for _ in range(PARALLEL_SWEEPS):
        code, seconds, path = _sweep(st, "w2")
        times.append(seconds)
        bad = []
        if code != 0:
            bad.append(f"sweep with 2 workers: exit code {code}")
        elif _read_rows(path)[0] != serial:
            bad.append("sweep: CSV from 2 workers differs from 1 worker")
        out.op((), bad)
    out.values = {"cli.sweep.workers2_s": sorted(times)[len(times) // 2]}
    return out


def cleanup_sweep(st) -> None:
    shutil.rmtree(st["workdir"], ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    finish: object = None      # untimed operations after the timed window
    cleanup: object = None


WORKLOADS = {
    "ground-state": Workload(setup_ground_state, run_ground_state, check_ground_state),
    "mountain-pass": Workload(setup_mountain_pass, run_mountain_pass, check_mountain_pass),
    "probe": Workload(setup_probe, run_probe, check_probe),
    "sweep": Workload(setup_sweep, run_sweep, check_sweep, finish_sweep, cleanup_sweep),
}
