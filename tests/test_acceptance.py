"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; each test also asserts, so the suite is red if any criterion
fails.
"""

import math
import time
from dataclasses import replace

import numpy as np

from hsvar import (DescentOptions, PathOptions, ProbeOptions, ProblemParams,
                   RadialFunction, StatePair, best_constant,
                   classification_flip, critical_exponent, critical_level,
                   energy, escalate_nu, exact_solution, extremal_pair,
                   gradient_dual_norm, ground_state, hardy_constant,
                   lambda_norm_sq, mountain_pass, project, semitrivial_probe,
                   sobolev_constant, weighted_lp)
from hsvar.energy import pair_integrals
from hsvar.regimes import LemmaInstance, algebraic_inf, small_nu_threshold
from conftest import cached_grid, smooth_bump


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_cross_checks():
    t0 = time.time()
    worst = 0.0
    for N in (3, 4, 5, 6):
        S = sobolev_constant(N)
        worst = max(worst, abs(best_constant(N, 0.0, 0.0) / S - 1.0))
        for frac in (0.1, 0.5, 0.9):
            lam = frac * hardy_constant(N)
            expected = (1.0 - lam / hardy_constant(N)) ** ((N - 1) / N) * S
            worst = max(worst, abs(best_constant(N, lam, 0.0) / expected - 1.0))
    report(1, worst <= 1e-12,
           f"closed-form cross-checks, worst rel err {worst:.2e} "
           f"(tol 1e-12, {time.time() - t0:.2f}s)")


def test_criterion_02_limit_s_to_2():
    t0 = time.time()
    val = best_constant(4, 0.0, 1.999)
    err = abs(val / hardy_constant(4) - 1.0)
    report(2, err <= 0.01,
           f"s->2 limit, value {val:.6f} vs 1.0, rel err {err:.2e} "
           f"(tol 1e-2, {time.time() - t0:.2f}s)")


def test_criterion_03_extremal_identity():
    t0 = time.time()
    grid = cached_grid(4)
    worst = 0.0
    for lam in (0.1, 0.45, 0.8):
        for s in (0.5, 1.0):
            p = critical_exponent(4, s)
            K = best_constant(4, lam, s) ** ((4 - s) / (2 - s))
            z = RadialFunction(grid, exact_solution(4, lam, s, 1.0, grid.r))
            worst = max(worst, abs(lambda_norm_sq(z, lam) / K - 1.0))
            worst = max(worst, abs(weighted_lp(grid, z, p, s) / K - 1.0))
    report(3, worst <= 1e-3,
           f"extremal identity on reference grid, 6 (lambda,s) combos, "
           f"worst rel err {worst:.2e} (tol 1e-3, {time.time() - t0:.2f}s)")


def test_criterion_04_euler_lagrange_residual():
    t0 = time.time()
    # dual-norm residual of the sampled extremal couple
    worst_resid = 0.0
    for lam, s in ((0.3, 1.0), (0.1, 0.5)):
        grid = cached_grid(4, 1e-6, 1e6, 16384)
        pr = ProblemParams(4, s, lam, 0.5, 1.4, 1.4, 0.0)
        z = RadialFunction(grid, exact_solution(4, lam, s, 1.0, grid.r))
        pair = StatePair(z, RadialFunction.zero(grid))
        _, rel = gradient_dual_norm(pair, pr)
        worst_resid = max(worst_resid, rel)

    # finite-difference directional-derivative check
    g3 = cached_grid(3)
    pr = ProblemParams(3, 0.5, 0.1, 0.15, 2.2, 2.2, 0.5)
    rng = np.random.default_rng(2024)
    z1 = RadialFunction(g3, exact_solution(3, 0.1, 0.5, 1.0, g3.r))
    scale = float(np.interp(1.0, g3.r, z1.values))
    worst_fd = 0.0
    for _ in range(5):
        pair = StatePair(
            RadialFunction(g3, z1.values + 0.3 * scale * smooth_bump(g3, rng).values),
            RadialFunction(g3, 0.6 * scale * np.abs(smooth_bump(g3, rng).values)))
        gu, gv = pair_integrals(pair, pr, grad=True).gradient()
        J0 = energy(pair, pr).total
        for _ in range(20):
            du = smooth_bump(g3, rng)
            dv = smooth_bump(g3, rng)
            pairing = float(gu @ du.values) + float(gv @ dv.values)
            best = math.inf
            for h in 10.0 ** np.arange(-3.0, -8.0, -1.0):
                plus = StatePair(RadialFunction(g3, pair.u.values + h * du.values),
                                 RadialFunction(g3, pair.v.values + h * dv.values))
                minus = StatePair(RadialFunction(g3, pair.u.values - h * du.values),
                                  RadialFunction(g3, pair.v.values - h * dv.values))
                fd = (energy(plus, pr).total - energy(minus, pr).total) / (2 * h)
                best = min(best, abs(fd - pairing) / (abs(J0) + 1.0))
            worst_fd = max(worst_fd, best)

    ok = worst_resid <= 1e-5 and worst_fd <= 1e-6
    report(4, ok,
           f"EL residual rel {worst_resid:.2e} (tol 1e-5), FD check worst "
           f"{worst_fd:.2e} (tol 1e-6) over 5 pairs x 20 directions "
           f"({time.time() - t0:.1f}s)")


def test_criterion_05_nehari_projection():
    t0 = time.time()
    grid = cached_grid(4)
    pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
    z = RadialFunction(grid, exact_solution(4, 0.3, 1.0, 1.0, grid.r))
    pair = StatePair(z, RadialFunction.zero(grid))

    t1 = project(pair, pr).t_star
    t_half = project(pair.scaled(2.0), pr).t_star
    ok_t = abs(t1 - 1.0) <= 1e-4 and abs(t_half - 0.5) <= 1e-4

    rng = np.random.default_rng(99)
    pr_nu = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.7)
    worst_idem = 0.0
    neg_count = 0
    for _ in range(50):
        cand = StatePair(smooth_bump(grid, rng), smooth_bump(grid, rng))
        proj = project(cand, pr_nu).projected
        worst_idem = max(worst_idem,
                         abs(project(proj, pr_nu).t_star - 1.0))
        neg_count += pair_integrals(proj, pr_nu).second_variation_diag(tol=1e-8) < 0
    ok = ok_t and worst_idem <= 1e-10 and neg_count == 50
    report(5, ok,
           f"t*={t1:.6f} (want 1), t*={t_half:.6f} (want 0.5), idempotence "
           f"{worst_idem:.2e} (tol 1e-10), second variation negative on "
           f"{neg_count}/50 ({time.time() - t0:.1f}s)")


def test_criterion_06_decoupled_ground_state():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = 0.0
    details = []
    converged = True
    for (N, s, lam) in ((4, 1.0, 0.3), (3, 0.5, 0.1), (5, 1.0, 1.0)):
        grid = cached_grid(N)
        lam2 = 0.5 * hardy_constant(N)
        pr = ProblemParams(N, s, lam, lam2, 1.3, 1.3, 0.0)
        base = extremal_pair(pr, grid, "first")
        scale = float(np.interp(1.0, grid.r, base.u.values))
        init = StatePair(
            RadialFunction(grid, np.abs(
                base.u.values + 0.25 * scale * smooth_bump(grid, rng).values
                + 0.15 * scale * smooth_bump(grid, rng).values)),
            RadialFunction.zero(grid))
        rep = ground_state(pr, init, DescentOptions(tol_grad=1e-6, max_iter=6000))
        target = critical_level(N, lam, s)
        err = abs(rep.energy / target - 1.0)
        worst = max(worst, err)
        converged &= rep.converged and rep.stop_reason == "tolerance"
        details.append(f"N={N}:{err:.1e} ({rep.iterations} it, "
                       f"{rep.extra['trials']} trials, {rep.stop_reason})")
    report(6, worst <= 1e-3 and converged,
           f"decoupled ground states {', '.join(details)} "
           f"(tol 1e-3, all converged: {converged}, {time.time() - t0:.1f}s)")


def test_criterion_07_large_coupling_ground_state():
    t0 = time.time()
    grid = cached_grid(4)
    base = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.0)
    nu = escalate_nu(base, grid)
    pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, nu)
    init = StatePair(extremal_pair(pr, grid, "first").u,
                     extremal_pair(pr, grid, "second").v)
    rep = ground_state(pr, init, DescentOptions(tol_grad=1e-5, max_iter=6000))
    lv = rep.level_diagnostics
    restarts, trials = rep.extra["restarts"], rep.extra["trials"]
    ok = (rep.energy < lv["min_level"] - 1e-6
          and lv["crit_integral_u"] > 1e-6 and lv["crit_integral_v"] > 1e-6
          and 1 <= restarts <= rep.iterations <= trials)
    report(7, ok,
           f"escalated nu={nu:g}: energy {rep.energy:.4f} < min level "
           f"{lv['min_level']:.4f} - 1e-6, critical masses "
           f"({lv['crit_integral_u']:.2e}, {lv['crit_integral_v']:.2e}) > 1e-6, "
           f"{restarts} restarts in {rep.iterations} iterations, "
           f"{trials} line-search trials "
           f"({time.time() - t0:.1f}s)")


def test_criterion_08_classification_matrix():
    t0 = time.time()
    grid = cached_grid(3, 1e-6, 1e6, 2048)
    opts = ProbeOptions(seed=0)

    def probe(which, alpha, beta, nu):
        pr = ProblemParams(3, 0.5, 0.12, 0.1, alpha, beta, nu)
        return semitrivial_probe(pr, which, grid, opts).classification

    results = {
        "first local_min (beta=3)": probe("first", 1.5, 3.0, 1e-3),
        "second local_min (alpha=3)": probe("second", 3.0, 1.5, 1e-3),
        "second saddle (alpha=1.5)": probe("second", 1.5, 3.0, 1e-2),
        "first saddle (beta=1.5)": probe("first", 3.0, 1.5, 1e-2),
    }
    expected = {
        "first local_min (beta=3)": "local_min",
        "second local_min (alpha=3)": "local_min",
        "second saddle (alpha=1.5)": "saddle",
        "first saddle (beta=1.5)": "saddle",
    }
    matrix_ok = all(results[k] == expected[k] for k in expected)

    def params_at(nu):
        return ProblemParams(3, 0.5, 0.12, 0.1, 2.0, 2.2, nu)

    flip = classification_flip(params_at, 1e-3, 100.0, "second", grid, opts)
    ok = matrix_ok and flip["flip_found"]
    report(8, ok,
           f"matrix {results}, alpha=2 flip bracket "
           f"{tuple(round(x, 3) for x in flip['bracket'])} "
           f"({time.time() - t0:.1f}s)")


def test_criterion_09_scaling_set_oracle():
    t0 = time.time()
    rng = np.random.default_rng(9)
    ok_exact = 0
    for _ in range(100):
        N = int(rng.integers(3, 7))
        s = rng.uniform(0.0, 1.5)
        A = rng.uniform(0.2, 5.0)
        inst = LemmaInstance(A=A, B=1.0, theta=2.0, s=s, N=N, nu=0.0)
        ok_exact += algebraic_inf(inst) == inst.decoupled_inf

    # nu_eps is the supremum: the strict bound holds on [0, nu_eps) and just
    # below it, and fails just above it
    inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4)
    thresholds = {}
    for eps in (0.1, 0.01):
        nu_t = small_nu_threshold(inst, eps)
        target = (1 - eps) * inst.decoupled_inf
        below = [*np.linspace(0.0, nu_t, 5)[:-1], nu_t * (1 - 1e-9)]
        good = (nu_t > 0
                and all(algebraic_inf(replace(inst, nu=float(nu))) > target
                        for nu in below)
                and algebraic_inf(replace(inst, nu=nu_t * (1 + 1e-9))) <= target)
        thresholds[eps] = (nu_t, good)
    ok = ok_exact == 100 and all(g for _, g in thresholds.values())
    report(9, ok,
           f"nu=0 infimum equals the decoupled infimum on {ok_exact}/100 draws; "
           f"thresholds {{0.1: {thresholds[0.1][0]:.5g}, 0.01: {thresholds[0.01][0]:.5g}}}, "
           f"bound holds below and fails above each "
           f"({time.time() - t0:.1f}s)")


def test_criterion_10_mountain_pass_bracketing():
    t0 = time.time()
    pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.02)
    grid = cached_grid(4)
    rep = mountain_pass(pr, grid, PathOptions(n_path_nodes=32, max_sweeps=150))
    E1 = critical_level(4, 0.1, 0.5)
    E2 = critical_level(4, 0.3, 0.5)
    lv = rep.level_diagnostics
    gtrace = rep.extra["gradient_norm_trace"]
    initial_ok = lv["initial_path_max"] <= (E1 + E2) * (1 + 1e-3)
    bracket_ok = E1 < rep.energy < 3 * E2
    grad_ok = gtrace[-1] < gtrace[0]
    ok = initial_ok and bracket_ok and grad_ok
    report(10, ok,
           f"initial max {lv['initial_path_max']:.4f} <= {E1 + E2:.4f}+tol "
           f"({initial_ok}); {E1:.3f} < c_MP={rep.energy:.4f} < {3 * E2:.3f} "
           f"({bracket_ok}); crest gradient {gtrace[0]:.2e} -> {gtrace[-1]:.2e} "
           f"({grad_ok}) ({time.time() - t0:.1f}s)")
