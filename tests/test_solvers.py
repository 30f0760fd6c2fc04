"""Solver behavior: descent, escalation, min-max path, semitrivial labels."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from hsvar import (DegenerateInputError, DescentOptions, GridMismatchError,
                   HProfile, InvalidParameterError, PathOptions, PreconditionError,
                   ProbeOptions, ProblemParams, RadialFunction, StatePair,
                   classification_flip, classify, compact_bump, critical_level,
                   energy, energy_positive, escalate_nu, extremal_pair,
                   gradient_dual_norm, ground_state, hardy_constant,
                   lambda_norm_sq, mountain_pass, nehari_residual,
                   pair_norm_sq, project, semitrivial_probe)
from hsvar import operators, solvers
from hsvar.closed_forms import power_root
from hsvar.energy import Weights, integrals, pair_integrals, project_arrays
from hsvar.operators import LambdaOperator, PairMetric
from conftest import (admissible_params, assembled_interior, cached_grid,
                      smooth_bump)


def small_grid(N):
    return cached_grid(N, 1e-6, 1e6, 2048)


def assert_rows_close(x, y, rel=1e-13):
    """Two (2, n) couples agree to ``rel`` of each row's largest value."""
    for a, b in zip(x, y):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def perturbed_first(params, grid, rng, rel_amp=0.25):
    base = extremal_pair(params, grid, "first")
    scale = float(np.interp(1.0, grid.r, base.u.values))
    u = np.abs(base.u.values + rel_amp * scale * smooth_bump(grid, rng).values)
    return StatePair(RadialFunction(grid, u), RadialFunction.zero(grid))


def _escalate_by_doubling(params, I):
    """Reference for escalate_nu: double nu from 1 until the coupling term
    of the projected couple (integrals I) exceeds half its pair norm, for at
    most 60 root solves, and return the last nu.  The test nu q t^q C >
    t^2 A / 2 is made in x = ln t: with q near 2 and a large C the scale t
    lies below the float range, where t^q and t^2 are both 0."""
    q = params.alpha + params.beta
    nu = 1.0
    for _ in range(60):
        x = power_root(I.A, ((params.crit_exp - 2.0, I.B), (q - 2.0, nu * q * I.C)))
        if I.C > 0 and math.log(nu * q * I.C) + (q - 2.0) * x > math.log(0.5 * I.A):
            return nu
        nu *= 2.0
    return nu


class TestGroundState:
    def test_decoupled_recovers_level(self):
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
        rng = np.random.default_rng(0)
        rep = ground_state(pr, perturbed_first(pr, grid, rng),
                           DescentOptions(tol_grad=1e-6, max_iter=4000))
        target = critical_level(4, 0.3, 1.0)
        assert rep.energy == pytest.approx(target, rel=1e-3)
        assert rep.extra["monotone"]
        assert rep.nehari_residual <= 1e-8
        assert np.all(rep.profiles.u.values >= 0)
        assert np.all(rep.profiles.v.values >= 0)
        assert rep.converged and rep.stop_reason == "tolerance"

    def test_decoupled_n3_converges(self):
        # the soft dilation mode of the truncated N=3 problem: steepest
        # descent crawled along it without reaching tol_grad=1e-6, and CG
        # with an Armijo-only search took ~500 iterations
        grid = small_grid(3)
        pr = ProblemParams(3, 0.5, 0.1, 0.5 * hardy_constant(3), 1.3, 1.3, 0.0)
        rng = np.random.default_rng(0)
        rep = ground_state(pr, perturbed_first(pr, grid, rng),
                           DescentOptions(tol_grad=1e-6, max_iter=4000))
        assert rep.converged and rep.stop_reason == "tolerance"
        assert rep.gradient_norm <= 1e-6
        assert rep.extra["monotone"]
        assert rep.energy == pytest.approx(critical_level(3, 0.1, 0.5), rel=1e-3)
        # the strong-Wolfe search crosses the soft mode in a few dozen steps
        assert rep.iterations <= 150

    def test_zero_init_rejected(self):
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
        with pytest.raises(DegenerateInputError):
            ground_state(pr, StatePair.zero(grid))

    def test_nonconvergence_reported_not_silent(self):
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
        rng = np.random.default_rng(1)
        rep = ground_state(pr, perturbed_first(pr, grid, rng),
                           DescentOptions(tol_grad=1e-14, max_iter=5))
        assert not rep.converged
        assert rep.iterations <= 5
        assert rep.stop_reason == "max_iter"

    def test_failed_search_stops_at_line_search(self):
        # tol_grad = 0 is never met: near the minimizer no trial meets the
        # Armijo test, and the descent stops there, unconverged
        grid = cached_grid(5, 1e-6, 1e6, 512)
        pr = ProblemParams(5, 1.0, 1.0, 0.5, 1.2, 1.2, 0.0)
        rep = ground_state(pr, perturbed_first(pr, grid, np.random.default_rng(0)),
                           DescentOptions(tol_grad=0.0))
        assert rep.stop_reason == "line_search" and not rep.converged
        assert rep.iterations < DescentOptions().max_iter

    @pytest.mark.parametrize("max_iter", [1, 3, 5])
    def test_max_iter_stop_reports_the_returned_gradient(self, max_iter):
        # the gradient of the profiles returned, not of the iterate before
        # the last step
        grid = cached_grid(4, 1e-6, 1e6, 1024)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.0)
        init = StatePair(extremal_pair(pr, grid, "first").u,
                         extremal_pair(pr, grid, "second").v)
        rep = ground_state(pr, init, DescentOptions(max_iter=max_iter))
        assert rep.stop_reason == "max_iter"
        assert rep.gradient_norm == pytest.approx(
            gradient_dual_norm(rep.profiles, pr, positive=True)[1], rel=1e-12)

    @pytest.mark.parametrize("nu,max_iter", [(0.0, 400), (1.0, 400), (1.0, 3)])
    def test_reported_integrals_are_those_of_the_profiles(self, nu, max_iter):
        # the report is algebra over the descent's last integrals, by
        # homogeneity; a fresh pass over the returned profiles agrees
        grid = cached_grid(4, 1e-6, 1e6, 1024)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, nu)
        init = StatePair(extremal_pair(pr, grid, "first").u,
                         extremal_pair(pr, grid, "second").v)
        rep = ground_state(pr, init, DescentOptions(max_iter=max_iter))
        I = pair_integrals(rep.profiles, pr, positive=True)
        lv = rep.level_diagnostics
        assert lv["crit_integral_u"] == pytest.approx(I.hs_u, rel=1e-12)
        assert lv["crit_integral_v"] == pytest.approx(I.hs_v, rel=1e-12)
        assert rep.energy == pytest.approx(I.energy(), rel=1e-12)
        assert rep.nehari_residual <= 1e-12
        assert abs(I.residual()) / I.A <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(p=admissible_params(),
           h=st.one_of(st.floats(-30.0, 2.0).map(lambda k: HProfile(c=10.0 ** k)),
                       st.builds(HProfile, st.just("bump"), p_exp=st.floats(0.5, 400.0),
                                 q_exp=st.floats(0.5, 400.0))))
    @example(p=ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4), h=HProfile(c=1e-6))     # 2^20
    @example(p=ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4), h=HProfile(c=1e-30))    # 2^60
    @example(p=ProblemParams(3, 0.0, 0.125, 0.125, 1.015625, 1.03125), h=HProfile())  # t < 1e-308
    def test_escalate_nu_matches_the_doubling_loop(self, p, h):
        # small weights put the threshold nu_c above 1 and beyond the 2^60 cap
        params = replace(p, h_profile=h)
        grid = cached_grid(params.N, 1e-6, 1e6, 256)
        wt = Weights(grid, params)
        I = integrals(wt, solvers._extremal(wt, "first")[0],
                      solvers._extremal(wt, "second")[0], positive=True)
        # the loop and the closed form may round apart where nu_c is a power
        # of two: log2 nu_c = log2(A / (2qC)) - (q-2)/(p-2) log2(A / (2B))
        q, p_ = params.alpha + params.beta, params.crit_exp
        if I.C > 0:
            k = (math.log2(I.A) - math.log2(2.0 * q * I.C)
                 - (q - 2.0) / (p_ - 2.0) * (math.log2(I.A) - math.log2(2.0 * I.B)))
            assume(abs(k - round(k)) > 1e-9)
        assert escalate_nu(params, grid) == _escalate_by_doubling(params, I)

    def test_large_nu_produces_coupled_state_below_levels(self):
        grid = small_grid(4)
        base = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.0)
        nu = escalate_nu(base, grid)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, nu)
        z1 = extremal_pair(pr, grid, "first").u
        z2 = extremal_pair(pr, grid, "second").v
        rep = ground_state(pr, StatePair(z1, z2),
                           DescentOptions(tol_grad=1e-5, max_iter=4000))
        levels = rep.level_diagnostics
        assert levels["below_min_semitrivial"]
        assert rep.energy < levels["min_level"] - 1e-6
        assert levels["crit_integral_u"] > 1e-6
        assert levels["crit_integral_v"] > 1e-6
        assert rep.classification == "coupled"
        # the first step and every restart run along the preconditioned
        # gradient itself
        assert 1 <= rep.extra["restarts"] <= rep.iterations
        # reported energy agrees with the on-constraint identity
        assert pair_integrals(rep.profiles, pr).constrained_energy(
            tol=1e-6) == pytest.approx(rep.energy, rel=1e-8)

    def test_energy_threshold_flag_consistent(self):
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
        rng = np.random.default_rng(2)
        rep = ground_state(pr, perturbed_first(pr, grid, rng),
                           DescentOptions(tol_grad=1e-6, max_iter=4000))
        # decoupled run converges to the first-component level, which is the
        # larger one here, so the below-minimum flag must be off
        assert not rep.level_diagnostics["below_min_semitrivial"]

    # an alpha = beta row is named without its beta
    @pytest.mark.parametrize("N,s,lam,alpha,beta,nu", [
        pytest.param(4, 0.5, 0.1, 1.75, 1.75, 1.0, id="4-0.5-0.1-1.75-1.0"),
        (4, 0.5, 0.1, 2.3, 1.2, 1.0),
        pytest.param(5, 1.0, 0.5, 4 / 3, 4 / 3, 2.0, id="5-1.0-0.5-1.3333333333333333-2.0"),
        pytest.param(6, 0.5, 1.0, 1.375, 1.375, 1.0, id="6-0.5-1.0-1.375-1.0"),
        (4, 0.0, 0.2, 2.5, 1.5, 1.0),
        pytest.param(4, 1.0, 0.3, 1.5, 1.5, 2.0, id="4-1.0-0.3-1.5-2.0")])
    def test_synchronized_level_to_1e_9(self, N, s, lam, alpha, beta, nu):
        # lambda1 = lambda2, alpha + beta = p and constant h: the couple
        # (cos th, sin th) z has the level E_h g(th)^(-2/(p-2)),
        # g(th) = cos^p th + sin^p th + p nu cos^alpha th sin^beta th, with
        # E_h the level of z on the same grid.  The descent reaches the
        # couple at th*, the maximum of g in the bracket (0.2, 1): pi/4 to
        # rounding when alpha = beta, 0.54526 for (2.3, 1.2), where a
        # 20,001-point grid of th misses the level by -3.2e-9, and 0.57034
        # for (2.5, 1.5).  Measured errors -2.9e-11 (stop at the tolerance, 14
        # iterations), -2.9e-11 (line_search, 15), -7.2e-11 (line_search,
        # 18), -2.5e-10 (line_search, 13), -3.3e-11 (tolerance, 13) and
        # +4.2e-10 (line_search, 17) on 4096 nodes; -5.6e-10 and -9.1e-9 for
        # the first tuple on 2048 and 1024.  At N = 3 the tails decay slowly
        # and E_h, the projected sampled extremal, is not the discrete
        # minimizer: the descent lands 5e-5 to 7e-3 below the level, so no
        # row has N = 3
        pr = ProblemParams(N, s, lam, lam, alpha, beta, nu)
        grid = cached_grid(N, 1e-6, 1e6, 4096)
        z, E_h = solvers._extremal(Weights(grid, pr), "first")
        p = pr.crit_exp

        def g(th):
            c, s_ = math.cos(th), math.sin(th)
            return c ** p + s_ ** p + p * nu * c ** alpha * s_ ** beta

        def dg(th):
            c, s_ = math.cos(th), math.sin(th)
            return (p * (s_ ** (p - 1) * c - c ** (p - 1) * s_)
                    + p * nu * (beta * c ** (alpha + 1) * s_ ** (beta - 1)
                                - alpha * c ** (alpha - 1) * s_ ** (beta + 1)))

        level = E_h * g(scipy.optimize.brentq(dg, 0.2, 1.0, xtol=1e-15)) ** (-2.0 / (p - 2.0))
        bump = compact_bump(grid.t, 0.3, 1.5, 0.2)
        rep = ground_state(pr, StatePair(RadialFunction(grid, 0.8 * z),
                                         RadialFunction(grid, 0.6 * z * (1 + bump))),
                           DescentOptions(tol_grad=1e-9))
        assert abs(rep.energy - level) <= 1e-9 * level


class TestMountainPass:
    def params(self, nu=0.02):
        return ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, nu)

    def test_precondition_rejected_outside_window(self):
        # lambda2 too large: separation window fails
        pr = ProblemParams(4, 0.5, 0.1, 0.6, 2.2, 1.2, 1e-3)
        with pytest.raises(PreconditionError):
            mountain_pass(pr, small_grid(4))

    @settings(max_examples=60, deadline=None)
    @given(pr=admissible_params())
    @example(pr=ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2))
    @example(pr=ProblemParams(4, 0.5, 0.3, 0.1, 1.2, 2.2))
    @example(pr=ProblemParams(3, 0.5, 0.05, 0.1, 2.2, 2.2))
    def test_precondition_is_the_classified_minmax_case(self, pr):
        # the statement requires small nu; at nu = 1 the crest of a 4-segment
        # chain can fall onto an endpoint
        pr = replace(pr, nu=1e-3)
        case = classify(pr).thm_minmax["case"]
        grid = cached_grid(pr.N, 1e-6, 1e6, 512)
        opts = PathOptions(n_path_nodes=4, max_sweeps=0)
        if case == "none":
            with pytest.raises(PreconditionError):
                mountain_pass(pr, grid, opts)
        else:
            assert mountain_pass(pr, grid, opts).extra["orientation"] == case

    def test_bracketing_and_monotonicity(self):
        pr = self.params()
        grid = small_grid(4)
        rep = mountain_pass(pr, grid, PathOptions(n_path_nodes=24, max_sweeps=150))
        E1 = critical_level(4, 0.1, 0.5)
        E2 = critical_level(4, 0.3, 0.5)
        lv = rep.level_diagnostics
        assert lv["endpoint_energies"][0] == pytest.approx(E1, rel=1e-4)
        assert lv["endpoint_energies"][1] == pytest.approx(E2, rel=1e-4)
        assert lv["initial_path_max"] <= E1 + E2 + 1e-3 * (E1 + E2)
        assert lv["interpolation_bound_max"] == pytest.approx(E1 + E2, rel=1e-3)
        # estimate trace never increases and stays above both endpoints
        trace = rep.trace
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
        assert E1 < rep.energy < 3 * E2
        assert rep.energy > max(lv["endpoint_energies"])
        # crest gradient decreases over the deformation
        gtrace = rep.extra["gradient_norm_trace"]
        assert gtrace[-1] < gtrace[0]
        assert np.all(rep.profiles.u.values >= 0)
        assert np.all(rep.profiles.v.values >= 0)
        # the reported crest is the state whose energy was recorded
        assert energy_positive(rep.profiles, pr) == pytest.approx(rep.energy, rel=1e-12)
        assert (abs(nehari_residual(rep.profiles, pr, positive=True))
                <= 1e-10 * pair_norm_sq(rep.profiles, pr))

    @pytest.mark.parametrize("bump,K,sweeps,stop", [
        pytest.param(False, 7, 40, "max_sweeps", id="constant-h-K7"),
        pytest.param(True, 16, 150, "tolerance", id="bump-h-K16"),
        pytest.param(False, 8, 0, "max_sweeps", id="no-sweep-K8"),
        pytest.param(False, 24, 150, "stall", id="stall-K24")])
    def test_report_describes_its_crest(self, bump, K, sweeps, stop):
        # energy, profiles and gradient norm describe one state: at K=7 the
        # chain maximum rises above its initial value, the bump h stops at
        # the tolerance, max_sweeps=0 measures the initial crest, and the
        # constant-h crest, which has no critical point, stalls
        pr = (ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.5,
                            HProfile("bump", p_exp=2.0, q_exp=2.0))
              if bump else self.params())
        rep = mountain_pass(pr, cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=K, max_sweeps=sweeps))
        assert rep.stop_reason == stop
        assert (gradient_dual_norm(rep.profiles, pr, positive=True)[1]
                == pytest.approx(rep.gradient_norm, rel=1e-12))
        assert energy_positive(rep.profiles, pr) == pytest.approx(rep.energy, rel=1e-12)
        assert rep.gradient_norm == rep.extra["gradient_norm_trace"][-1]
        assert rep.iterations == len(rep.trace) - 1
        if stop == "stall":
            gtrace = rep.extra["gradient_norm_trace"]
            assert rep.iterations == 54 and not rep.converged
            assert gtrace[-1] < gtrace[0]

    def test_stall_ends_the_path_it_does_not_change(self):
        # the least crest gradient of this tuple stops falling by 1% after
        # sweep 4: the path stops 50 sweeps later, and a run capped at that
        # sweep is the same path
        grid = cached_grid(4, 1e-6, 1e6, 1024)
        rep = mountain_pass(self.params(), grid,
                            PathOptions(n_path_nodes=24, max_sweeps=150))
        assert rep.stop_reason == "stall"
        gtrace = rep.extra["gradient_norm_trace"]
        s, W = rep.iterations, solvers.PATH_STALL_WINDOW
        assert min(gtrace) > (1 - solvers.PATH_STALL_DROP) * min(gtrace[:s - W + 1])
        assert min(gtrace[:-1]) <= ((1 - solvers.PATH_STALL_DROP)
                                    * min(gtrace[:s - W]))
        capped = mountain_pass(self.params(), grid,
                               PathOptions(n_path_nodes=24, max_sweeps=s))
        assert capped.iterations == s
        assert capped.energy == rep.energy
        assert capped.extra["trials"] == rep.extra["trials"]
        assert capped.extra["gradient_norm_trace"] == gtrace
        for a, b in ((capped.profiles.u, rep.profiles.u),
                     (capped.profiles.v, rep.profiles.v)):
            assert np.array_equal(a.values, b.values)

    def test_no_improvement_ends_a_path_whose_crest_cannot_move(self):
        # with two segments the crest has no interior neighbor; its climb
        # fails at sweep 6, after 8 trials in all, and the path stops there
        rep = mountain_pass(self.params(), cached_grid(4, 1e-6, 1e6, 512),
                            PathOptions(n_path_nodes=2))
        assert rep.stop_reason == "no_improvement" and not rep.converged
        assert rep.iterations == 7 and rep.extra["trials"] == 8
        assert rep.energy == 32.66500722801798

    def test_a_plateau_shorter_than_half_the_run_does_not_stall(self):
        # the least crest gradient of this bump h falls by less than 1% from
        # sweep 210 to 277, longer than the 50-sweep window, and then falls
        # to the tolerance: the window grows with the run, to its last half
        pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.05,
                           HProfile("bump", p_exp=2.0, q_exp=2.0))
        rep = mountain_pass(pr, cached_grid(4, 1e-6, 1e6, 4096),
                            PathOptions(n_path_nodes=32, max_sweeps=400))
        assert rep.stop_reason == "tolerance" and rep.converged
        assert rep.iterations == 371
        # a window fixed at 50 sweeps would have stopped it, at sweep 260
        g, W, D = (rep.extra["gradient_norm_trace"], solvers.PATH_STALL_WINDOW,
                   solvers.PATH_STALL_DROP)
        assert next(s for s in range(W, len(g))
                    if min(g[:s + 1]) > (1 - D) * min(g[:s - W + 1])) == 260

    def test_redistribute_resamples_a_view_in_place(self):
        pr = self.params()
        wt = Weights(small_grid(4), pr)
        chain = solvers._initial_path(wt, 10)
        P, E, Q, plane = chain.P, chain.E, chain.Q, chain.plane
        U, V = P[:, 0], P[:, 1]
        # crowd the chain so that resampling moves the interior rows; the
        # crowded rows are marked off the plane, so a target between them is
        # projected by a grid pass
        U[3:6], V[3:6], E[3:6], Q[3:6] = U[2], V[2], E[2], np.nan
        chain.measure(0, 10)
        U0, V0, E0, Q0, seg0 = U.copy(), V.copy(), E.copy(), Q.copy(), chain.seg.copy()
        seg = seg0[2:8]
        # a segment with an end off the plane is the volume norm of the
        # difference, bit for bit; one between plane nodes is, to rounding
        us, vs = U0[2:9], V0[2:9]
        ref = np.sqrt(((np.diff(us, axis=0) ** 2 + np.diff(vs, axis=0) ** 2)
                       * wt.grid.w).sum(axis=1))
        assert np.array_equal(seg[:4], ref[:4])
        assert seg[4:] == pytest.approx(ref[4:], rel=1e-13)
        assert solvers._redistribute(chain, 2, 8)
        outside = [0, 1, 2, 8, 9, 10]
        assert np.array_equal(U[outside], U0[outside])
        assert np.array_equal(V[outside], V0[outside])
        assert np.array_equal(E[outside], E0[outside])
        assert np.array_equal(Q[outside], Q0[outside])
        assert np.array_equal(chain.seg[[0, 1, 8, 9]], seg0[[0, 1, 8, 9]])
        assert not np.array_equal(U[3:8], U0[3:8])
        for k in range(3, 8):
            I = integrals(wt, U[k], V[k], positive=True)
            assert abs(I.residual()) <= 1e-10 * I.A
            assert E[k] == pytest.approx(I.energy(), rel=1e-12)
        # the same arithmetic as a loop over the targets gives the same bits
        # on the grid path; the one target between plane nodes is a plane row
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        on_grid = []
        for k, s_t in enumerate(np.linspace(0.0, arc[-1], 7)[1:-1], start=3):
            j = min(int(np.searchsorted(arc, s_t, side="right")) - 1, 5)
            theta = (s_t - arc[j]) / max(arc[j + 1] - arc[j], 1e-300)
            u = (1 - theta) * us[j] + theta * us[j + 1]
            v = (1 - theta) * vs[j] + theta * vs[j + 1]
            t, I = project_arrays(wt, u, v, positive=True)
            if np.isnan(Q0[2 + j, 0] + Q0[3 + j, 0]):
                on_grid.append(k)
                assert np.array_equal(U[k], t * u) and np.array_equal(V[k], t * v)
                assert E[k] == I.energy(t)
                assert np.isnan(Q[k]).all()
            else:
                assert np.array_equal(P[k], Q[k][:, None] * plane.z)
                assert_rows_close(P[k], t * np.stack((u, v)))
                assert E[k] == pytest.approx(I.energy(t), rel=1e-13)
        assert on_grid == [3, 4, 5, 6]

    def test_a_resample_interpolates_every_target_from_the_old_side(self):
        # every interior row off the plane, crowded toward the end node, so
        # that most targets lie between nodes that precede them: rows the
        # resample writes before it reaches those targets
        wt = Weights(small_grid(4), self.params())
        chain = solvers._initial_path(wt, 10)
        P, E = chain.P, chain.E
        ends = P[[0, 10]].copy()
        for k in range(1, 10):
            s_k = 1.0 - 0.5 ** k
            chain.project(k, (1.0 - s_k) * ends[0] + s_k * ends[1])
        assert np.isnan(chain.Q[1:10]).all()
        chain.measure(0, 10)
        P0, arc = P.copy(), np.concatenate([[0.0], np.cumsum(chain.seg)])
        assert solvers._redistribute(chain, 0, 10)
        rewritten = 0
        for i, s_t in enumerate(np.linspace(0.0, arc[-1], 11)[1:-1], start=1):
            j = min(int(np.searchsorted(arc, s_t, side="right")) - 1, 9)
            theta = (s_t - arc[j]) / max(arc[j + 1] - arc[j], 1e-300)
            x = (1 - theta) * P0[j] + theta * P0[j + 1]
            t, I = project_arrays(wt, *x, positive=True)
            assert np.array_equal(P[i], t * x) and E[i] == I.energy(t)
            rewritten += 0 < j < i or j + 1 < i
        assert rewritten >= 5

    def test_redistribute_projects_between_plane_nodes_in_the_plane(self):
        # every node of the initial path lies in the plane of (z1, z2): a
        # resampled node is t (a z1, b z2), with (a, b) the interpolated
        # coordinates and t its plane projection, and agrees with a grid
        # projection of the interpolated couple to rounding
        wt = Weights(small_grid(4), self.params())
        chain = solvers._initial_path(wt, 10)
        P, E, Q, plane, seg = chain.P, chain.E, chain.Q, chain.plane, chain.seg
        z1, z2 = P[0, 0].copy(), P[-1, 1].copy()
        assert not P[0, 1].any() and not P[-1, 0].any()
        for k in range(11):
            assert np.array_equal(P[k], Q[k][:, None] * np.stack((z1, z2)))
        P0, Q0 = P.copy(), Q.copy()
        assert seg == pytest.approx(
            [wt.distance(P[k + 1] - P[k]) for k in range(10)], rel=1e-13)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        assert solvers._redistribute(chain, 0, 10)
        for k, s_t in enumerate(np.linspace(0.0, arc[-1], 11)[1:-1], start=1):
            j = min(int(np.searchsorted(arc, s_t, side="right")) - 1, 9)
            theta = (s_t - arc[j]) / max(arc[j + 1] - arc[j], 1e-300)
            a, b = (1 - theta) * Q0[j] + theta * Q0[j + 1]
            I = plane.integrals(a, b)
            t = I.scale()
            assert Q[k].tolist() == [t * a, t * b]
            assert np.array_equal(P[k, 0], (t * a) * z1)
            assert np.array_equal(P[k, 1], (t * b) * z2)
            assert E[k] == I.energy(t)
            x = (1 - theta) * P0[j] + theta * P0[j + 1]
            tg, Ig = project_arrays(wt, *x, positive=True)
            assert_rows_close(P[k], tg * x)
            assert E[k] == pytest.approx(Ig.energy(tg), rel=1e-13)
        # the initial path's 9 interior nodes and the 9 resampled ones
        assert chain.plane_projections == 18
        seg0 = seg.copy()
        chain.measure(0, 10)
        assert np.array_equal(seg, seg0)
        assert seg == pytest.approx(
            [wt.distance(P[k + 1] - P[k]) for k in range(10)], rel=1e-13)

    def test_a_moved_node_leaves_the_plane(self):
        pr = self.params()
        grid = small_grid(4)
        wt = Weights(grid, pr)
        chain = solvers._initial_path(wt, 8)
        P, E, Q, seg = chain.P, chain.E, chain.Q, chain.seg
        k = int(np.argmax(E)) - 1
        Q0 = Q.copy()
        moved = solvers._move_node(chain, PairMetric(grid, pr.lambda1, pr.lambda2), k)
        assert moved and chain.trials >= 1
        assert np.isnan(Q[k]).all()
        others = [i for i in range(9) if i != k]
        assert np.array_equal(Q[others], Q0[others])
        # the two segments at the moved node are volume norms of differences
        assert seg[k - 1] == wt.distance(P[k] - P[k - 1])
        assert seg[k] == wt.distance(P[k + 1] - P[k])
        seg0 = seg.copy()
        chain.measure(0, 8)
        assert np.array_equal(seg, seg0)

    def test_redistribute_keeps_a_chain_within_the_ratio(self):
        wt = Weights(small_grid(4), self.params())
        chain = solvers._initial_path(wt, 10)
        P, E, Q, seg = chain.P, chain.E, chain.Q, chain.seg
        U, V = P[:, 0], P[:, 1]
        # the initial path's longest segment is 5 times its shortest
        assert solvers._redistribute(chain, 0, 10)
        assert seg.max() <= solvers.RESAMPLE_RATIO * seg.min()
        U0, V0, E0, Q0, seg0 = U.copy(), V.copy(), E.copy(), Q.copy(), seg.copy()
        assert not solvers._redistribute(chain, 0, 10)
        for a, b in ((U, U0), (V, V0), (E, E0), (Q, Q0), (seg, seg0)):
            assert np.array_equal(a, b)
        assert chain.resamples == 1

    def test_redistribute_refreshes_the_segments_it_resamples(self):
        wt = Weights(small_grid(4), self.params())
        chain, chain1 = solvers._initial_path(wt, 10), solvers._initial_path(wt, 10)
        for c in (chain, chain1):
            U, V = c.P[:, 0], c.P[:, 1]
            U[3:6], V[3:6], c.E[3:6], c.Q[3:6] = U[2], V[2], c.E[2], np.nan
        chain.measure(0, 10)
        assert solvers._redistribute(chain, 2, 8)
        # the refresh is exact: each segment as a fresh computation gives it
        seg = chain.seg.copy()
        chain.measure(0, 10)
        assert np.array_equal(seg, chain.seg)
        # a side reads its own segments alone: those of the rest of the
        # chain may be unknown
        chain1.seg[:] = np.nan
        chain1.measure(2, 8)
        assert solvers._redistribute(chain1, 2, 8)
        for a, b in ((chain.P, chain1.P), (chain.E, chain1.E),
                     (chain.seg[2:8], chain1.seg[2:8])):
            assert np.array_equal(a, b)
        assert np.array_equal(chain.Q, chain1.Q, equal_nan=True)

    def test_counts_its_side_resamplings(self):
        rep = mountain_pass(self.params(), cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=7, max_sweeps=40))
        # two sides per sweep after the first; some of them are left as they are
        assert 0 < rep.extra["resamples"] < 2 * (rep.iterations - 1)
        # the climb's floor probe changes the cost of the path, not the path:
        # the level is the one reached when every failing climb walked its
        # ladder down to the floor, at 632 trials, and when each failure
        # probed its floor after its first trial, at 152
        assert rep.energy == 32.653391293012625
        assert rep.extra["trials"] == 121
        # the initial path's 6 interior nodes and 6 resampled nodes between
        # nodes still in the plane are projected without a grid pass
        assert rep.extra["plane_projections"] == 12

    def test_no_node_is_measured_twice_in_the_same_state(self, monkeypatch):
        # a crest whose climb failed keeps its measurement for the next
        # sweep, so no measurement may be edited in place: they are read-only
        seen = []
        measure = solvers._node_direction

        def recorded(wt, metric, x):
            seen.append(x.tobytes())
            out = measure(wt, metric, x)
            for a in out[1:-1]:
                a.setflags(write=False)
            return out

        monkeypatch.setattr(solvers, "_node_direction", recorded)
        rep = mountain_pass(self.params(), cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=7, max_sweeps=40))
        assert len(set(seen)) == len(seen)
        assert rep.energy == 32.653391293012625
        assert rep.extra["trials"] == 121

    def test_climb_counts_agree_with_the_trials(self, monkeypatch):
        # one climb per sweep that moves the chain; a climb that failed makes
        # the next one judge its floor first, which at this tuple ends each
        # failure that follows a failure after 1 trial
        moves, searches = [], []
        move, search = solvers._move_node, solvers._line_search

        def recorded_search(*args, **kwargs):
            n, found = search(*args, **kwargs)
            searches.append((kwargs["floor_after"], n))
            return n, found

        def recorded_move(chain, metric, k):
            # the climbing node is the chain's maximum
            climbing = k == int(np.argmax(chain.E))
            moved = move(chain, metric, k)
            # one search per move
            (floor_after, n), = searches
            searches.clear()
            moves.append((climbing, floor_after, n, moved))
            return moved

        monkeypatch.setattr(solvers, "_line_search", recorded_search)
        monkeypatch.setattr(solvers, "_move_node", recorded_move)
        rep = mountain_pass(self.params(), cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=7, max_sweeps=40))
        climbs = [(after, n, moved) for climbing, after, n, moved in moves
                  if climbing]
        assert rep.extra["trials"] == sum(n for *_, n, _ in moves)
        # the climbs are read off the iterations: one per sweep that moves
        assert rep.extra["climbs"] == rep.iterations == len(climbs) == 40
        assert rep.extra["failed_climbs"] == sum(not m for *_, m in climbs) == 32
        # a climb judges its floor after a failed first trial, and before its
        # first trial when the last climb failed; a neighbor never does
        assert [after for after, *_ in climbs] == [
            1] + [1 if moved else 0 for *_, moved in climbs[:-1]]
        assert all(after is None for climbing, after, *_ in moves if not climbing)
        assert all(n == 1 for after, n, moved in climbs if after == 0 and not moved)

    def test_bump_h_crest_level_at_the_reference_grid(self):
        # the yardstick of the path's cost: the level at 1e-9 is the one
        # reached while every side was resampled at every sweep
        pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.5,
                           HProfile("bump", p_exp=2.0, q_exp=2.0))
        rep = mountain_pass(pr, cached_grid(4, 1e-6, 1e6, 4096),
                            PathOptions(n_path_nodes=32, max_sweeps=150,
                                        crest_grad_tol=1e-9))
        assert rep.stop_reason == "tolerance"
        assert rep.energy == pytest.approx(24.40941508215465, rel=1e-12)

    def test_short_run_reports_max_sweeps_unconverged(self):
        rep = mountain_pass(self.params(), small_grid(4),
                            PathOptions(n_path_nodes=8, max_sweeps=3))
        assert rep.stop_reason == "max_sweeps"
        assert rep.iterations == 3
        assert not rep.converged
        assert rep.gradient_norm > PathOptions().crest_grad_tol

    def test_reaches_the_tolerance_where_a_crest_exists(self):
        # with constant h and alpha + beta < p the coupling integral is not
        # dilation invariant (test_integrals_are_equivariant_under_grid_shifts),
        # so the crest of the params above drifts along the dilation mode; a
        # bump h, vanishing at 0 and infinity, leaves it a critical point
        pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.5,
                           HProfile("bump", p_exp=2.0, q_exp=2.0))
        rep = mountain_pass(pr, cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=16, max_sweeps=150))
        assert rep.stop_reason == "tolerance" and rep.converged
        assert rep.gradient_norm <= PathOptions().crest_grad_tol
        assert (gradient_dual_norm(rep.profiles, pr, positive=True)[1]
                <= PathOptions().crest_grad_tol)
        assert rep.iterations < 150
        lv = rep.level_diagnostics
        assert lv["level_1"] < rep.energy < lv["sum_levels"]
        assert lv["initial_path_max"] <= lv["sum_levels"] * (1 + 1e-3)

    def test_converged_means_crest_gradient_within_tolerance(self):
        rep = mountain_pass(self.params(), small_grid(4),
                            PathOptions(n_path_nodes=8, max_sweeps=3,
                                        crest_grad_tol=1.0))
        assert rep.stop_reason == "tolerance" and rep.converged
        assert rep.gradient_norm <= 1.0
        assert rep.iterations == 0


def descent_start(params, grid, rng):
    """A perturbed start on the constraint set: weights, (2, n) couple,
    energy, squared norm, and the metric direction m = M^-1 g with slope
    <g, m>."""
    wt = Weights(grid, params)
    x = perturbed_first(params, grid, rng)
    t, I = project_arrays(wt, x.u.values, x.v.values, positive=True, grad=True)
    g = I.gradient(t)
    metric = PairMetric(grid, params.lambda1, params.lambda2)
    m, slope = metric.direction(g)
    return (wt, t * np.stack((x.u.values, x.v.values)), I.energy(t),
            t * t * I.A, m, slope)


def counting_projections(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return project_arrays(*args, **kwargs)

    monkeypatch.setattr(solvers, "project_arrays", counted)
    return calls


class TestLineSearch:
    def test_no_acceptable_step_stops_at_the_metric_floor(self, monkeypatch):
        # an ascent direction on the constraint set: the projected energy
        # rises to first order, so no trial passes the Armijo test
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.0)
        grid = small_grid(4)
        wt = Weights(grid, pr)
        z1 = extremal_pair(pr, grid, "first").u.values
        z2 = extremal_pair(pr, grid, "second").v.values
        t, I = project_arrays(wt, z1, z2, positive=True, grad=True)
        x, E, nsq = t * np.stack((z1, z2)), I.energy(t), t * t * I.A
        metric = PairMetric(grid, pr.lambda1, pr.lambda2)
        m, slope = metric.direction(I.gradient(t))
        calls = counting_projections(monkeypatch)
        trials, found = solvers._line_search(wt, x, -m, slope, nsq, E)
        assert found is None
        assert trials == len(calls)
        rel = math.sqrt(slope / nsq)
        bound = math.ceil(math.log2(solvers.STEP0 * rel / solvers.SQRT_EPS)) + 1
        assert len(calls) <= bound < solvers.MAX_BACKTRACKS

    @pytest.mark.parametrize("accept_at", [0, 3, None])
    def test_boolean_accept_halves_the_step(self, monkeypatch, accept_at):
        # the path's tests answer only yes or no: st, st/2, st/4, ... down
        # to the floor, one projection each
        pr = ProblemParams(3, 0.5, 0.1, 0.5 * hardy_constant(3), 1.3, 1.3, 0.0)
        wt, x, E, nsq, d, slope = descent_start(
            pr, small_grid(3), np.random.default_rng(0))
        steps = []

        def accept(st, t, I):
            steps.append(st)
            return len(steps) - 1 == accept_at

        calls = counting_projections(monkeypatch)
        trials, found = solvers._line_search(wt, x, d, slope, nsq, E,
                                             accept, step=1.5)
        assert trials == len(calls) == len(steps)
        assert steps == [1.5 * 0.5 ** k for k in range(len(steps))]
        if accept_at is None:
            assert found is None
            rel = math.sqrt(slope / nsq)
            # the last trial lies above the floor and the next one would not
            assert steps[-1] * rel > solvers.SQRT_EPS >= 0.5 * steps[-1] * rel
        else:
            assert len(steps) == accept_at + 1 and found[0] == steps[-1]


class TestFloorProbe:
    def start(self):
        pr = ProblemParams(3, 0.5, 0.1, 0.5 * hardy_constant(3), 1.3, 1.3, 0.0)
        return descent_start(pr, small_grid(3), np.random.default_rng(0))

    def search(self, monkeypatch, passes, step=solvers.STEP0, **kw):
        """Trials, found and judged steps of a search with a boolean accept."""
        wt, x, E, nsq, d, slope = self.start()
        steps = []

        def accept(st, t, I):
            steps.append(st)
            return passes(st)

        calls = counting_projections(monkeypatch)
        trials, found = solvers._line_search(wt, x, d, slope, nsq, E,
                                             accept, grad=True, step=step, **kw)
        assert trials == len(calls) == len(steps)
        return trials, found, steps, math.sqrt(slope / nsq)

    def test_a_failing_floor_ends_the_search_after_two_trials(self, monkeypatch):
        trials, found, ladder, rel = self.search(monkeypatch, lambda st: False)
        assert found is None and trials > 2
        trials, found, steps, _ = self.search(monkeypatch, lambda st: False,
                                              floor_after=1)
        assert (trials, found) == (2, None)
        assert steps == [ladder[0], ladder[-1]]
        assert ladder[-1] * rel > solvers.SQRT_EPS >= 0.5 * ladder[-1] * rel

    @pytest.mark.parametrize("below", [0.3, 1e-3, 1e-6])
    def test_a_passing_floor_keeps_the_ladder_step(self, monkeypatch, below):
        # the probe is judged and not taken: the accepted step is the one the
        # plain halving ladder finds, one trial later
        def passes(st):
            return st < below

        trials, found0, steps, rel = self.search(monkeypatch, passes)
        probed, found, (first, floor, *rest), _ = self.search(
            monkeypatch, passes, floor_after=1)
        assert floor * rel > solvers.SQRT_EPS >= 0.5 * floor * rel
        assert probed == trials + 1 and [first, *rest] == steps
        (st, t, _, (u, v), _), (st0, t0, _, (u0, v0), _) = found, found0
        assert (st, t) == (st0, t0) and st < below <= 2 * st
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    def test_a_failing_floor_judged_first_ends_the_search_after_one_trial(
            self, monkeypatch):
        *_, ladder, _ = self.search(monkeypatch, lambda st: False)
        trials, found, steps, _ = self.search(monkeypatch, lambda st: False,
                                              floor_after=0)
        assert (trials, found, steps) == (1, None, [ladder[-1]])

    @pytest.mark.parametrize("below", [2.0, 0.3, 1e-3, 1e-6])
    def test_a_passing_floor_judged_first_leads_into_the_ladder(
            self, monkeypatch, below):
        # the floor is judged and not taken: the ladder st, st/2, ... follows
        # as without the probe, and accepts the same step one trial later
        def passes(st):
            return st < below

        trials, found0, steps, rel = self.search(monkeypatch, passes)
        probed, found, (floor, *rest), _ = self.search(
            monkeypatch, passes, floor_after=0)
        assert floor * rel > solvers.SQRT_EPS >= 0.5 * floor * rel
        assert probed == trials + 1 and rest == steps
        (st, t, _, (u, v), _), (st0, t0, _, (u0, v0), _) = found, found0
        assert (st, t) == (st0, t0) and st < below
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    @pytest.mark.parametrize("rungs,floor_after",
                             [(1, 1), (2, 1), (1, 0), (2, 0)],
                             ids=["1", "2", "1-first", "2-first"])
    def test_a_ladder_of_one_or_two_rungs_is_not_probed(self, monkeypatch,
                                                        rungs, floor_after):
        # every step below the first passes, so a probe would show as a
        # repeated step
        *_, nsq, _, slope = self.start()
        step = (1.5 if rungs == 1 else 3.0) * solvers.SQRT_EPS / math.sqrt(
            slope / nsq)
        trials, found, steps, _ = self.search(monkeypatch, lambda st: st < step,
                                              step=step,
                                              floor_after=floor_after)
        assert trials == rungs and steps == [step * 0.5 ** k
                                             for k in range(rungs)]
        assert (found is None) == (rungs == 1)


def slope_at(wt, found, d):
    """phi'(st) = -t <g, d> at the returned state, from a fresh grid pass."""
    _, t, _, (u, v), _ = found
    du, dv = d
    gu, gv = integrals(wt, u, v, positive=True, grad=True).gradient()
    return -t * float(gu @ du + gv @ dv)


class TestStrongWolfe:
    def start(self):
        pr = ProblemParams(3, 0.5, 0.1, 0.5 * hardy_constant(3), 1.3, 1.3, 0.0)
        return descent_start(pr, small_grid(3), np.random.default_rng(0))

    @pytest.mark.parametrize("c2,step", [(0.5, 1e-3), (0.5, 1.0), (0.5, 64.0),
                                         (0.02, 1e-3), (0.1, 3.0)])
    def test_accepted_step_meets_the_strong_wolfe_conditions(self, monkeypatch,
                                                             c2, step):
        # a short first trial is lengthened along the secant of phi' and a
        # long one cut back to the cubic's minimizer; with the small c2 both
        # end in steps between a short and a long trial
        monkeypatch.setattr(solvers, "WOLFE_C2", c2)
        wt, x, E, nsq, d, slope = self.start()
        accept = solvers._strong_wolfe(E, slope, d)
        trials, found = solvers._line_search(wt, x, d, slope, nsq, E,
                                             accept, grad=True, step=step)
        st, t, I, (uu, vv), g = found
        verdict, _, g_test = accept(st, t, I)
        assert verdict is True and np.array_equal(g, g_test)
        fresh = integrals(wt, uu, vv, positive=True)
        assert fresh.energy() <= E - solvers.ARMIJO * st * slope
        assert abs(slope_at(wt, found, d)) <= (c2 + 1e-9) * slope
        assert 1 <= trials < solvers.MAX_BACKTRACKS
        if step == 1e-3:
            assert st > step

    def test_falls_back_to_the_last_armijo_step(self, monkeypatch):
        # c2 = 0 accepts no trial of nonzero slope: the bracket closes at
        # the floor and the search returns its last trial that was too short
        monkeypatch.setattr(solvers, "WOLFE_C2", 0.0)
        wt, x, E, nsq, d, slope = self.start()
        verdicts = []
        accept = solvers._strong_wolfe(E, slope, d)

        def recorded(st, t, I):
            report = accept(st, t, I)
            verdicts.append((st, report[0]))
            return report

        trials, found = solvers._line_search(wt, x, d, slope, nsq, E,
                                             recorded, grad=True)
        shorts = [st for st, verdict in verdicts if verdict is solvers.SHORT]
        assert trials == len(verdicts) < solvers.MAX_BACKTRACKS
        assert shorts and found[0] == shorts[-1] == max(shorts)
        assert True not in [verdict for _, verdict in verdicts]
        assert integrals(wt, *found[3], positive=True).energy() <= (
            E - solvers.ARMIJO * found[0] * slope)
        assert slope_at(wt, found, d) < 0.0

    def test_criterion_6_n4_start_takes_few_trials(self):
        # the criterion-6 N=4 start (default_rng(6)) on 2048 nodes: 16 trials
        # in 13 iterations, where doubling and bisecting took 48 in 29
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5 * hardy_constant(4), 1.3, 1.3, 0.0)
        rng = np.random.default_rng(6)
        base = extremal_pair(pr, grid, "first")
        scale = float(np.interp(1.0, grid.r, base.u.values))
        u = np.abs(base.u.values + 0.25 * scale * smooth_bump(grid, rng).values
                   + 0.15 * scale * smooth_bump(grid, rng).values)
        rep = ground_state(pr, StatePair(RadialFunction(grid, u),
                                         RadialFunction.zero(grid)),
                           DescentOptions(tol_grad=1e-6, max_iter=6000))
        assert rep.stop_reason == "tolerance"
        assert rep.extra["trials"] <= 16

    def test_secant_lands_on_the_minimizer_of_a_quadratic(self):
        # phi'(st) = -gd + k st: the secant through (0, -gd) and the short
        # first trial is phi' itself, so the second trial is its zero gd / k
        wt, x, E, nsq, d, slope = self.start()
        k = slope / 0.37
        steps = []

        def quadratic(st, t, I):
            steps.append(st)
            dphi = -slope + k * st
            verdict = (solvers.SHORT if dphi < -solvers.WOLFE_C2 * slope
                       else abs(dphi) <= solvers.WOLFE_C2 * slope)
            return verdict, dphi, None

        trials, found = solvers._line_search(wt, x, d, slope, nsq, E,
                                             quadratic, step=0.05)
        assert trials == 2 and found[0] == steps[1]
        assert steps[1] == pytest.approx(0.37, rel=1e-12)


finite = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(x0=st.floats(0.0, 10.0), dx=st.floats(1e-6, 10.0), d0=finite,
       d1=finite, known=st.booleans())
def test_secant_step_is_finite_and_within_its_clamp(x0, dx, d0, d1, known):
    x1 = x0 + dx
    assume(x1 > x0)
    a, b = (x0, 0.0, d0 if known else None), (x1, 0.0, d1)
    nxt = solvers._secant_step(a, b)
    assert math.isfinite(nxt) and 2.0 * x1 <= nxt <= 16.0 * x1
    if d0 == d1 or not known:
        assert nxt == 2.0 * x1


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.0, 10.0), w=st.floats(1e-6, 10.0), fa=finite, fb=finite,
       da=finite, db=finite, known=st.booleans())
@example(a=0.0, w=1.0, fa=0.0, fb=-0.5, da=-1.0, db=-1.0, known=True)
def test_cubic_step_is_finite_and_within_its_clamp(a, w, fa, fb, da, db, known):
    b = a + w
    assume(b > a)
    lo, hi = (a, fa, da), (b, fb, db if known else None)
    nxt = solvers._cubic_step(lo, hi)
    w = b - a
    assert math.isfinite(nxt) and a < nxt < b
    mid = 0.5 * (a + b)
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    if not known or d1 * d1 - da * db < 0.0:
        # no slope at hi, or a cubic without a real minimizer
        assert nxt == mid
    else:
        assert a + 0.1 * w <= nxt <= b - 0.1 * w or nxt == mid


class TestSemitrivialProbe:
    GRID_N = 2048

    def probe(self, which, alpha, beta, nu, seed=0):
        pr = ProblemParams(3, 0.5, 0.12, 0.1 if which == "first" else 0.12,
                           alpha, beta, nu)
        # keep lambda ordering irrelevant: classification depends on exponents
        grid = cached_grid(3, 1e-6, 1e6, self.GRID_N)
        return semitrivial_probe(pr, which, grid, ProbeOptions(seed=seed))

    def test_local_min_beta_large(self):
        rep = self.probe("first", alpha=1.5, beta=3.0, nu=1e-3)
        assert rep.classification == "local_min"

    def test_local_min_alpha_large(self):
        rep = self.probe("second", alpha=3.0, beta=1.5, nu=1e-3)
        assert rep.classification == "local_min"

    def test_saddle_alpha_small(self):
        rep = self.probe("second", alpha=1.5, beta=3.0, nu=1e-2)
        assert rep.classification == "saddle"

    def test_saddle_beta_small(self):
        rep = self.probe("first", alpha=3.0, beta=1.5, nu=1e-2)
        assert rep.classification == "saddle"

    def test_probe_reports_levels(self):
        rep = self.probe("second", alpha=3.0, beta=1.5, nu=1e-3)
        assert rep.level_diagnostics["base_level"] == pytest.approx(
            critical_level(3, 0.12, 0.5), rel=1e-3)

    def test_no_coupling_is_a_local_min(self):
        rep = self.probe("second", alpha=1.5, beta=3.0, nu=0.0)
        assert rep.classification == "local_min"
        assert rep.extra["nu_star"] == 0.0


def flip_params(nu):
    """The criterion-8 parameters whose label flips at nu*."""
    return ProblemParams(3, 0.5, 0.12, 0.1, 2.0, 2.2, nu)


def foreign_weight(params, grid):
    """Host profile z of (0, z) and the weight W = 2 h z^beta r^-s (interior)."""
    z = extremal_pair(params, grid, "second").v
    return z, 2.0 * (Weights(grid, params).whrs * z.values ** params.beta)[1:-1]


def plain_inverse_iteration(op, W, x):
    """LambdaOperator.lowest_mode without its shift: every step solves K y =
    W x with the stored factor, by the same stop rule and cap.  Returns mu
    and the solves taken."""
    W, x, mu = W[1:-1], x[1:-1], math.inf
    for it in range(1, operators.MODE_MAX_ITER + 1):
        Wx = W * x
        y = op.solve(Wx)
        yWy = float(y @ (W * y))
        mu_next = float(y @ Wx) / yWy
        x = y / np.sqrt(yWy)
        if mu - mu_next <= operators.MODE_TOL * mu_next:
            return mu_next, it
        mu = mu_next
    return mu, operators.MODE_MAX_ITER


class TestClassificationThreshold:
    def test_flip_parameters_label_by_nu_star(self):
        grid = small_grid(3)
        rep = semitrivial_probe(flip_params(1.0), "second", grid)
        nu_star = rep.extra["nu_star"]
        assert nu_star == pytest.approx(0.24464, rel=1e-4)
        assert rep.stop_reason == "tolerance" and rep.converged
        assert 0 < rep.iterations < operators.MODE_MAX_ITER
        labels = [semitrivial_probe(flip_params(f * nu_star), "second",
                                    grid).classification for f in (0.9, 1.1)]
        assert labels == ["local_min", "saddle"]

    def test_an_exponent_one_rounding_off_2_is_2(self):
        # np.arange(1.5, 2.6, 0.1)[5] is 2.0000000000000004, which used to
        # count as above 2 (local_min, nu* = inf)
        grid = cached_grid(3, 1e-6, 1e6, 512)
        reps = [semitrivial_probe(replace(flip_params(1.0), alpha=a), "second", grid)
                for a in (2.0, float(np.arange(1.5, 2.6, 0.1)[5]))]
        assert [r.classification for r in reps] == ["saddle", "saddle"]
        assert reps[1].extra["nu_star"] == reps[0].extra["nu_star"]

    def test_iteration_cap_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(operators, "MODE_MAX_ITER", 1)
        grid = small_grid(3)
        rep = semitrivial_probe(flip_params(1.0), "second", grid)
        assert rep.classification == "inconclusive" and not rep.converged
        assert rep.stop_reason == "max_iter"
        flip = classification_flip(flip_params, 1e-3, 100.0, "second", grid)
        assert not flip["flip_found"]

    def test_flip_parameters_take_few_solves(self):
        # two plain steps, then shifted ones: 5 solves, 13 without the shift
        rep = semitrivial_probe(flip_params(1.0), "second", small_grid(3))
        assert rep.converged and rep.iterations <= 6

    @pytest.mark.parametrize("cap", [2, 3])
    def test_a_cap_around_the_shift_is_inconclusive(self, monkeypatch, cap):
        # cap 2 ends at the shift, cap 3 after the first shifted solve
        monkeypatch.setattr(operators, "MODE_MAX_ITER", cap)
        rep = semitrivial_probe(flip_params(1.0), "second", small_grid(3))
        assert rep.classification == "inconclusive" and not rep.converged
        assert rep.stop_reason == "max_iter" and rep.iterations == cap

    def test_a_refused_shift_is_lowered(self, monkeypatch):
        shifts = []

        def refuse_first(op, W, sigma):
            shifts.append(sigma)
            return None if len(shifts) == 1 else shifted(op, W, sigma)

        shifted = LambdaOperator.shifted
        monkeypatch.setattr(LambdaOperator, "shifted", refuse_first)
        grid = cached_grid(3, n_nodes=512)
        pr = flip_params(1.0)
        _, W = foreign_weight(pr, grid)
        K = assembled_interior(grid, pr.lambda1)
        mu = scipy.linalg.eigh(K, np.diag(W), eigvals_only=True)[0]
        rep = semitrivial_probe(pr, "second", grid)
        assert len(shifts) == 2 and 0 < shifts[1] < shifts[0]
        assert rep.converged and rep.extra["nu_star"] == pytest.approx(mu, rel=1e-8)

    def test_with_every_shift_refused_the_iteration_is_the_plain_one(self, monkeypatch):
        monkeypatch.setattr(LambdaOperator, "shifted", lambda op, W, sigma: None)
        grid = small_grid(3)
        pr = flip_params(1.0)
        z = extremal_pair(pr, grid, "second").v.values
        W = Weights(grid, pr).foreign_weight(z, pr.beta)
        op = LambdaOperator(grid, pr.lambda1)
        mu, _, solves, done = op.lowest_mode(W, z)
        assert done and (mu, solves) == plain_inverse_iteration(op, W, z)

    def test_flip_bracket_contains_nu_star(self):
        grid = small_grid(3)
        nu_star = semitrivial_probe(flip_params(1.0), "second",
                                    grid).extra["nu_star"]
        flip = classification_flip(flip_params, 1e-3, 100.0, "second", grid)
        lo, hi = flip["bracket"]
        assert flip["flip_found"]
        assert lo == nu_star and hi == math.nextafter(nu_star, math.inf)

    @pytest.mark.parametrize("alpha,beta,which", [
        (2.0, 2.2, "second"), (2.2, 2.0, "first"), (1.5, 2.0, "second"),
        (2.0, 1.5, "second"), (2.0, 2.5, "second"), (2.5, 2.0, "first")])
    def test_flip_labels_are_the_probe_labels(self, alpha, beta, which):
        grid = small_grid(3)

        def params_at(nu):
            return ProblemParams(3, 0.5, 0.12, 0.1, alpha, beta, nu)

        flip = classification_flip(params_at, 1e-3, 100.0, which, grid)
        # nu_lo, nu_hi, and with a flip nu* and the next float above it
        assert len(flip["labels"]) == (4 if flip["flip_found"] else 2)
        for nu, lab in flip["labels"].items():
            assert lab == semitrivial_probe(params_at(nu), which,
                                            grid).classification
        lo, hi = flip["bracket"]
        assert flip["flip_found"] == (alpha != 1.5)
        if flip["flip_found"]:
            assert (flip["labels"][lo], flip["labels"][hi]) == ("local_min", "saddle")
            assert lo == flip["nu_star"] < hi

    def test_flip_runs_one_inverse_iteration(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return lowest_mode(*args)

        lowest_mode = LambdaOperator.lowest_mode
        monkeypatch.setattr(LambdaOperator, "lowest_mode", counted)
        flip = classification_flip(flip_params, 1e-3, 100.0, "second",
                                   small_grid(3))
        assert flip["flip_found"] and len(flip["labels"]) == 4
        assert len(calls) == 1

    def test_flip_rejects_params_that_vary_more_than_nu(self):
        def params_at(nu):
            return ProblemParams(3, 0.5, 0.12 + 1e-4 * nu, 0.1, 2.0, 2.2, nu)

        with pytest.raises(InvalidParameterError, match="vary only nu"):
            classification_flip(params_at, 1e-3, 100.0, "second",
                                small_grid(3))

    @pytest.mark.parametrize("bounds", [(0.0, 100.0), (100.0, 1e-3),
                                        (1e-3, math.inf), (math.nan, 1.0)])
    def test_flip_rejects_bounds_outside_a_log_bisection(self, bounds):
        # the bounds are outside input: a finite, nonempty range of
        # positive couplings
        with pytest.raises(InvalidParameterError, match="flip bounds"):
            classification_flip(flip_params, *bounds, "second", small_grid(3))

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_closed_form_threshold_is_one_half(self, N, n):
        # equal lambdas, alpha = 2, beta = p - 2 and h = 1: the host profile z
        # solves K z = z^(p-2) r^-s z and is positive, so it is the first
        # eigenfunction of K phi = mu W phi, with mu = 1/2
        s, lam = 0.5, 0.3 * hardy_constant(N)
        p = 2.0 * (N - s) / (N - 2)
        pr = ProblemParams(N, s, lam, lam, 2.0, p - 2.0, 0.1)
        rep = semitrivial_probe(pr, "second", cached_grid(N, n_nodes=n))
        assert rep.extra["nu_star"] == pytest.approx(0.5, abs=1e-3)

    def test_nu_star_matches_dense_eigensolver(self):
        grid = cached_grid(3, n_nodes=512)
        pr = flip_params(1.0)
        _, W = foreign_weight(pr, grid)
        K = assembled_interior(grid, pr.lambda1)
        # the full generalized solver: with subset_by_index scipy switches
        # to bisection, whose default tolerance is off by 1.6e-6 here
        mu = scipy.linalg.eigh(K, np.diag(W), eigvals_only=True)[0]
        rep = semitrivial_probe(pr, "second", grid)
        assert rep.extra["nu_star"] == pytest.approx(mu, rel=1e-8)

    @pytest.mark.parametrize("factor", [0.95, 1.05])
    def test_energy_along_the_lowest_mode(self, factor):
        # the projected energy along the lowest mode phi moves by the second
        # variation t^2/2 ||phi||^2 (1 - nu/nu*): up below nu*, down above
        grid = small_grid(3)
        pr = flip_params(1.0)
        z = extremal_pair(pr, grid, "second").v
        nu_star, mode, _, done = LambdaOperator(grid, pr.lambda1).lowest_mode(
            Weights(grid, pr).foreign_weight(z.values, pr.beta), z.values)
        assert done
        phi = RadialFunction(grid, np.concatenate([[0.0], mode, [0.0]]))
        nz = lambda_norm_sq(z, pr.lambda2)
        phi = phi.scaled(math.sqrt(nz / lambda_norm_sq(phi, pr.lambda1)))
        pr = flip_params(factor * nu_star)
        t = 1e-3
        base = energy(StatePair(RadialFunction.zero(grid), z), pr).total
        moved = project(StatePair(phi.scaled(t), z), pr).projected
        delta = energy(moved, pr).total - base
        assert delta == pytest.approx(0.5 * t * t * nz * (1.0 - factor), rel=1e-3)


LAM_FRAC = st.floats(0.05, 0.95)


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([3, 4]), s=st.floats(0.0, 0.9), f1=LAM_FRAC,
       f2=LAM_FRAC, e=st.sampled_from([1.5, 2.0, 2.5]),
       frac=st.floats(0.01, 1.0), nu=st.floats(0.0, 2.0))
def test_probe_commutes_with_component_swap(N, s, f1, f2, e, frac, nu):
    p = 2.0 * (N - s) / (N - 2)
    assume(p - e - 1.0 > 0.01)
    H = hardy_constant(N)
    # the first couple's foreign exponent is beta = e
    pr = ProblemParams(N, s, f1 * H, f2 * H, 1.0 + frac * (p - e - 1.0), e, nu)
    grid = cached_grid(N, n_nodes=512)
    a = semitrivial_probe(pr, "first", grid)
    b = semitrivial_probe(pr.swapped(), "second", grid)
    assert a.classification == b.classification
    assert a.extra["nu_star"] == b.extra["nu_star"]


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([3, 4, 5]), s=st.floats(0.0, 0.9), f1=LAM_FRAC,
       f2=LAM_FRAC, frac=st.floats(0.01, 1.0))
def test_shifted_iteration_matches_the_plain_one(N, s, f1, f2, frac):
    p = 2.0 * (N - s) / (N - 2)
    assume(p - 3.0 > 0.01)
    H = hardy_constant(N)
    pr = ProblemParams(N, s, f1 * H, f2 * H, 2.0, 1.0 + frac * (p - 3.0), 1.0)
    grid = cached_grid(N, n_nodes=512)
    z = extremal_pair(pr, grid, "second").v.values
    W = Weights(grid, pr).foreign_weight(z, pr.beta)
    op = LambdaOperator(grid, pr.lambda1)
    mu, _, solves, done = op.lowest_mode(W, z)
    mu_plain, solves_plain = plain_inverse_iteration(op, W, z)
    assert done and mu == pytest.approx(mu_plain, rel=1e-10)
    assert solves <= solves_plain


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([3, 4]), s=st.floats(0.0, 0.9), f1=LAM_FRAC,
       f2=LAM_FRAC, frac=st.floats(0.01, 1.0), c=st.floats(1e-3, 1e3))
def test_nu_star_scales_inversely_with_a_constant_weight(N, s, f1, f2, frac, c):
    p = 2.0 * (N - s) / (N - 2)
    assume(p - 3.0 > 0.01)
    H = hardy_constant(N)

    def nu_star(h):
        pr = ProblemParams(N, s, f1 * H, f2 * H, 2.0, 1.0 + frac * (p - 3.0),
                           1.0, HProfile("constant", h))
        rep = semitrivial_probe(pr, "second", cached_grid(N, n_nodes=512))
        return rep.extra["nu_star"]

    assert nu_star(c) * c == pytest.approx(nu_star(1.0), rel=1e-9)


def closed_form_gap(N, s, f1, f2, n):
    """nu* of the probe over closed_forms.nu_star_closed_form, less 1, at
    (N, s, lambda1, lambda2) = (N, s, f1 H, f2 H) with alpha = 2, beta = p -
    2 and h = 1, on n nodes over [1e-6, 1e6]; and the grid's dt^2."""
    H, p = hardy_constant(N), 2.0 * (N - s) / (N - 2)
    pr = ProblemParams(N, s, f1 * H, f2 * H, 2.0, p - 2.0, 0.1)
    rep = semitrivial_probe(pr, "second", cached_grid(N, n_nodes=n))
    assert rep.converged
    x = rep.extra
    return x["nu_star"] / x["nu_star_closed_form"] - 1.0, (math.log(1e12) / (n - 1)) ** 2


# On the Poschl-Teller family at N >= 4 the gap is C dt^2, with C the same
# to 3 digits from 1,024 to 8,192 nodes; each row allows half of C dt^2
# either way.  The gaps measured are in the comments.
@pytest.mark.parametrize("N,s,lambda1,lambda2,n,C", [
    (4, 0.5, 0.1, 0.3, 2048, -0.0201),    # -3.67e-6
    (4, 0.5, 0.1, 0.3, 4096, -0.0201),    # -9.16e-7
    (5, 0.0, 0.5, 1.2, 4096, -0.1232)])   # -5.61e-6
def test_nu_star_meets_its_closed_form_at_order_dt2(N, s, lambda1, lambda2, n, C):
    H = hardy_constant(N)
    gap, dt2 = closed_form_gap(N, s, lambda1 / H, lambda2 / H, n)
    assert abs(gap - C * dt2) <= 0.5 * abs(C) * dt2


def test_nu_star_meets_its_closed_form_where_the_mode_is_the_host():
    # lambda1 = lambda2: the mode is z2 and nu* = 1/2, with no dt^2 term;
    # the gap measures +8.1e-10 at 4,096 nodes and stays within 2.6e-9 from
    # 1,024 to 8,192, so 1e-8 allows about four times that
    gap, _ = closed_form_gap(4, 0.0, 0.3 / hardy_constant(4), 0.3 / hardy_constant(4), 4096)
    assert abs(gap) <= 1e-8


# |C| over the family with both lambdas in [0.05, 0.8] H peaks at 0.60 on
# its corners (N = 5, lambda1 = 0.05 H, lambda2 = 0.8 H), so the bound dt^2
# leaves a margin of 1.7; above 0.8 H the host decays too slowly for the
# window and the gap stops falling with dt.
@settings(max_examples=25, deadline=None)
@given(N=st.sampled_from([4, 5]), frac=st.floats(0.0, 0.98),
       f1=st.floats(0.05, 0.8), f2=st.floats(0.05, 0.8))
def test_nu_star_meets_its_closed_form_across_the_family(N, frac, f1, f2):
    # beta = p - 2 > 1 holds for s < 1 at N = 4 and s < 1/2 at N = 5
    s = frac * (1.0 if N == 4 else 0.5)
    gap, dt2 = closed_form_gap(N, s, f1, f2, 1024)
    assert abs(gap) <= dt2


@pytest.mark.parametrize("cls,kw", [
    (DescentOptions, {"max_iter": -5}),
    (DescentOptions, {"tol_grad": -1e-6}),
    (DescentOptions, {"tol_grad": math.nan}),
    (PathOptions, {"n_path_nodes": 1}),
    (PathOptions, {"max_sweeps": -1}),
    (PathOptions, {"crest_grad_tol": -1.0}),
    # above the cap, refused before any state is built
    (PathOptions, {"n_path_nodes": 1e30}),
    (PathOptions, {"n_path_nodes": solvers.MAX_PATH_NODES + 1}),
])
def test_out_of_range_options_are_rejected(cls, kw):
    with pytest.raises(InvalidParameterError, match=next(iter(kw))):
        cls(**kw)


def test_options_at_their_floors_are_valid():
    # the benchmark runs with a zero budget and a zero tolerance
    DescentOptions(tol_grad=0.0, max_iter=0)
    PathOptions(n_path_nodes=2, max_sweeps=0, crest_grad_tol=0.0)


_ON_THE_GRID = {
    "extremal_pair": lambda pr, grid, pair: extremal_pair(pr, grid, "first"),
    "energy": lambda pr, grid, pair: energy(pair, pr),
    "semitrivial_probe": lambda pr, grid, pair: semitrivial_probe(pr, "first", grid),
    "escalate_nu": lambda pr, grid, pair: escalate_nu(pr, grid),
    "mountain_pass": lambda pr, grid, pair: mountain_pass(pr, grid),
    "ground_state": lambda pr, grid, pair: ground_state(pr, pair),
    "project": lambda pr, grid, pair: project(pair, pr),
    "nehari_residual": lambda pr, grid, pair: nehari_residual(pair, pr),
    "gradient_dual_norm": lambda pr, grid, pair: gradient_dual_norm(pair, pr),
    "classification_flip": lambda pr, grid, pair: classification_flip(
        lambda nu: replace(pr, nu=nu), 1e-3, 1.0, "first", grid),
}


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", list(_ON_THE_GRID))
def test_a_grid_of_another_dimension_is_refused(name, N):
    # an N = 4 extremal integrated with N = 3 weights (4096 nodes) gave the
    # level 2.0104 where it is 20.996; ground_state refused lambda2 for the
    # grid instead
    pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.02)
    grid = cached_grid(N, 1e-6, 1e6, 256)
    z = RadialFunction(grid, np.exp(-grid.t ** 2))
    with pytest.raises(GridMismatchError,
                       match=rf"^grid dimension N = {N} does not match the "
                             r"parameters' N = 4$"):
        _ON_THE_GRID[name](pr, grid, StatePair(z, z))
