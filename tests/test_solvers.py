"""Solver behavior: descent, escalation, min-max path, probes."""

import math

import numpy as np
import pytest

from hsvar import (DegenerateInputError, DescentOptions, PathOptions,
                   PreconditionError, ProbeOptions, ProblemParams,
                   RadialFunction, StatePair, critical_level, energy_positive,
                   escalate_nu, extremal_pair, ground_state,
                   interpolation_bound, mountain_pass, nehari_residual,
                   pair_norm_sq, semitrivial_probe)
from hsvar import solvers
from hsvar.energy import Weights, integrals
from hsvar.nehari import project_arrays
from hsvar.operators import PairMetric
from conftest import cached_grid, smooth_bump


def small_grid(N):
    return cached_grid(N, 1e-6, 1e6, 2048)


def perturbed_first(params, grid, rng, rel_amp=0.25):
    base = extremal_pair(params, grid, "first")
    scale = float(np.interp(1.0, grid.r, base.u.values))
    u = np.abs(base.u.values + rel_amp * scale * smooth_bump(grid, rng).values)
    return StatePair(RadialFunction(grid, u), RadialFunction.zero(grid))


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
        # reported energy agrees with the on-constraint identity
        from hsvar import constrained_energy
        assert constrained_energy(rep.profiles, pr, tol=1e-6) == pytest.approx(
            rep.energy, rel=1e-8)

    def test_energy_threshold_flag_consistent(self):
        grid = small_grid(4)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
        rng = np.random.default_rng(2)
        rep = ground_state(pr, perturbed_first(pr, grid, rng),
                           DescentOptions(tol_grad=1e-6, max_iter=4000))
        # decoupled run converges to the first-component level, which is the
        # larger one here, so the below-minimum flag must be off
        assert not rep.level_diagnostics["below_min_semitrivial"]


class TestMountainPass:
    def params(self, nu=0.02):
        return ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, nu)

    def test_precondition_rejected_outside_window(self):
        # lambda2 too large: separation window fails
        pr = ProblemParams(4, 0.5, 0.1, 0.6, 2.2, 1.2, 1e-3)
        with pytest.raises(PreconditionError):
            mountain_pass(pr, small_grid(4))

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

    def test_reported_crest_survives_later_sweeps(self):
        # at K=7 no sweep lowers the chain maximum below the initial one, so
        # the reported crest is a row that every later sweep overwrites
        pr = self.params()
        rep = mountain_pass(pr, cached_grid(4, 1e-6, 1e6, 1024),
                            PathOptions(n_path_nodes=7, max_sweeps=40))
        assert rep.energy == rep.trace[0] and rep.iterations == 40
        assert energy_positive(rep.profiles, pr) == pytest.approx(rep.energy, rel=1e-12)

    def test_redistribute_resamples_a_view_in_place(self):
        pr = self.params()
        wt = Weights(small_grid(4), pr)
        U, V, E = solvers._initial_path(wt, 10)
        # crowd the chain so that resampling moves the interior rows
        U[3:6], V[3:6], E[3:6] = U[2], V[2], E[2]
        U0, V0, E0 = U.copy(), V.copy(), E.copy()
        solvers._redistribute(U[2:9], V[2:9], E[2:9], wt)
        outside = [0, 1, 2, 8, 9, 10]
        assert np.array_equal(U[outside], U0[outside])
        assert np.array_equal(V[outside], V0[outside])
        assert np.array_equal(E[outside], E0[outside])
        assert not np.array_equal(U[3:8], U0[3:8])
        for k in range(3, 8):
            I = integrals(wt, U[k], V[k], positive=True)
            assert abs(I.residual()) <= 1e-10 * I.A
            assert E[k] == pytest.approx(I.energy(), rel=1e-12)
        # the same arithmetic as a loop over the targets gives the same bits
        us, vs = U0[2:9], V0[2:9]
        seg = np.sqrt(((np.diff(us, axis=0) ** 2 + np.diff(vs, axis=0) ** 2)
                       * wt.grid.w).sum(axis=1))
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        for k, s_t in enumerate(np.linspace(0.0, arc[-1], 7)[1:-1], start=3):
            j = min(int(np.searchsorted(arc, s_t, side="right")) - 1, 5)
            theta = (s_t - arc[j]) / max(arc[j + 1] - arc[j], 1e-300)
            u = (1 - theta) * us[j] + theta * us[j + 1]
            v = (1 - theta) * vs[j] + theta * vs[j + 1]
            t, I = project_arrays(wt, u, v, positive=True)
            assert np.array_equal(U[k], t * u) and np.array_equal(V[k], t * v)
            assert E[k] == I.energy(t)

    def test_short_run_reports_max_sweeps_unconverged(self):
        rep = mountain_pass(self.params(), small_grid(4),
                            PathOptions(n_path_nodes=8, max_sweeps=3))
        assert rep.stop_reason == "max_sweeps"
        assert rep.iterations == 3
        assert not rep.converged
        assert rep.gradient_norm > PathOptions().crest_grad_tol

    def test_converged_means_crest_gradient_within_tolerance(self):
        rep = mountain_pass(self.params(), small_grid(4),
                            PathOptions(n_path_nodes=8, max_sweeps=3,
                                        crest_grad_tol=1.0))
        assert rep.stop_reason == "tolerance" and rep.converged
        assert rep.gradient_norm <= 1.0
        assert rep.iterations == 0


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
        u, v, E, nsq = t * z1, t * z2, I.energy(t), t * t * I.A
        metric = PairMetric(grid, pr.lambda1, pr.lambda2)
        du, dv, slope = metric.direction(*I.gradient(t))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return project_arrays(*args, **kwargs)

        monkeypatch.setattr(solvers, "project_arrays", counted)
        found = solvers._line_search(wt, u, v, -du, -dv, slope, nsq, E)
        assert found is None
        rel = math.sqrt(slope / nsq)
        bound = math.ceil(math.log2(solvers.STEP0 * rel / solvers.SQRT_EPS)) + 1
        assert len(calls) <= bound < solvers.MAX_BACKTRACKS


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


def test_interpolation_bound_max_at_half():
    pr = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 1e-3)
    grid = small_grid(4)
    g_max, curve = interpolation_bound(pr, grid)
    E1 = critical_level(4, 0.1, 0.5)
    E2 = critical_level(4, 0.3, 0.5)
    assert g_max == pytest.approx(E1 + E2, rel=1e-3)
    assert np.argmax(curve) == pytest.approx(len(curve) // 2, abs=2)
