"""Energy functional, truncated variant, constraint functional, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsvar import (DegenerateInputError, HProfile, InvalidParameterError,
                   PreconditionError, ProblemParams, RadialFunction, StatePair,
                   best_constant, critical_level, energy, energy_positive,
                   exact_solution, extremal_pair, gradient_dual_norm,
                   hardy_constant,
                   lambda_norm_sq, nehari_residual, pair_norm_sq, project,
                   weighted_lp)
from hsvar.energy import (Plane, Weights, gradient_coefficients, integrals,
                          pair_integrals)
from hsvar.solvers import compact_bump
from conftest import cached_grid, gradient_seminorm, smooth_bump


def params4(nu=0.0, alpha=1.4, beta=1.4, l1=0.3, l2=0.5, h=None):
    return ProblemParams(4, 1.0, l1, l2, alpha, beta, nu,
                         h_profile=h or HProfile())


@pytest.fixture(scope="module")
def zpair(grid4):
    z = RadialFunction(grid4, exact_solution(4, 0.3, 1.0, 1.0, grid4.r))
    return StatePair(z, RadialFunction.zero(grid4))


class TestLambdaNorm:
    def test_zero_lambda_equals_seminorm(self, grid4):
        # exactly the band's kinetic term, and the u-space reference to
        # rounding
        rng = np.random.default_rng(0)
        u = smooth_bump(grid4, rng)
        kinetic = pair_integrals(StatePair(u, RadialFunction.zero(grid4)),
                                 params4()).kinetic_u
        assert lambda_norm_sq(u, 0.0) == kinetic
        assert lambda_norm_sq(u, 0.0) == pytest.approx(gradient_seminorm(grid4, u),
                                                       rel=1e-13)

    def test_extremal_value(self, grid4):
        z = RadialFunction(grid4, exact_solution(4, 0.3, 1.0, 1.0, grid4.r))
        K = best_constant(4, 0.3, 1.0) ** 3
        assert lambda_norm_sq(z, 0.3) == pytest.approx(K, rel=1e-4)

    def test_zero_function(self, grid4):
        assert lambda_norm_sq(RadialFunction.zero(grid4), 0.4) == 0.0

    def test_rejects_lambda_at_threshold(self, grid4):
        with pytest.raises(InvalidParameterError):
            lambda_norm_sq(RadialFunction.zero(grid4), 1.0)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 6), frac=st.floats(0.01, 0.99),
       center=st.floats(math.log(0.05), math.log(20.0)), hw=st.floats(1.0, 2.5),
       amp=st.one_of(st.floats(-1.5, -0.3), st.floats(0.3, 1.5)))
def test_lambda_norm_reads_the_band(N, frac, center, hw, amp):
    # the pair norm of (u, 0) bit for bit, and the u-space quadrature of
    # int |grad u|^2 - lam int u^2/r^2 to rounding
    grid = cached_grid(N)
    lam = frac * hardy_constant(N)
    u = RadialFunction(grid, compact_bump(grid.t, center, hw, amp))
    pr = ProblemParams(N, 0.5, lam, 0.5 * hardy_constant(N), 1.3, 1.3, 0.0)
    got = lambda_norm_sq(u, lam)
    assert got == pair_integrals(StatePair(u, RadialFunction.zero(grid)), pr).A
    ref = gradient_seminorm(grid, u) - lam * weighted_lp(grid, u, 2.0, 2.0)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestEnergy:
    def test_zero_pair(self, grid4):
        assert energy(StatePair.zero(grid4), params4()).total == 0.0

    def test_semitrivial_level_any_nu(self, zpair):
        for nu in (0.0, 0.7, 13.0):
            bd = energy(zpair, params4(nu=nu))
            assert bd.total == pytest.approx(critical_level(4, 0.3, 1.0), rel=1e-4)
            assert bd.coupling == 0.0

    def test_level_scale_invariant(self, grid4):
        vals = []
        for mu in (0.1, 1.0, 10.0):
            z = RadialFunction(grid4, exact_solution(4, 0.3, 1.0, mu, grid4.r))
            pair = StatePair(z, RadialFunction.zero(grid4))
            vals.append(energy(pair, params4()).total)
        spread = (max(vals) - min(vals)) / abs(vals[1])
        assert spread < 1e-4

    def test_breakdown_total_identity(self, grid4):
        rng = np.random.default_rng(1)
        pr = params4(nu=0.8, h=HProfile("bump", p_exp=2, q_exp=3))
        pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
        bd = energy(pair, pr)
        total = (0.5 * (bd.kinetic_u - pr.lambda1 * bd.hardy_u)
                 + 0.5 * (bd.kinetic_v - pr.lambda2 * bd.hardy_v)
                 - (bd.hs_u + bd.hs_v) / pr.crit_exp - pr.nu * bd.coupling)
        assert bd.total == pytest.approx(total, rel=1e-14)

    def test_ray_scaling(self, zpair, grid4):
        # along the ray t*z the energy is exactly (t^2/2) A - (t^p/p) P in the
        # discrete quantities, and approximately the closed form in S
        pr = params4()
        p = pr.crit_exp
        A = pair_norm_sq(zpair, pr)
        P = weighted_lp(grid4, zpair.u, p, 1.0)
        K = best_constant(4, 0.3, 1.0) ** 3
        for t in (0.5, 1.0, 1.7):
            tot = energy(zpair.scaled(t), pr).total
            assert tot == pytest.approx(t * t / 2 * A - t ** p / p * P, rel=1e-13)
            assert tot == pytest.approx((t * t / 2 - t ** p / p) * K, rel=1e-3)


def test_bump_weight_with_large_exponents_is_finite(grid4):
    # r^p and r^(p+q) both overflow far out; their quotient was inf/inf = nan
    h = HProfile("bump", p_exp=400, q_exp=400)
    vals = h(np.array([1e-6, 1.0, 2.0, 10.0, 1e6]))
    assert np.all(np.isfinite(vals))
    assert vals[1] == 0.5 and vals[3] == vals[4] == 0.0
    assert 0 < vals[2] == 2.0 ** 400 / (1 + 2.0 ** 800)
    # where the quotient is finite, it is the value, to the bit
    r = grid4.r
    assert np.array_equal(HProfile("bump", p_exp=2.0, q_exp=3.0)(r),
                          r ** 2.0 / (1.0 + r ** 5.0))


class TestEnergyPositive:
    def test_agrees_on_nonnegative(self, grid4):
        rng = np.random.default_rng(2)
        pr = params4(nu=0.5)
        pair = StatePair(
            RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)),
            RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)))
        assert energy_positive(pair, pr) == pytest.approx(
            energy(pair, pr).total, rel=1e-13)

    def test_negative_profile_keeps_only_quadratic(self, zpair):
        pr = params4(nu=2.0)
        flipped = StatePair(zpair.u.scaled(-1.0), zpair.v)
        expected = 0.5 * lambda_norm_sq(zpair.u, pr.lambda1)
        assert energy_positive(flipped, pr) == pytest.approx(expected, rel=1e-13)

    def test_zero_pair(self, grid4):
        assert energy_positive(StatePair.zero(grid4), params4()) == 0.0


class TestNehariResidual:
    def test_extremal_is_on_constraint(self, zpair):
        pr = params4(nu=3.0)
        res = nehari_residual(zpair, pr)
        assert abs(res) <= 1e-4 * pair_norm_sq(zpair, pr)

    def test_zero_pair(self, grid4):
        assert nehari_residual(StatePair.zero(grid4), params4()) == 0.0

    def test_scaled_extremal(self, zpair, grid4):
        pr = params4()
        p = pr.crit_exp
        A = pair_norm_sq(zpair, pr)
        P = weighted_lp(grid4, zpair.u, p, 1.0)
        res = nehari_residual(zpair.scaled(2.0), pr)
        assert res == pytest.approx(4 * A - 2 ** p * P, rel=1e-12)
        K = best_constant(4, 0.3, 1.0) ** 3
        assert res == pytest.approx(4 * K - 2 ** p * K, rel=1e-3)
        assert res < 0


class TestGradient:
    def test_zero_pair_has_zero_gradient(self, grid4):
        g = pair_integrals(StatePair.zero(grid4), params4(nu=1.0), grad=True).gradient()
        assert not np.any(g)

    def test_extremal_is_critical_point(self, zpair):
        dual, rel = gradient_dual_norm(zpair, params4(nu=0.0))
        assert type(dual) is float and type(rel) is float
        assert rel <= 1e-5

    def test_pairing_matches_directional_derivative(self, grid4):
        rng = np.random.default_rng(3)
        pr = ProblemParams(3, 0.5, 0.1, 0.15, 2.2, 2.2, 0.5)
        g3 = cached_grid(3)
        z1 = RadialFunction(g3, exact_solution(3, 0.1, 0.5, 1.0, g3.r))
        base_scale = float(np.interp(1.0, g3.r, z1.values))
        errs = []
        for _ in range(5):
            pair = StatePair(
                RadialFunction(g3, z1.values + 0.3 * base_scale * smooth_bump(g3, rng).values),
                RadialFunction(g3, 0.7 * base_scale * np.abs(smooth_bump(g3, rng).values)))
            gu, gv = pair_integrals(pair, pr, grad=True).gradient()
            J0 = energy(pair, pr).total
            for _ in range(4):
                d_u = smooth_bump(g3, rng)
                d_v = smooth_bump(g3, rng)
                pairing = float(gu @ d_u.values) + float(gv @ d_v.values)
                best = math.inf
                for h in 10.0 ** np.arange(-3.0, -8.0, -1.0):
                    plus = StatePair(
                        RadialFunction(g3, pair.u.values + h * d_u.values),
                        RadialFunction(g3, pair.v.values + h * d_v.values))
                    minus = StatePair(
                        RadialFunction(g3, pair.u.values - h * d_u.values),
                        RadialFunction(g3, pair.v.values - h * d_v.values))
                    fd = (energy(plus, pr).total - energy(minus, pr).total) / (2 * h)
                    best = min(best, abs(fd - pairing) / (abs(J0) + 1.0))
                errs.append(best)
        assert max(errs) <= 1e-6


class TestSecondVariation:
    def test_extremal_value(self, zpair, grid4):
        pr = params4()
        val = pair_integrals(zpair, pr).second_variation_diag(tol=1e-3)
        K = best_constant(4, 0.3, 1.0) ** 3
        p = pr.crit_exp
        assert val == pytest.approx((2 - p) * K, rel=1e-3)
        assert val < 0

    def test_critical_coupling_collapses_second_term(self, grid4):
        # alpha + beta equal to the critical exponent kills the second bracket
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.5, 1.5, 0.2,
                           h_profile=HProfile("bump", p_exp=2, q_exp=3))
        rng = np.random.default_rng(4)
        pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
        proj = project(pair, pr).projected
        val = pair_integrals(proj, pr).second_variation_diag(tol=1e-8)
        assert val == pytest.approx((2 - pr.crit_exp) * pair_norm_sq(proj, pr), rel=1e-10)

    def test_negative_on_random_projected_pairs(self, grid4):
        rng = np.random.default_rng(5)
        pr = params4(nu=0.6)
        for _ in range(50):
            pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
            proj = project(pair, pr).projected
            assert pair_integrals(proj, pr).second_variation_diag(tol=1e-8) < 0

    def test_precondition_enforced(self, zpair):
        with pytest.raises(PreconditionError):
            pair_integrals(zpair.scaled(2.0), params4()).second_variation_diag(tol=1e-8)

    def test_zero_pair_rejected(self, grid4):
        # Psi(0) = 0, but the origin is not on the constraint set
        with pytest.raises(DegenerateInputError):
            pair_integrals(StatePair.zero(grid4), params4()).second_variation_diag()


class TestOnConstraintIdentities:
    @pytest.mark.parametrize("nu,h", [(0.0, None), (0.9, None),
                                      (2.5, HProfile("bump", p_exp=1.5, q_exp=2.5))])
    def test_two_forms_of_constrained_energy(self, grid4, nu, h):
        rng = np.random.default_rng(6)
        pr = params4(nu=nu, h=h)
        p, q = pr.crit_exp, pr.alpha + pr.beta
        for _ in range(5):
            pair = StatePair(
                RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)),
                RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)))
            proj = project(pair, pr).projected
            bd = energy(proj, pr)
            direct = bd.total
            form_a = ((0.5 - 1.0 / q) * pair_norm_sq(proj, pr)
                      + (1.0 / q - 1.0 / p) * (bd.hs_u + bd.hs_v))
            form_b = ((2 - pr.s) / (2 * (4 - pr.s)) * (bd.hs_u + bd.hs_v)
                      + nu * (q - 2) / 2 * bd.coupling)
            assert direct == pytest.approx(form_a, rel=1e-10)
            assert direct == pytest.approx(form_b, rel=1e-10)


def test_gradient_boundary_slots_are_dirichlet(grid4, zpair):
    gu, gv = gradient_coefficients(zpair, params4())
    assert gu[0] == gu[-1] == 0.0
    assert gv[0] == gv[-1] == 0.0


FRAC = st.floats(0.05, 0.95)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 6), k=st.integers(-8, 8), s=st.floats(0.0, 1.5),
       f1=FRAC, f2=FRAC, fa=FRAC, fb=FRAC, center=st.floats(-6.0, 6.0),
       offset=st.floats(-1.0, 1.0), hu=st.floats(1.0, 2.5),
       hv=st.floats(1.0, 2.5))
def test_integrals_are_equivariant_under_grid_shifts(N, k, s, f1, f2, fa, fb,
                                                      center, offset, hu, hv):
    # t = log r is uniform, so a shift by k nodes is the dilation
    # r -> e^(k dt) r.  With u -> e^(-(N-2) k dt / 2) u the pair norm and the
    # critical integrals are invariant, and for constant h the coupling
    # integral scales by e^(k dt (N - s - (N-2)(alpha+beta)/2)), which is not
    # 1 unless alpha + beta = p.  Supports stay away from the collars.
    grid = cached_grid(N, n_nodes=2048)
    H = hardy_constant(N)
    half = (2.0 - s) / (N - 2)          # p/2 - 1
    pr = ProblemParams(N, s, f1 * H, f2 * H, 1.0 + fa * half, 1.0 + fb * half,
                       1.0)
    u = compact_bump(grid.t, center, hu, 1.0)
    v = compact_bump(grid.t, center + offset, hv, 1.0)
    c = math.exp(-(N - 2) * k * grid.dt / 2.0)
    us, vs = c * np.roll(u, k), c * np.roll(v, k)
    assert not (us[:9].any() or us[-9:].any() or vs[:9].any() or vs[-9:].any())
    wt = Weights(grid, pr)
    I, J = integrals(wt, u, v), integrals(wt, us, vs)
    q = pr.alpha + pr.beta
    assert I.C > 0.0
    assert J.A == pytest.approx(I.A, rel=1e-12)
    assert J.B == pytest.approx(I.B, rel=1e-12)
    assert J.C == pytest.approx(
        I.C * math.exp(k * grid.dt * (N - s - (N - 2) * q / 2.0)), rel=1e-12)


# a coordinate is 0 or at least 1e-3, so that no square underflows
COORD = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([3, 4, 5]), s=st.floats(0.0, 1.5), f1=FRAC, f2=FRAC,
       fa=FRAC, fb=FRAC, nu=st.floats(0.0, 2.0), bump=st.booleans(),
       a=COORD, b=COORD, a2=COORD, b2=COORD)
def test_plane_integrals_are_monomials_of_the_profiles(N, s, f1, f2, fa, fb, nu,
                                                       bump, a, b, a2, b2):
    # on the plane of two nonnegative profiles the truncated integrals of
    # (a z1, b z2) are a^2 A1 + b^2 A2, a^p B1 + b^p B2 and a^alpha b^beta
    # C12; the segment between two plane states is sqrt(da^2 W1 + db^2 W2)
    grid = cached_grid(N, n_nodes=2048)
    H = hardy_constant(N)
    p = 2.0 * (N - s) / (N - 2)
    pr = ProblemParams(N, s, f1 * H, f2 * H, 1.0 + fa * (p / 2 - 1),
                       1.0 + fb * (p / 2 - 1), nu,
                       HProfile("bump", p_exp=2.0, q_exp=2.0) if bump else HProfile())
    z1 = extremal_pair(pr, grid, "first").u.values
    z2 = extremal_pair(pr, grid, "second").v.values
    wt = Weights(grid, pr)
    plane = Plane(wt, z1, z2)
    I, J = plane.integrals(a, b), integrals(wt, a * z1, b * z2, positive=True)
    close = dict(rel=1e-13, abs=0.0)
    for name in ("A", "B", "C", "kinetic_u", "kinetic_v", "hardy_u", "hardy_v",
                 "hs_u", "hs_v"):
        assert getattr(I, name) == pytest.approx(getattr(J, name), **close), name
    if a or b:
        assert I.scale() == pytest.approx(J.scale(), **close)
        assert I.energy(I.scale()) == pytest.approx(J.energy(J.scale()), **close)
    else:
        for K in (I, J):
            with pytest.raises(DegenerateInputError):
                K.scale()
    da, db = a2 - a, b2 - b
    assert plane.distance(np.array([da, db])) == pytest.approx(
        wt.distance(np.stack((da * z1, db * z2))), **close)
