"""Scalar projection onto the constraint sets and on-constraint identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hsvar import (DegenerateInputError, HProfile, NoProjectionError,
                   PreconditionError, ProblemParams, RadialFunction, StatePair,
                   critical_level, energy, exact_solution, pair_norm_sq,
                   project)
from hsvar.energy import _solve_scale, pair_integrals
from hsvar.solvers import compact_bump
from conftest import cached_grid, mp_power_root, smooth_bump


def params4(nu=0.0, alpha=1.4, beta=1.4):
    return ProblemParams(4, 1.0, 0.3, 0.5, alpha, beta, nu)


@pytest.fixture(scope="module")
def z1(grid4):
    return RadialFunction(grid4, exact_solution(4, 0.3, 1.0, 1.0, grid4.r))


@pytest.fixture(scope="module")
def z2(grid4):
    return RadialFunction(grid4, exact_solution(4, 0.5, 1.0, 1.0, grid4.r))


class TestProject:
    def test_extremal_projects_to_itself(self, grid4, z1):
        pair = StatePair(z1, RadialFunction.zero(grid4))
        for nu in (0.0, 5.0):
            res = project(pair, params4(nu=nu))
            assert res.t_star == pytest.approx(1.0, abs=1e-4)
            assert abs(res.residual) <= 1e-12 * pair_norm_sq(pair, params4())

    def test_doubled_extremal_halves(self, grid4, z1):
        pair = StatePair(z1.scaled(2.0), RadialFunction.zero(grid4))
        res = project(pair, params4(nu=0.0))
        assert res.t_star == pytest.approx(0.5, rel=1e-4)

    def test_couple_of_extremals(self, grid4, z1, z2):
        res = project(StatePair(z1, z2), params4(nu=0.0))
        assert res.t_star == pytest.approx(1.0, abs=1e-4)

    def test_idempotence(self, grid4):
        rng = np.random.default_rng(0)
        pr = params4(nu=0.7)
        for _ in range(10):
            pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
            res = project(pair, pr)
            assert abs(res.residual) <= 1e-14 * pair_norm_sq(res.projected, pr)
            res2 = project(res.projected, pr)
            assert res2.t_star == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self, grid4):
        rng = np.random.default_rng(1)
        pr = params4(nu=0.4)
        for c in (0.1, 3.0, 40.0):
            pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
            r1 = project(pair, pr)
            r2 = project(pair.scaled(c), pr)
            assert r2.t_star * c == pytest.approx(r1.t_star, rel=1e-10)
            assert np.allclose(r1.projected.u.values, r2.projected.u.values,
                               rtol=1e-10, atol=1e-300)

    def test_zero_pair_rejected(self, grid4):
        with pytest.raises(DegenerateInputError):
            project(StatePair.zero(grid4), params4())

    def test_no_projection_when_integrals_vanish(self, grid4):
        # negative profile, positive-part constraint, no coupling mass
        rng = np.random.default_rng(2)
        u = RadialFunction(grid4, -np.abs(smooth_bump(grid4, rng).values))
        pair = StatePair(u, RadialFunction.zero(grid4))
        with pytest.raises(NoProjectionError):
            project(pair, params4(nu=1.0), positive=True)

    @pytest.mark.parametrize("A,B,C,p,q,nu", [
        (1e-300, 1e300, 0.0, 3.0, 2.6, 0.0),       # the root underflows
        (1.0, 1e-300, 0.0, 2.001, 2.0005, 0.0),    # log t ~ 6.9e5 overflows
        (1.0, 0.0, 1.0, 3.0, 2.6, 0.0),            # B = nu C = 0
    ])
    def test_scale_solver_fails_loudly(self, A, B, C, p, q, nu):
        with pytest.raises(NoProjectionError):
            _solve_scale(A, B, C, p, q, nu)

    @pytest.mark.parametrize("A,B,p,root", [
        (1.0, 1e-300, 3.0, 1.0 / 1e-300),
        (1.0, 5e-324, 6.0, 2.0 ** 268.5),          # B t^4 would overflow first
    ], ids=["root-1e300", "root-6.7e80"])
    def test_scale_solver_reaches_extreme_roots(self, A, B, p, root):
        assert _solve_scale(A, B, 0.0, p, 2.6, 0.0) == pytest.approx(root, rel=1e-13)

    def test_scalar_equation_monotone_in_t(self, grid4):
        # the root map residual is strictly increasing in t, so uniqueness
        rng = np.random.default_rng(3)
        pr = params4(nu=1.3)
        pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
        A = pair_norm_sq(pair, pr)
        bd = energy(pair, pr)
        B, C = bd.hs_u + bd.hs_v, bd.coupling
        q = pr.alpha + pr.beta
        ts = np.geomspace(1e-3, 1e3, 200)
        vals = ts ** (pr.crit_exp - 2) * B + pr.nu * q * ts ** (q - 2) * C
        assert np.all(np.diff(vals) > 0)

    def test_norm_lower_bound_on_constraint(self, grid4):
        # r_nu = inf of pair norms over projections; every projected energy
        # dominates (1/2 - 1/(alpha+beta)) r_nu^2
        rng = np.random.default_rng(4)
        pr = params4(nu=0.5)
        q = pr.alpha + pr.beta
        norms, energies = [], []
        for _ in range(100):
            pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
            proj = project(pair, pr).projected
            norms.append(np.sqrt(pair_norm_sq(proj, pr)))
            energies.append(energy(proj, pr).total)
        r_nu = min(norms)
        assert r_nu > 0
        for e in energies:
            assert e >= (0.5 - 1.0 / q) * r_nu ** 2 - 1e-12


class TestProjectDecoupled:
    """Pairs (u, 0): the coupling vanishes, so the scale is the single-term root."""

    def one(self, u):
        return StatePair(u, RadialFunction.zero(u.grid))

    def test_extremal(self, z1):
        res = project(self.one(z1), params4(nu=0.8))
        assert res.t_star == pytest.approx(1.0, abs=1e-4)

    def test_homogeneity(self, z1):
        res = project(self.one(z1.scaled(3.0)), params4(nu=0.8))
        assert res.t_star == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_perturbed_extremal_energy_dominates_level(self, grid4, z1):
        rng = np.random.default_rng(5)
        level = critical_level(4, 0.3, 1.0)
        pr = params4()
        scale = float(np.interp(1.0, grid4.r, z1.values))
        for _ in range(10):
            psi = smooth_bump(grid4, rng)
            u = RadialFunction(grid4, z1.values + 0.1 * scale * psi.values)
            e = energy(project(self.one(u), pr).projected, pr).total
            assert e >= level * (1 - 1e-4)

    def test_zero_rejected(self, grid4):
        with pytest.raises(DegenerateInputError):
            project(self.one(RadialFunction.zero(grid4)), params4())


class TestConstrainedEnergy:
    def test_extremal_gives_level(self, grid4, z1):
        pair = StatePair(z1, RadialFunction.zero(grid4))
        pr = params4(nu=0.8)
        val = pair_integrals(pair, pr).constrained_energy(tol=1e-3)
        assert val == pytest.approx(critical_level(4, 0.3, 1.0), rel=1e-4)

    def test_matches_direct_energy_on_projections(self, grid4):
        rng = np.random.default_rng(6)
        pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 1.1,
                           h_profile=HProfile("bump", p_exp=2.0, q_exp=2.0))
        for _ in range(10):
            pair = StatePair(smooth_bump(grid4, rng), smooth_bump(grid4, rng))
            proj = project(pair, pr).projected
            assert pair_integrals(proj, pr).constrained_energy() == pytest.approx(
                energy(proj, pr).total, rel=1e-8)

    def test_off_constraint_rejected(self, grid4, z1):
        pair = StatePair(z1.scaled(1.5), RadialFunction.zero(grid4))
        with pytest.raises(PreconditionError):
            pair_integrals(pair, params4()).constrained_energy()

    def test_zero_pair_rejected(self, grid4):
        # the origin is not on the constraint set, though Psi(0) = 0 there
        with pytest.raises(DegenerateInputError):
            pair_integrals(StatePair.zero(grid4), params4(nu=0.8)).constrained_energy()

    def test_coupling_term_active_for_positive_nu(self, grid4):
        rng = np.random.default_rng(7)
        pr = params4(nu=2.0)
        pair = StatePair(
            RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)),
            RadialFunction(grid4, np.abs(smooth_bump(grid4, rng).values)))
        proj = project(pair, pr).projected
        bd = energy(proj, pr)
        assert bd.coupling > 0
        without_coupling = (2 - pr.s) / (2 * (4 - pr.s)) * (bd.hs_u + bd.hs_v)
        assert pair_integrals(proj, pr).constrained_energy() != pytest.approx(
            without_coupling, rel=1e-6)


# ---------------------------------------------------------------------------
# properties: idempotent projection, component swap
# ---------------------------------------------------------------------------

bump = st.tuples(st.floats(math.log(0.05), math.log(20.0)),   # center
                 st.floats(1.0, 2.5),                          # half width
                 st.floats(0.3, 1.5))                          # amplitude


def bump_pair(grid, bu, bv, flip):
    u = compact_bump(grid.t, *bu)
    v = compact_bump(grid.t, *bv) * (-1.0 if flip else 1.0)
    return StatePair(RadialFunction(grid, u), RadialFunction(grid, v))


@settings(max_examples=40, deadline=None)
@given(bu=bump, bv=bump, nu=st.floats(0.0, 2.0), scale=st.floats(0.05, 20.0),
       flip=st.booleans(), positive=st.booleans())
def test_projection_is_idempotent(bu, bv, nu, scale, flip, positive):
    params = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.6, nu,
                           h_profile=HProfile("bump", p_exp=2, q_exp=3))
    pair = bump_pair(cached_grid(4), bu, bv, flip).scaled(scale)
    once = project(pair, params, positive=positive).projected
    again = project(once, params, positive=positive)
    assert abs(again.t_star - 1.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(bu=bump, bv=bump, nu=st.floats(0.0, 2.0), flip=st.booleans(),
       positive=st.booleans())
def test_energy_and_projection_commute_with_component_swap(bu, bv, nu, flip,
                                                           positive):
    params = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.6, nu,
                           h_profile=HProfile("bump", p_exp=2, q_exp=3))
    pair = bump_pair(cached_grid(4), bu, bv, flip)
    swapped = StatePair(pair.v, pair.u)
    E, E_sw = energy(pair, params).total, energy(swapped, params.swapped()).total
    assert E_sw == pytest.approx(E, rel=1e-13, abs=0.0)
    t = project(pair, params, positive=positive).t_star
    t_sw = project(swapped, params.swapped(), positive=positive).t_star
    assert t_sw == pytest.approx(t, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# property: the scale against a 40-digit root
# ---------------------------------------------------------------------------

def _mp_scale(A, B, C, p, q, nu):
    """Root T of A = t^(p-2) B + nu q t^(q-2) C to 40 digits, and the slope
    of the relative residual in log t at T (see ``mp_power_root``)."""
    with mpmath.workdps(50):
        A, B, C, p, q, nu = map(mpmath.mpf, (A, B, C, p, q, nu))
        return mp_power_root(A, ((p - 2, B), (q - 2, nu * q * C)))


coef = st.floats(-8.0, 8.0).map(lambda k: 10.0 ** k)
exponent = st.floats(2.0, 6.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(A=coef, B=coef, C=coef, pq=st.tuples(exponent, exponent).map(sorted),
       nu=st.one_of(st.just(0.0), st.floats(-4.0, 3.0).map(lambda k: 10.0 ** k)))
def test_scale_matches_a_40_digit_root(A, B, C, pq, nu):
    # a residual known to eps moves log t by eps / slope, which no
    # double-precision solver avoids; the slope is below 1 only where p - 2
    # or q - 2 is.  At (A, B, C, p, q, nu) = (10, 1, 1, 3, 2.00001,
    # 5.002864610575233) it is 1e-5, and rounding nu q C alone moves the
    # root by 2.6e-12, six times 32 eps (1 + |ln t|)
    q, p = pq
    T, slope = _mp_scale(A, B, C, p, q, nu)
    assume(T is not None)
    t = _solve_scale(A, B, C, p, q, nu)
    eps = np.finfo(float).eps
    assert abs(float(t / T) - 1.0) <= (32 * eps * (1.0 + abs(math.log(t)))
                                       / min(1.0, slope))
