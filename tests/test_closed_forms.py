"""Closed-form constants against independent oracles and stated identities."""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from hsvar import (InvalidParameterError, ProblemParams, best_constant,
                   critical_exponent, critical_level, exact_solution,
                   hardy_constant, separability_check, singular_exponent,
                   sobolev_constant)

# Oracles in 40-digit arithmetic.  The package evaluates the constants in
# double precision through log-Gamma; here Gamma itself is used, and the
# constants are also recomputed from the explicit extremal by quadrature.
DIGITS = 40
# (lambda as a fraction of the Hardy constant, s)
LAM_S = [(0.0, 0.0), (0.3, 0.5), (0.8, 1.5)]


@mpmath.workdps(DIGITS)
def mp_sobolev(N):
    """Classical Sobolev constant pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N)."""
    return (mpmath.pi * N * (N - 2)
            * (mpmath.gamma(mpf(N) / 2) / mpmath.gamma(N)) ** (mpf(2) / N))


@mpmath.workdps(DIGITS)
def mp_constants(N, lam, s):
    """best_constant's closed form, with Gamma in place of its logarithm,
    and the level (2-s)/(2(N-s)) S^((N-s)/(2-s))."""
    N, lam, s = mpf(N), mpf(lam), mpf(s)
    L = (N - 2) ** 2 / 4
    x = (N - s) / (2 - s)
    bracket = ((N - 2) / (2 * (2 - s) * mpmath.sqrt(L - lam))
               * 2 * mpmath.pi ** (N / 2) / mpmath.gamma(N / 2)
               * mpmath.gamma(x) ** 2 / mpmath.gamma(2 * x))
    S = 4 * (L - lam) * (N - s) / (N - 2) * bracket ** ((2 - s) / (N - s))
    return S, (2 - s) / (2 * (N - s)) * S ** ((N - s) / (2 - s))


@mpmath.workdps(DIGITS)
def mp_extremal(N, lam, s):
    """Constants from the quadratic form Q and critical integral M of the
    explicit extremal z(r) = A^((N-2)/(2(2-s))) / (r^a (1 + r^k)^((N-2)/(2-s))),
    with the constants of ``exact_solution``; integrals over R^N, in t = log r.

    The extremal attains the best constant, S = Q / M^(2/p), and solves the
    equation, Q = M, so its level is (1/2 - 1/p) M.  Returns (Q/M - 1, S,
    level).
    """
    N, lam, s = mpf(N), mpf(lam), mpf(s)
    L = (N - 2) ** 2 / 4
    a = mpmath.sqrt(L) - mpmath.sqrt(L - lam)
    k = (2 - s) * (1 - 2 * a / (N - 2))
    m = (N - 2) / (2 - s)
    p = 2 * (N - s) / (N - 2)
    amp = (2 * (L - lam) * (N - s) / mpmath.sqrt(L)) ** ((N - 2) / (2 * (2 - s)))
    omega = 2 * mpmath.pi ** (N / 2) / mpmath.gamma(N / 2)

    def radial(f):
        return omega * mpmath.quad(lambda t: f(mpmath.exp(t)) * mpmath.exp(N * t),
                                   [-mpmath.inf, 0, mpmath.inf])

    def z(r):
        return amp / (r ** a * (1 + r ** k) ** m)

    def dlog_z(r):
        return -a / r - m * k * r ** (k - 1) / (1 + r ** k)

    Q = radial(lambda r: z(r) ** 2 * (dlog_z(r) ** 2 - lam / r ** 2))
    M = radial(lambda r: z(r) ** p / r ** s)
    return Q / M - 1, Q / M ** (2 / p), (p - 2) / (2 * p) * M


def test_hardy_constant_values():
    assert hardy_constant(3) == 0.25
    assert hardy_constant(4) == 1.0
    assert hardy_constant(6) == 4.0


def test_hardy_constant_rejects_low_dimension():
    with pytest.raises(InvalidParameterError):
        hardy_constant(2)


def test_critical_exponent_values():
    assert critical_exponent(4, 1.0) == pytest.approx(3.0, abs=0)
    assert critical_exponent(3, 0.0) == pytest.approx(6.0, abs=0)
    assert critical_exponent(4, 0.0) == pytest.approx(4.0, abs=0)


def test_critical_exponent_rejects_bad_s():
    with pytest.raises(InvalidParameterError):
        critical_exponent(4, 2.0)
    with pytest.raises(InvalidParameterError):
        critical_exponent(4, -0.1)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_best_constant_matches_sobolev_oracle(N):
    S = float(mp_sobolev(N))
    assert best_constant(N, 0.0, 0.0) == pytest.approx(S, rel=1e-13)
    assert sobolev_constant(N) == pytest.approx(S, rel=1e-13)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("lam_frac,s", LAM_S)
def test_constants_match_mpmath(N, lam_frac, s):
    lam = lam_frac * hardy_constant(N)
    S, level = mp_constants(N, lam, s)
    assert best_constant(N, lam, s) == pytest.approx(float(S), rel=1e-13)
    assert critical_level(N, lam, s) == pytest.approx(float(level), rel=1e-13)


@pytest.mark.parametrize("N,lam_frac,s", [(3, 0.8, 1.5), (4, 0.3, 0.5),
                                          (5, 0.0, 0.0), (6, 0.3, 1.0)])
def test_constants_match_extremal_quadrature(N, lam_frac, s):
    lam = lam_frac * hardy_constant(N)
    defect, S, level = mp_extremal(N, lam, s)
    assert abs(defect) <= 1e-30
    assert best_constant(N, lam, s) == pytest.approx(float(S), rel=1e-13)
    assert critical_level(N, lam, s) == pytest.approx(float(level), rel=1e-13)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_best_constant_s0_specialization(N, frac):
    lam = frac * hardy_constant(N)
    expected = (1.0 - lam / hardy_constant(N)) ** ((N - 1) / N) * best_constant(N, 0.0, 0.0)
    assert best_constant(N, lam, 0.0) == pytest.approx(expected, rel=1e-12)


def test_best_constant_frozen_values():
    assert best_constant(4, 0.5, 0.0) == pytest.approx(6.100869533496081, rel=1e-12)
    # 6 (pi^2/15)^(1/3), the closed form reduced by hand at N=4, s=1
    with mpmath.workdps(DIGITS):
        S = 6 * (mpmath.pi ** 2 / 15) ** (mpf(1) / 3)
    assert best_constant(4, 0.0, 1.0) == pytest.approx(float(S), rel=1e-13)


def test_best_constant_limit_s_to_2():
    assert best_constant(4, 0.0, 1.999) == pytest.approx(hardy_constant(4), rel=0.01)


def test_best_constant_rejects_lambda_at_threshold():
    with pytest.raises(InvalidParameterError):
        best_constant(4, 1.0, 0.5)


@pytest.mark.parametrize("N,s", [(4, 0.5), (4, 1.0), (3, 0.5), (5, 1.5)])
def test_best_constant_decreasing_in_lambda(N, s):
    lams = np.linspace(0.0, 0.95 * hardy_constant(N), 25)
    vals = [best_constant(N, l, s) for l in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("N,lam_frac", [(4, 0.0), (4, 0.4), (3, 0.3), (5, 0.6)])
def test_best_constant_decreasing_in_s(N, lam_frac):
    lam = lam_frac * hardy_constant(N)
    ss = np.linspace(0.0, 1.9, 25)
    vals = [best_constant(N, lam, s) for s in ss]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_positivity_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = int(rng.integers(3, 8))
        s = rng.uniform(0.0, 1.99)
        lam = rng.uniform(0.0, 0.999) * hardy_constant(N)
        for val in (hardy_constant(N), best_constant(N, lam, s), critical_level(N, lam, s)):
            assert np.isfinite(val) and val > 0


def test_critical_level_value_and_symmetry():
    S = best_constant(4, 0.0, 0.0)
    # exponent (N-s)/(2-s) = 2 at N=4, s=0
    assert critical_level(4, 0.0, 0.0) == pytest.approx(0.25 * S * S, rel=1e-14)
    assert critical_level(4, 0.0, 0.0) == pytest.approx(26.318945069571623, rel=1e-12)
    assert critical_level(4, 0.3, 1.0) == critical_level(4, 0.3, 1.0)


def test_critical_level_monotone_in_lambda():
    assert critical_level(4, 0.2, 1.0) > critical_level(4, 0.6, 1.0)


class TestExactSolution:
    def test_closed_form_at_n4_s1(self):
        r = np.array([1e-9, 1.0, 3.0])
        z = exact_solution(4, 0.0, 1.0, 1.0, r)
        # profile is 6/(1+r)^2
        assert z[0] == pytest.approx(6.0, rel=1e-8)
        assert z[1] == pytest.approx(1.5, rel=1e-14)
        assert z[2] == pytest.approx(6.0 / 16.0, rel=1e-14)

    def test_regular_at_origin_for_lambda_zero(self):
        assert singular_exponent(4, 0.0) == 0.0
        z = exact_solution(4, 0.0, 0.5, 1.0, np.array([1e-12]))
        assert np.isfinite(z[0]) and z[0] > 0

    def test_scaling_relation(self):
        r = np.geomspace(1e-3, 1e3, 64)
        mu = 2.0
        z1 = exact_solution(4, 0.3, 1.0, 1.0, r)
        zmu = exact_solution(4, 0.3, 1.0, mu, mu * r)
        assert np.allclose(zmu, mu ** (-1.0) * z1, rtol=1e-14)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InvalidParameterError):
            exact_solution(4, 0.3, 1.0, 0.0, np.array([1.0]))

    @pytest.mark.parametrize("lam,s", [(0.0, 1.0), (0.3, 1.0), (0.45, 0.5), (0.7, 1.5)])
    def test_radial_ode_residual(self, lam, s):
        # high-order check on a fine grid, independent of the package's
        # quadrature: fourth-order centered stencils in t = log r
        N = 4
        n = 16384
        t = np.linspace(math.log(1e-6), math.log(1e6), n)
        dt = t[1] - t[0]
        r = np.exp(t)
        z = exact_solution(N, lam, s, 1.0, r)
        p = critical_exponent(N, s)

        def d1(u):
            out = np.zeros_like(u)
            out[2:-2] = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * dt)
            return out

        def d2(u):
            out = np.zeros_like(u)
            out[2:-2] = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2]
                         + 16 * u[1:-3] - u[:-4]) / (12 * dt ** 2)
            return out

        zt, ztt = d1(z), d2(z)
        # interior nodes: the four decades carrying the profile's mass; the
        # outer decades exist only to resolve quadrature tails, and there the
        # 1/(dt^2 r^2) roundoff amplification of the stencil takes over
        sl = (r > 1e-2) & (r < 1e2)
        resid = (-(ztt[sl] + (N - 2) * zt[sl]) / r[sl] ** 2
                 - lam * z[sl] / r[sl] ** 2 - z[sl] ** (p - 1) / r[sl] ** s)
        forcing = z[sl] ** (p - 1) / r[sl] ** s
        assert np.max(np.abs(resid)) <= 1e-6 * np.max(forcing)
        # pointwise relative accuracy, not just against the global maximum
        assert np.max(np.abs(resid) / forcing) <= 1e-6


class TestSeparability:
    def params(self, l1, l2, N=4, s=1.0, alpha=1.4, beta=1.4):
        return ProblemParams(N, s, l1, l2, alpha, beta, 0.1)

    def test_window_example_true(self):
        rep = separability_check(self.params(0.1, 0.3))
        assert rep["cond_i"] is True
        assert rep["ratio"] == pytest.approx(0.7 / 0.9, rel=1e-14)
        assert rep["threshold"] == pytest.approx(0.75785828325519904, rel=1e-12)

    def test_window_example_false(self):
        rep = separability_check(self.params(0.1, 0.5))
        assert rep["cond_i"] is False
        assert rep["ratio"] == pytest.approx(0.5 / 0.9, rel=1e-14)

    def test_equal_lambdas_fail_both(self):
        rep = separability_check(self.params(0.4, 0.4))
        assert rep["cond_i"] is False and rep["cond_ii"] is False

    def test_each_call_returns_a_new_dict(self):
        # the numbers are cached per lambda pair; what a caller does to one
        # result does not reach the next
        pr = self.params(0.1, 0.3)
        separability_check(pr)["cond_i"] = None
        assert separability_check(pr)["cond_i"] is True

    def test_level_and_ratio_forms_agree_on_random_draws(self):
        # the window is tested in its ratio form; the level form
        # 2 E2 > E1 > E2 is the reference away from the window boundary
        rng = np.random.default_rng(42)
        eps = 64 * np.finfo(float).eps
        hits = checked = 0
        for _ in range(1000):
            N = int(rng.integers(3, 7))
            s = rng.uniform(0.0, 1.9)
            L = hardy_constant(N)
            l1, l2 = rng.uniform(0.02, 0.98, size=2) * L
            p = critical_exponent(N, s)
            ab = 1.0 + 0.49 * (p - 2.0)
            rep = separability_check(self.params(l1, l2, N=N, s=s, alpha=ab, beta=ab))
            E1, E2 = critical_level(N, l1, s), critical_level(N, l2, s)
            assert (rep["level_1"], rep["level_2"]) == (E1, E2)
            hits += rep["cond_i"] or rep["cond_ii"]
            ratio_ii = (L - l1) / (L - l2)
            if (abs(l1 - l2) <= eps * L or abs(rep["ratio"] - rep["threshold"]) <= eps
                    or abs(ratio_ii - rep["threshold"]) <= eps):
                continue
            checked += 1
            assert rep["cond_i"] == (2.0 * E2 > E1 > E2)
            assert rep["cond_ii"] == (2.0 * E1 > E2 > E1)
        assert 0 < hits < 1000 and checked > 990


class TestCriticalLevelCache:
    def test_float_dimension_is_refused_after_the_int_is_cached(self):
        assert critical_level(3, 0.1, 0.5) > 0
        with pytest.raises(InvalidParameterError):
            critical_level(3.0, 0.1, 0.5)

    def test_numpy_integer_dimension_gives_the_same_level(self):
        assert critical_level(np.int64(3), 0.1, 0.5) == critical_level(3, 0.1, 0.5)

    def test_nan_lambda_is_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                critical_level(4, math.nan, 0.5)
