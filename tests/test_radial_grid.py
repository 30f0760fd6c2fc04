"""Quadrature, seminorm, and weighted-integral checks on the log grid."""

import math

import numpy as np
import pytest

from hsvar import (GridMismatchError, InvalidGridError, InvalidParameterError,
                   RadialFunction, best_constant, build_grid, critical_exponent,
                   exact_solution, hardy_constant, weighted_lp)
from conftest import cached_grid, gradient_seminorm, integrate, smooth_bump


def test_build_grid_geometric_nodes():
    g = build_grid(4, 1e-6, 1e6, 4096)
    assert g.n == 4096
    ratios = g.r[1:] / g.r[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert g.r[0] == pytest.approx(1e-6, rel=1e-12)
    assert g.r[-1] == pytest.approx(1e6, rel=1e-12)


def test_build_grid_rejects_malformed_bounds():
    with pytest.raises(InvalidGridError):
        build_grid(4, 2.0, 1e6, 128)
    with pytest.raises(InvalidGridError):
        build_grid(4, 1e-6, 0.5, 128)
    with pytest.raises(InvalidGridError):
        build_grid(4, 1e-6, 1e6, 32)
    with pytest.raises(InvalidGridError):
        build_grid(2, 1e-6, 1e6, 128)
    # windows whose nodes or weights leave the positive floats
    for r_min, r_max in ((1e-6, math.inf), (1e-300, 1e300)):
        with pytest.raises(InvalidGridError, match=r"window \[.*\] in dimension N = 4"):
            build_grid(4, r_min, r_max, 256)


def test_unit_ball_volume(grid4):
    inside = grid4.r <= 1.0
    vol = grid4.w[inside].sum()
    exact = math.pi ** 2 / 2.0
    assert vol == pytest.approx(exact, rel=1e-4)


def test_gaussian_integral(grid4):
    f = RadialFunction(grid4, np.exp(-grid4.r ** 2))
    assert integrate(grid4, f) == pytest.approx(math.pi ** 2, rel=1e-6)


def test_integrate_zero_and_mismatch(grid4, grid3):
    assert integrate(grid4, RadialFunction.zero(grid4)) == 0.0
    with pytest.raises(GridMismatchError):
        integrate(grid4, RadialFunction.zero(grid3))


def test_halving_nodes_never_improves_gaussian_error():
    # trapezoid error sits at the roundoff floor until ~256 nodes, so the
    # comparison carries a matching roundoff slack
    errors = []
    for n in (4096, 2048, 1024, 512, 256, 128, 64):
        g = cached_grid(4, 1e-6, 1e6, n)
        f = RadialFunction(g, np.exp(-g.r ** 2))
        errors.append(abs(integrate(g, f) / math.pi ** 2 - 1.0))
    for fine, coarse in zip(errors, errors[1:]):
        assert coarse >= fine - 1e-13


def test_gradient_seminorm_constant_is_zero(grid4):
    u = RadialFunction(grid4, np.full(grid4.n, 3.7))
    assert abs(gradient_seminorm(grid4, u)) <= 1e-12


def test_gradient_seminorm_gaussian(grid4):
    u = RadialFunction(grid4, np.exp(-grid4.r ** 2 / 2))
    assert gradient_seminorm(grid4, u) == pytest.approx(2 * math.pi ** 2, rel=1e-4)


def test_extremal_integrals_hit_best_constant(grid4):
    # both the critical integral and the shifted seminorm equal S^((N-s)/(2-s))
    lam, s = 0.3, 1.0
    p = critical_exponent(4, s)
    z = RadialFunction(grid4, exact_solution(4, lam, s, 1.0, grid4.r))
    K = best_constant(4, lam, s) ** ((4 - s) / (2 - s))
    assert weighted_lp(grid4, z, p, s) == pytest.approx(K, rel=1e-6)
    seminorm_shifted = gradient_seminorm(grid4, z) - lam * weighted_lp(grid4, z, 2, 2)
    assert seminorm_shifted == pytest.approx(K, rel=1e-4)


def test_weighted_lp_validation(grid4):
    u = RadialFunction.zero(grid4)
    assert weighted_lp(grid4, u, 3.0, 1.0) == 0.0
    with pytest.raises(InvalidParameterError):
        weighted_lp(grid4, u, 0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        weighted_lp(grid4, u, 2.0, 2.5)


def test_discrete_hardy_inequality_on_bumps(grid4):
    rng = np.random.default_rng(7)
    L = hardy_constant(4)
    for _ in range(100):
        u = smooth_bump(grid4, rng)
        lhs = L * weighted_lp(grid4, u, 2.0, 2.0)
        rhs = gradient_seminorm(grid4, u)
        assert lhs <= rhs * (1 + 1e-6)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_sobolev_quotient_bounded_below(grid4, s):
    p = critical_exponent(4, s)
    S = best_constant(4, 0.0, s)
    rng = np.random.default_rng(11)
    quotients = []
    for _ in range(40):
        u = smooth_bump(grid4, rng)
        q = gradient_seminorm(grid4, u) / weighted_lp(grid4, u, p, s) ** (2.0 / p)
        quotients.append(q)
        assert q >= S * (1 - 1e-3)
    # equality approached on the explicit minimizer
    z = RadialFunction(grid4, exact_solution(4, 0.0, s, 1.0, grid4.r))
    qz = gradient_seminorm(grid4, z) / weighted_lp(grid4, z, p, s) ** (2.0 / p)
    assert qz == pytest.approx(S, rel=1e-3)
    assert qz <= min(quotients)


def test_radial_function_validation(grid4):
    with pytest.raises(InvalidParameterError):
        RadialFunction(grid4, np.ones(17))
    bad = np.ones(grid4.n)
    bad[5] = np.inf
    with pytest.raises(InvalidParameterError):
        RadialFunction(grid4, bad)
