"""Shared fixtures: cached grids, the u-space quadrature reference,
compactly supported test profiles, the dense interior operator, a strategy
of admissible parameter tuples and a 40-digit reference root of a power
sum."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, strategies as st

from hsvar import (HProfile, InvalidParameterError, ProblemParams,
                   RadialFunction, build_grid)
from hsvar.solvers import compact_bump


@lru_cache(maxsize=16)
def cached_grid(N, r_min=1e-6, r_max=1e6, n_nodes=4096):
    return build_grid(N, r_min, r_max, n_nodes)


@pytest.fixture(scope="session")
def grid4():
    return cached_grid(4)


@pytest.fixture(scope="session")
def grid3():
    return cached_grid(3)


# ---------------------------------------------------------------------------
# u-space reference: the volume and Dirichlet integrals straight from the
# grid's w, cell_w and dt, independent of the band (cc, wr2) that hsvar reads
# ---------------------------------------------------------------------------

def integrate(grid, f):
    """Discrete volume integral of f over R^N."""
    grid.require_same(f.grid)
    return float(np.dot(grid.w, f.values))


def gradient_seminorm(grid, u):
    """Discrete Dirichlet integral int |grad u|^2 dx."""
    grid.require_same(u.grid)
    du = np.diff(u.values) / grid.dt
    return float(np.dot(grid.cell_w, du * du))


def smooth_bump(grid, rng, amp_range=(0.3, 1.5), signed=True):
    """Random smooth bump compactly supported well inside the window."""
    center = rng.uniform(math.log(0.05), math.log(20.0))
    halfwidth = rng.uniform(1.0, 2.5)
    amp = rng.uniform(*amp_range)
    if signed and rng.random() < 0.5:
        amp = -amp
    return RadialFunction(grid, compact_bump(grid.t, center, halfwidth, amp))


def interior_band(grid, lam):
    """Main and off diagonal of the interior quadratic form Q - lam * Hardy,
    assembled from the quadrature weights."""
    cc = grid.cell_w / grid.dt ** 2
    return cc[:-1] + cc[1:] - lam * grid.w[1:-1] / grid.r[1:-1] ** 2, -cc[1:-1]


def assembled_interior(grid, lam):
    """Dense interior matrix of the quadratic form Q - lam * Hardy."""
    main, off = interior_band(grid, lam)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


@st.composite
def admissible_params(draw):
    """Admissible tuples with the ties the regime rules decide drawn often:
    lambda1 = lambda2, alpha or beta = 2, alpha + beta = p, sums at the
    bound p (1 + 1e-12) that construction admits, and lambda2 = lambda1,
    alpha = 2 and beta = 2 each missed by one rounding either way."""
    N = draw(st.integers(3, 6))
    s = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.9)))
    L, p = (N - 2) ** 2 / 4.0, 2.0 * (N - s) / (N - 2)
    near_two = st.sampled_from([2.0, math.nextafter(2.0, -math.inf),
                                math.nextafter(2.0, math.inf)])
    l1 = draw(st.floats(0.01, 0.99)) * L
    l2 = draw(st.one_of(st.just(l1), st.just(math.nextafter(l1, -math.inf)),
                        st.just(math.nextafter(l1, math.inf)),
                        st.floats(0.01, 0.99).map(lambda x: x * L)))
    alpha = draw(st.one_of(near_two, st.floats(1.01, p - 1.01)))
    beta = draw(st.one_of(near_two, st.just(p - alpha),
                          st.just(p * (1 + 1e-12) - alpha),
                          st.floats(1.01, p - 1.01)))
    h = draw(st.sampled_from([HProfile(), HProfile("bump", p_exp=2.0, q_exp=2.0)]))
    try:
        return ProblemParams(N, s, l1, l2, alpha, beta,
                             draw(st.floats(0.0, 2.0)), h)
    except InvalidParameterError:
        assume(False)


def mp_power_root(A, terms):
    """Root T of sum_k k t^e = A over the (e, k) pairs of ``terms`` (e > 0,
    k >= 0) to 40 digits, by bisection in x = log t, and the slope of the
    relative residual in x at T (None, None when T is not a representable
    float).  Pass mpf values, built at 50 digits, where a product would
    round in floats."""
    with mpmath.workdps(50):
        A = mpmath.mpf(A)
        terms = [(mpmath.mpf(e), mpmath.mpf(k)) for e, k in terms if k > 0]

        def f(x):
            return sum(k * mpmath.exp(e * x) for e, k in terms) - A

        # f >= 0 at the smaller single-term root; ln 2 / e_min below it every
        # term is at most A / 2, so f <= 0; 240 halvings of that bracket
        # (at most 2^51 wide) leave less than 1e-40 of it
        hi = min((mpmath.log(A) - mpmath.log(k)) / e for e, k in terms)
        lo = hi - mpmath.log(2) / min(e for e, _ in terms)
        for _ in range(240):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        if abs(hi) >= 690:
            return None, None
        slope = sum(e * k * mpmath.exp(e * hi) for e, k in terms) / A
        return mpmath.exp(hi), float(slope)
