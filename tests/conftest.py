"""Shared fixtures: cached grids, compactly supported test profiles and the
dense interior operator."""

import math
from functools import lru_cache

import numpy as np
import pytest

from hsvar import RadialFunction, build_grid
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


def smooth_bump(grid, rng, amp_range=(0.3, 1.5), signed=True):
    """Random smooth bump compactly supported well inside the window."""
    center = rng.uniform(math.log(0.05), math.log(20.0))
    halfwidth = rng.uniform(1.0, 2.5)
    amp = rng.uniform(*amp_range)
    if signed and rng.random() < 0.5:
        amp = -amp
    return RadialFunction(grid, compact_bump(grid.t, center, halfwidth, amp))


def assembled_interior(grid, lam):
    """Dense interior matrix of the quadratic form Q - lam * Hardy."""
    cc = grid.cell_w / grid.dt ** 2
    main = cc[:-1] + cc[1:] - lam * grid.w[1:-1] / grid.r[1:-1] ** 2
    return np.diag(main) - np.diag(cc[1:-1], 1) - np.diag(cc[1:-1], -1)
