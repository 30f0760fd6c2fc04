"""Logarithmic radial discretization of R^N with singular-weight quadrature.

Nodes are geometric between ``r_min`` and ``r_max`` so that ``t = log r`` is
uniform.  Volume integrals use the trapezoid rule in ``t``:

    int f dx = omega * int f(r) r^N dt  ~  sum_i w_i f(r_i),

with ``omega`` the surface measure of the unit sphere.  The Dirichlet
integral uses first differences on cells, evaluated at cell midpoints:

    int |grad u|^2 dx = omega * int (du/dt)^2 r^(N-2) dt
                      ~ omega * sum_cells (Du/dt)^2 exp((N-2) t_mid) dt.

The cell form keeps the associated quadratic form free of mesh-scale
oscillation modes, which node-centered differences would annihilate.  The
grid carries that form as its band: the cell coefficients ``cc`` and the
Hardy weights ``wr2``.  The band is the one discretization of the quadratic
form; ``energy`` and ``operators`` read it and build no other.
Integrals over (0, r_min) and (r_max, inf) are truncated, not extrapolated,
so the truncation error depends on how fast a profile's tails decay.  On
the reference window [1e-6, 1e6] with 4096 nodes it is not below quadrature
accuracy in every dimension.  The projected unit-scale extremal profile has
a relative level error of 1.3e-5 at N=4 (s=1, lambda=0.3), but of 7.5e-5 at
N=3 (s=0.5, lambda=0.1), growing to 3.1e-3 at scale 100, because its tail
r^-(N-2-a) decays slowly when N=3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidGridError, InvalidParameterError

REFERENCE_R_MIN = 1e-6
REFERENCE_R_MAX = 1e6
REFERENCE_N_NODES = 4096
# the most nodes a grid takes: each of its arrays is then 8 MiB.  A larger
# count is refused before any array is built
MAX_NODES = 2 ** 20


class RadialGrid:
    """Immutable log-uniform radial mesh with volume quadrature weights.

    Attributes
    ----------
    N : int
        Space dimension.
    r : ndarray
        Strictly increasing nodes, ``r[0] = r_min``, ``r[-1] = r_max``.
    t : ndarray
        ``log(r)``, uniformly spaced with step ``dt``.
    w : ndarray
        Quadrature weights such that ``sum(w * f(r))`` approximates the
        volume integral of ``f`` over R^N.
    cell_w : ndarray
        Kinetic cell weights ``omega * exp((N-2) t_mid) * dt`` (one entry
        per cell, length ``n - 1``), from which ``cc`` is built.
    wr2, cc : ndarray
        Hardy weights ``w / r**2`` and Dirichlet cell coefficients
        ``cell_w / dt**2``: the band of the discrete quadratic form.
    """

    __slots__ = ("N", "n", "r_min", "r_max", "r", "t", "dt", "w", "cell_w", "wr2",
                 "cc", "omega")

    def __init__(self, N: int, r_min: float, r_max: float, n_nodes: int):
        if not (isinstance(N, (int, np.integer)) and N >= 3):
            raise InvalidGridError(f"dimension must be an integer >= 3, got {N}")
        if not (0 < r_min < 1 < r_max):
            raise InvalidGridError(
                f"radii must satisfy 0 < r_min < 1 < r_max, got ({r_min}, {r_max})")
        if n_nodes < 64:
            raise InvalidGridError(f"need at least 64 nodes, got {n_nodes}")
        if n_nodes > MAX_NODES:
            raise InvalidGridError(f"need at most {MAX_NODES} nodes, got {n_nodes}")
        self.N = int(N)
        self.n = int(n_nodes)
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        with np.errstate(all="ignore"):
            self.t = np.linspace(math.log(r_min), math.log(r_max), self.n)
            self.r = np.exp(self.t)
            self.dt = float(self.t[1] - self.t[0])
            self.omega = 2.0 * math.pi ** (self.N / 2.0) / math.exp(math.lgamma(self.N / 2.0))
            tau = np.full(self.n, self.dt)
            tau[0] *= 0.5
            tau[-1] *= 0.5
            self.w = self.omega * self.r ** self.N * tau
            t_mid = 0.5 * (self.t[1:] + self.t[:-1])
            self.cell_w = self.omega * np.exp((self.N - 2) * t_mid) * self.dt
            self.wr2 = self.w / self.r ** 2
            self.cc = self.cell_w / self.dt ** 2
            # min and max are nan when any entry is
            if not all(0 < a.min() and a.max() < math.inf
                       for a in (self.r, self.w, self.cell_w, self.wr2, self.cc)):
                raise InvalidGridError(
                    f"the window [{r_min}, {r_max}] in dimension N = {N} puts nodes or "
                    f"weights outside the positive floats")
        for arr in (self.t, self.r, self.w, self.cell_w, self.wr2, self.cc):
            arr.flags.writeable = False

    def compatible(self, other: "RadialGrid") -> bool:
        return (self is other) or (
            self.N == other.N and self.n == other.n
            and self.r_min == other.r_min and self.r_max == other.r_max)

    def require_same(self, other: "RadialGrid") -> None:
        if not self.compatible(other):
            raise GridMismatchError("operands live on different grids")

    def header(self) -> dict:
        return {"N": self.N, "r_min": self.r_min, "r_max": self.r_max, "n_nodes": self.n}

    def __repr__(self):
        return (f"RadialGrid(N={self.N}, r_min={self.r_min:g}, "
                f"r_max={self.r_max:g}, n_nodes={self.n})")


def build_grid(N: int, r_min: float, r_max: float, n_nodes: int) -> RadialGrid:
    """Construct a log-uniform grid; see :class:`RadialGrid`."""
    return RadialGrid(N, r_min, r_max, n_nodes)


def reference_grid(N: int) -> RadialGrid:
    """The default window [1e-6, 1e6] with 4096 nodes."""
    return RadialGrid(N, REFERENCE_R_MIN, REFERENCE_R_MAX, REFERENCE_N_NODES)


@dataclass(frozen=True)
class RadialFunction:
    """A radial profile sampled at the grid nodes."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise InvalidParameterError(
                f"values shape {vals.shape} does not match grid size {self.grid.n}")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("values must be finite at all nodes")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, grid: RadialGrid) -> "RadialFunction":
        return cls(grid, np.zeros(grid.n))

    def scaled(self, factor: float) -> "RadialFunction":
        return RadialFunction(self.grid, factor * self.values)


def weighted_lp(grid: RadialGrid, u: RadialFunction, p: float, s: float) -> float:
    """Discrete weighted integral int |u|^p / r^s dx.

    ``p = 2, s = 2`` gives the Hardy integral; ``p`` at the critical
    exponent with the problem's ``s`` gives the critical integral.
    """
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    if not (0.0 <= s <= 2.0):
        raise InvalidParameterError(f"s must lie in [0, 2], got {s}")
    grid.require_same(u.grid)
    return float(np.dot(grid.w, np.abs(u.values) ** p / grid.r ** s))
