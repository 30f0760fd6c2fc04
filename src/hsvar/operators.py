"""Discrete elliptic operators on the interior nodes.

The truncation radii act as Dirichlet collars: variations are tested against
functions vanishing at the first and last node, so every operator here lives
on the ``n - 2`` interior degrees of freedom, where the quadratic form is a
symmetric tridiagonal matrix, the band of the grid's ``cc`` and ``wr2``.
LAPACK's SPD LDL^T (``dpttrf``/``dpttrs``) factorizes it as it is: that is
componentwise backward stable (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 9), and max |Ax - b| / (|A||x| + |b|) measures
1.2e-16 to 1.8e-16 on windows up to N = 8 on [1e-30, 1e30], whose band
spans 1e-177..1e183.

A state of the coupled problem, its gradient and its metric direction are
each one ``(2, n)`` array, rows u and v; :func:`pair_dot` pairs two of them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .closed_forms import _check_domain
from .errors import InvalidParameterError
from .grid import RadialGrid


class LambdaOperator:
    """Factorized interior operator of the quadratic form  Q - lam * Hardy.

    The discrete Hardy quotient on the interior space stays above the
    continuum threshold, so the matrix is positive definite for every
    ``lam`` in [0, (N-2)^2/4); others are rejected, as is a matrix whose
    factorization finds it not positive definite.
    """

    def __init__(self, grid: RadialGrid, lam: float):
        _check_domain(grid.N, lam, 0.0)
        self._main = grid.cc[:-1] + grid.cc[1:] - lam * grid.wr2[1:-1]
        self._off = -grid.cc[1:-1]
        # info > 0 names the first pivot that is not positive
        self._d, self._e, info = dpttrf(self._main, self._off)
        if info != 0:
            raise InvalidParameterError(
                f"interior operator for lambda={lam} is not positive definite")

    def apply(self, d: np.ndarray) -> np.ndarray:
        out = self._main * d
        out[:-1] += self._off * d[1:]
        out[1:] += self._off * d[:-1]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (Q - lam*H) d = rhs on the interior."""
        if not rhs.any():
            return np.zeros_like(rhs)     # a zero component stays zero
        return dpttrs(self._d, self._e, rhs)[0]


def pair_dot(a, b) -> float:
    """<a, b> of two couples, rows u and v: one dot product per row, summed
    as floats (a single dot over both rows sums in another order)."""
    return float(a[0] @ b[0]) + float(a[1] @ b[1])


class PairMetric:
    """Descent metric and dual norm for a two-component state."""

    def __init__(self, grid: RadialGrid, lambda1: float, lambda2: float):
        self.op1 = LambdaOperator(grid, lambda1)
        self.op2 = LambdaOperator(grid, lambda2)

    def direction(self, g: np.ndarray):
        """Riesz representative m = M^-1 g of a (2, n) gradient, row by row
        on the interior and 0 at the end nodes, and the slope <g, m>."""
        m = np.empty_like(g)
        m[:, 0] = m[:, -1] = 0.0
        m[0, 1:-1] = self.op1.solve(g[0, 1:-1])
        m[1, 1:-1] = self.op2.solve(g[1, 1:-1])
        return m, max(pair_dot(g[:, 1:-1], m[:, 1:-1]), 0.0)

    def dual_norm(self, g: np.ndarray) -> float:
        """Norm of the gradient in the dual of the energy space."""
        return float(np.sqrt(self.direction(g)[1]))
