"""Discrete elliptic operators on the interior nodes.

The truncation radii act as Dirichlet collars: variations are tested against
functions vanishing at the first and last node, so every operator here lives
on the ``n - 2`` interior degrees of freedom, where the quadratic form is a
symmetric tridiagonal matrix.  Its coefficients span many orders of magnitude
across the window, so it is factorized after symmetric Jacobi scaling (unit
diagonal), with LAPACK's LDL^T routines for SPD tridiagonal matrices
(``dpttrf``/``dpttrs``).  The scaled factorization is accurate relative to the
scaled matrix, not to each unscaled row; one step of iterative refinement
against the unscaled matrix removes that loss, which is why it stays.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import RadialGrid


class LambdaOperator:
    """Factorized interior operator of the quadratic form  Q - lam * Hardy.

    The discrete Hardy quotient on the interior space stays above the
    continuum threshold, so the matrix is positive definite for admissible
    ``lam``; if rounding ever breaks that, the Hardy part is backed off by 5%
    steps until the factorization succeeds (the operator is only used as a
    descent metric, where any SPD spectrally-equivalent surrogate is valid).
    """

    def __init__(self, grid: RadialGrid, lam: float):
        cc = grid.cell_w / grid.dt ** 2
        kin = cc[:-1] + cc[1:]
        hardy = grid.w[1:-1] / grid.r[1:-1] ** 2
        self._off = -cc[1:-1]
        shrink = 1.0
        while shrink >= 0.5:
            self._main = kin - shrink * lam * hardy
            if np.all(self._main > 0):
                scale = 1.0 / np.sqrt(self._main)
                d, e, info = dpttrf(np.ones(grid.n - 2),
                                    self._off * scale[1:] * scale[:-1])
                if info == 0:
                    self._d, self._e = d, e
                    self._scale = scale
                    self.shrink = shrink
                    return
            shrink *= 0.95
        raise np.linalg.LinAlgError(
            "interior operator could not be regularized to SPD")

    def apply(self, d: np.ndarray) -> np.ndarray:
        out = self._main * d
        out[:-1] += self._off * d[1:]
        out[1:] += self._off * d[:-1]
        return out

    def _scaled_solve(self, rhs: np.ndarray) -> np.ndarray:
        s = self._scale
        return s * dpttrs(self._d, self._e, s * rhs)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (Q - lam*H) d = rhs on the interior, with one refinement pass."""
        if not rhs.any():
            return np.zeros_like(rhs)     # a zero component stays zero
        d = self._scaled_solve(rhs)
        d += self._scaled_solve(rhs - self.apply(d))
        return d


class PairMetric:
    """Descent metric and dual norm for a two-component state."""

    def __init__(self, grid: RadialGrid, lambda1: float, lambda2: float):
        self.op1 = LambdaOperator(grid, lambda1)
        self.op2 = LambdaOperator(grid, lambda2)

    def direction(self, gu: np.ndarray, gv: np.ndarray):
        """Riesz representatives of the two gradient components (interior)."""
        du = np.zeros_like(gu)
        dv = np.zeros_like(gv)
        du[1:-1] = self.op1.solve(gu[1:-1])
        dv[1:-1] = self.op2.solve(gv[1:-1])
        slope = float(gu[1:-1] @ du[1:-1]) + float(gv[1:-1] @ dv[1:-1])
        return du, dv, max(slope, 0.0)

    def dual_norm(self, gu: np.ndarray, gv: np.ndarray) -> float:
        """Norm of the gradient in the dual of the energy space."""
        _, _, slope = self.direction(gu, gv)
        return float(np.sqrt(slope))
