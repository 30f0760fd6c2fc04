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
Callers pass node-length arrays and the collar is taken here: the metric
direction (:meth:`PairMetric.direction`), the removal of a direction's
component along a path tangent (:meth:`PairMetric.transversal`) and the
shifted inverse iteration of a weighted eigenproblem
(:meth:`LambdaOperator.lowest_mode`) each read only the interior of the
arrays they are given.  The same factorization certifies that iteration's
shift: K - sigma W factorizes as SPD exactly when sigma lies below the
lowest eigenvalue of K phi = mu W phi (Sylvester's law of inertia; Parlett,
The Symmetric Eigenvalue Problem, 1998, ch. 4), so a shift that
:meth:`LambdaOperator.shifted` factorizes cannot skip past the lowest mode.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .closed_forms import _check_domain
from .errors import InvalidParameterError
from .grid import RadialGrid

# shifted inverse iteration of lowest_mode: relative decrease of the
# Rayleigh quotient that stops it, the cap on solves (plain and shifted
# alike), and the shifts tried before it keeps the unshifted factor
MODE_TOL = 1e-12
MODE_MAX_ITER = 500
MODE_SHIFTS = 4


class LambdaOperator:
    """Factorized interior operator of the quadratic form  Q - lam * Hardy.

    The discrete Hardy quotient on the interior space stays above the
    continuum threshold, so the matrix is positive definite for every
    ``lam`` in [0, (N-2)^2/4); others are rejected, as is a matrix whose
    factorization finds it not positive definite.
    """

    def __init__(self, grid: RadialGrid, lam: float):
        _check_domain(grid.N, lam, 0.0)
        self._off = -grid.cc[1:-1]
        if not self._factor(grid.cc[:-1] + grid.cc[1:] - lam * grid.wr2[1:-1]):
            raise InvalidParameterError(
                f"interior operator for lambda={lam} is not positive definite")

    def _factor(self, main: np.ndarray) -> bool:
        """Factorize the band with diagonal ``main``; False when it is not
        positive definite."""
        self._main = main
        # info > 0 names the first pivot that is not positive
        self._d, self._e, info = dpttrf(main, self._off)
        return info == 0

    def shifted(self, W: np.ndarray, sigma: float) -> LambdaOperator | None:
        """The factorized K - sigma W, W an interior diagonal, or None when
        it is not positive definite.  By Sylvester's law of inertia that
        certifies sigma below the lowest eigenvalue of K phi = mu W phi."""
        op = copy.copy(self)
        return op if op._factor(self._main - sigma * W) else None

    def apply(self, d: np.ndarray) -> np.ndarray:
        out = self._main * d
        out[:-1] += self._off * d[1:]
        out[1:] += self._off * d[:-1]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (Q - lam*H) d = rhs on the interior, less sigma W on the
        left for a :meth:`shifted` operator."""
        if not rhs.any():
            return np.zeros_like(rhs)     # a zero component stays zero
        return dpttrs(self._d, self._e, rhs)[0]

    def lowest_mode(self, W: np.ndarray, x: np.ndarray):
        """Lowest eigenpair of K phi = mu W phi by shifted inverse iteration
        from x.

        K is the interior matrix and W a nonnegative diagonal; ``W`` and
        ``x`` are node-length and only their interior is read.  Each step
        solves (K - sigma W) y = W x, and sigma + y'Wx / y'Wy is the
        Rayleigh quotient of y: it bounds mu from above and does not
        increase.  The first two steps take sigma = 0; from their quotients
        r1 >= r2, :meth:`_shift` sets a sigma that the factorization puts
        below mu, or keeps 0.  K - sigma W is then a positive definite
        M-matrix, so a positive x keeps its overlap with the positive lowest
        mode, and the rate falls from mu1/mu2 to (mu1 - sigma)/(mu2 - sigma).
        Returns (mu, phi, iterations, converged), with phi on the interior
        nodes, phi'W phi = 1 and ``iterations`` the solves taken.
        """
        W, x, mu = W[1:-1], x[1:-1], np.inf
        op, sigma = self, 0.0
        for it in range(1, MODE_MAX_ITER + 1):
            Wx = W * x
            y = op.solve(Wx)
            yWy = float(y @ (W * y))
            mu_next = sigma + float(y @ Wx) / yWy
            x = y / np.sqrt(yWy)
            if mu - mu_next <= MODE_TOL * mu_next:
                return mu_next, x, it, True
            if it == 2:
                op, sigma = self._shift(W, mu_next, mu - mu_next)
            mu = mu_next
        return mu, x, MODE_MAX_ITER, False

    def _shift(self, W: np.ndarray, r2: float, drop: float):
        """The shifted operator of :meth:`lowest_mode` and its sigma: the
        first of r2 - drop, r2 - 2 drop, r2 - 4 drop, ... (``MODE_SHIFTS``
        tries, drop = r1 - r2) that is positive and factorizes, or this
        operator and 0."""
        for k in range(MODE_SHIFTS):
            sigma = r2 - 2.0 ** k * drop
            if sigma <= 0.0:
                break
            op = self.shifted(W, sigma)
            if op is not None:
                return op, sigma
        return self, 0.0


def pair_dot(a, b) -> float:
    """<a, b> of two couples, rows u and v: one dot product per row, summed
    as floats (a single dot over both rows sums in another order)."""
    return float(a[0] @ b[0]) + float(a[1] @ b[1])


class PairMetric:
    """Descent metric of a two-component state: one interior operator per
    component."""

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

    def transversal(self, d: np.ndarray, g: np.ndarray, tau: np.ndarray,
                    factor: float):
        """A copy of the direction d less ``factor`` times the component of
        M^-1 g along the tangent tau in the metric, <g, tau> / <tau, M tau>
        tau, and the copy's slope <g, d> (0 when negative), both over the
        interior; d, g and tau are (2, n) arrays."""
        tau = tau[:, 1:-1]
        tmt = pair_dot(tau, (self.op1.apply(tau[0]), self.op2.apply(tau[1])))
        coef = pair_dot(g[:, 1:-1], tau) / tmt if tmt > 0 else 0.0
        d = d.copy()
        d[:, 1:-1] -= factor * coef * tau
        return d, max(pair_dot(g[:, 1:-1], d[:, 1:-1]), 0.0)
