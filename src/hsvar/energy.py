"""The coupled energy functional, its truncated variant, and gradients.

For a pair ``(u, v)`` the functional is

    J(u, v) = 1/2 ||u||_{lam1}^2 + 1/2 ||v||_{lam2}^2
              - 1/p (int |u|^p/r^s + int |v|^p/r^s)
              - nu int h |u|^alpha |v|^beta / r^s,

with ``||u||_lam^2 = int |grad u|^2 - lam int u^2/r^2`` and ``p`` the
critical exponent.  The truncated variant replaces every nonlinear
occurrence of ``u, v`` by the positive parts, which penalizes negative
excursions purely quadratically and drives descent iterates nonnegative.

The constraint functional is the radial derivative of ``J`` along the
scaling direction:

    Psi(u, v) = ||(u,v)||^2 - int |u|^p/r^s - int |v|^p/r^s
                - nu (alpha+beta) int h |u|^alpha |v|^beta / r^s,

whose zero set (minus the origin) is the natural constraint: constrained
critical points are free critical points.

Every functional here is algebra over the integrals of a state, which
:func:`integrals` computes in one pass over the grid (with the gradient when
asked), given the weight vectors of a :class:`Weights`.  On the constraint
set they include the constrained energy and the second variation
(:class:`Integrals` methods).  The quadratic part, like
:func:`lambda_norm_sq`, reads the grid's band (see ``grid``).  The solvers'
two other weighted quantities are :class:`Weights` methods too, so that
``solvers`` reads no weight array: the volume distance of two states, the
segment length of the min-max chain (:meth:`Weights.distance`), and the
weight of the second variation at a one-component couple
(:meth:`Weights.foreign_weight`).  On the plane of two nonnegative
profiles, where the chain is only resampled, :class:`Plane` gives both the
integrals and the segment length of a state from its two coordinates,
without a grid pass.

So is the projection onto the constraint set: with A the squared pair norm,
B the sum of critical integrals and C the coupling integral, the scale t
putting t (u, v) on the set solves A = t^(p-2) B + nu q t^(q-2) C, a power
sum whose root :meth:`Integrals.scale` finds with ``closed_forms.power_root``.
The truncated constraint gives the same equation, positive parts being
homogeneous under positive rescaling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .closed_forms import _check_domain, power_root
from .errors import (DegenerateInputError, GridMismatchError, NoProjectionError,
                     PreconditionError)
from .grid import RadialFunction, RadialGrid
from .operators import PairMetric
from .params import ProblemParams


@dataclass(frozen=True)
class StatePair:
    """A couple (u, v) of radial profiles on a shared grid."""

    u: RadialFunction
    v: RadialFunction

    def __post_init__(self):
        if not self.u.grid.compatible(self.v.grid):
            raise GridMismatchError("components of a StatePair must share a grid")

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid

    @classmethod
    def zero(cls, grid: RadialGrid) -> "StatePair":
        return cls(RadialFunction.zero(grid), RadialFunction.zero(grid))

    def scaled(self, factor: float) -> "StatePair":
        return StatePair(self.u.scaled(factor), self.v.scaled(factor))

    def is_zero(self) -> bool:
        return not (np.any(self.u.values) or np.any(self.v.values))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Every integral term of the functional plus the total."""

    kinetic_u: float
    kinetic_v: float
    hardy_u: float
    hardy_v: float
    hs_u: float
    hs_v: float
    coupling: float
    total: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ProjectionResult:
    """Scale factor, rescaled state, and the achieved residual Psi(t u, t v)."""

    t_star: float
    projected: StatePair
    residual: float

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "residual": self.residual}


class Weights:
    """Weight vectors of the integrals kernel for one (grid, params).

    ``wrs = w r^-s`` and ``whrs = w h r^-s`` weigh the critical and coupling
    integrals; the grid's own band (``wr2``, ``cc``) weighs the Hardy
    integral and the Dirichlet cells.  Callers build one per solver call and
    reuse it for every state they evaluate; :func:`pair_integrals` builds
    one per call.  A grid of another dimension than ``params.N`` is refused:
    its weights would integrate the profiles of one dimension in another.
    """

    __slots__ = ("grid", "params", "wrs", "whrs", "_grad_w")

    def __init__(self, grid: RadialGrid, params: ProblemParams):
        if grid.N != params.N:
            raise GridMismatchError(f"grid dimension N = {grid.N} does not match "
                                    f"the parameters' N = {params.N}")
        self.grid = grid
        self.params = params
        self.wrs = grid.w / grid.r ** params.s
        self.whrs = self.wrs * params.h_profile(grid.r)
        self._grad_w = None

    def distance(self, dx: np.ndarray) -> float:
        """Volume norm sqrt(sum w (du^2 + dv^2)) of a (2, n) difference of
        states, the length of a segment of the min-max chain."""
        return math.sqrt(((dx[0] ** 2 + dx[1] ** 2) * self.grid.w).sum())

    def foreign_weight(self, z: np.ndarray, f: float) -> np.ndarray:
        """Quadrature-weighted 2 h z^f r^-s: the weight of the second
        variation at the one-component couple (0, z) in the directions
        (phi, 0), with f the host exponent."""
        return 2.0 * (self.whrs * z ** f)

    def _gradient_weights(self):
        """``(-lam1 wr2, -lam2 wr2, -wrs, -nu whrs)``, the weights of the
        gradient parts; built by the first gradient call, so that callers
        which never ask for a gradient do not pay for them."""
        if self._grad_w is None:
            pr = self.params
            self._grad_w = (-pr.lambda1 * self.grid.wr2, -pr.lambda2 * self.grid.wr2,
                            -self.wrs, -pr.nu * self.whrs)
        return self._grad_w


@dataclass(frozen=True)
class Integrals:
    """The integrals of one state, and the functionals as algebra over them.

    ``A`` is the squared pair norm, ``B`` the sum of the critical integrals
    and ``C`` the coupling integral.  All three are homogeneous under
    positive rescaling, of degrees 2, p and q = alpha + beta, so the
    functionals of ``t * (u, v)`` follow from the integrals of ``(u, v)``.
    When the gradient was asked for, ``L``, ``F`` and ``G`` hold its linear,
    critical and coupling parts (rows u, v), of degrees 1, p - 1 and q - 1;
    ``G`` is None when the coupling vanishes identically.
    """

    params: ProblemParams
    A: float
    B: float
    C: float
    kinetic_u: float
    kinetic_v: float
    hardy_u: float
    hardy_v: float
    hs_u: float
    hs_v: float
    L: np.ndarray | None = None
    F: np.ndarray | None = None
    G: np.ndarray | None = None

    def energy(self, t: float = 1.0) -> float:
        """J(t u, t v) = t^2 A/2 - t^p B/p - nu t^q C."""
        pr = self.params
        p, q = pr.crit_exp, pr.alpha + pr.beta
        return 0.5 * t * t * self.A - t ** p * self.B / p - pr.nu * t ** q * self.C

    def residual(self, t: float = 1.0) -> float:
        """Psi(t u, t v) = t^2 A - t^p B - nu q t^q C."""
        pr = self.params
        p, q = pr.crit_exp, pr.alpha + pr.beta
        return t * t * self.A - t ** p * self.B - pr.nu * q * t ** q * self.C

    def scale(self) -> float:
        """Scale t putting t (u, v) on the constraint set: the root of
        residual(t) = 0, that is of A = t^(p-2) B + nu q t^(q-2) C."""
        if not 0.0 < self.A < math.inf:
            raise DegenerateInputError(f"pair norm squared {self.A} is not positive "
                                       f"and finite (inadmissible state)")
        pr = self.params
        return _solve_scale(self.A, self.B, self.C, pr.crit_exp, pr.alpha + pr.beta,
                            pr.nu)

    def gradient(self, t: float = 1.0) -> np.ndarray:
        """Coefficient-space gradient at t (u, v): t L + t^(p-1) F + t^(q-1) G.

        Rows are the u and v components (see :func:`gradient_coefficients`).
        """
        pr = self.params
        g = t * self.L + t ** (pr.crit_exp - 1.0) * self.F
        if self.G is not None:
            g += t ** (pr.alpha + pr.beta - 1.0) * self.G
        return g

    def constrained_energy(self, tol: float = 1e-6) -> float:
        """Energy through the on-constraint identity.

        On the constraint set the functional collapses to

            (2-s)/(2(N-s)) * (critical integrals)
            + nu (alpha+beta-2)/2 * coupling integral,

        which must agree with :meth:`energy` to rounding accuracy.
        """
        self._on_constraint(tol)
        pr = self.params
        return ((2.0 - pr.s) / (2.0 * (pr.N - pr.s)) * self.B
                + pr.nu * (pr.alpha + pr.beta - 2.0) / 2.0 * self.C)

    def second_variation_diag(self, tol: float = 1e-6) -> float:
        """Second variation along the state's own direction, on the constraint.

        Equals ``(2 - a - b) ||(u,v)||^2 + (a + b - p) (critical integrals)``
        with ``a + b`` the coupling exponent; strictly negative on the
        constraint set, which makes it a natural constraint.
        """
        self._on_constraint(tol)
        pr = self.params
        q = pr.alpha + pr.beta
        return (2.0 - q) * self.A + (q - pr.crit_exp) * self.B

    def _on_constraint(self, tol: float) -> None:
        """Refuse a state off the constraint set: one whose pair norm squared
        is not positive and finite (the origin, as :meth:`scale` refuses it),
        or with |Psi| > tol ||(u,v)||^2."""
        if not 0.0 < self.A < math.inf:
            raise DegenerateInputError(f"pair norm squared {self.A} is not positive "
                                       f"and finite: not on the constraint set")
        psi = self.residual()
        if abs(psi) > tol * self.A:
            raise PreconditionError(
                f"pair is off the constraint set: |Psi|/||.||^2 = {abs(psi) / self.A:.3e}")


def _solve_scale(A: float, B: float, C: float, p: float, q: float,
                 nu: float) -> float:
    """Root t of A = t^(p-2) B + nu q t^(q-2) C, refused unless it is a
    finite positive float."""
    x = power_root(A, ((p - 2.0, B), (q - 2.0, nu * q * C)))
    try:
        t = math.exp(x)
    except OverflowError:
        t = math.inf
    if not 0.0 < t < math.inf:
        raise NoProjectionError(
            f"power-sum root is not a finite positive float: log t = {x:.6g}")
    return t


def integrals(wt: Weights, u: np.ndarray, v: np.ndarray, positive: bool = False,
              grad: bool = False) -> Integrals:
    """One pass over the grid: every integral of (u, v), and the gradient.

    ``positive`` selects the truncated functional (positive parts in the
    nonlinear terms).  With ``grad`` the gradient of that functional is
    returned as well, split into its homogeneous parts (see
    :meth:`Integrals.gradient`); it reuses the power arrays, since
    x^(a-1) x = x^a.  An identically zero component has every term 0.0 and
    zero gradient rows, so it makes no pass over the grid: a one-component
    state costs one component.
    """
    pr = wt.params
    p, a, b = pr.crit_exp, pr.alpha, pr.beta
    du, kinetic_u, hardy_u, au, nz_u = _component(wt.grid, u, positive)
    dv, kinetic_v, hardy_v, av, nz_v = _component(wt.grid, v, positive)
    coupled = _coupled(nz_u, nz_v)
    hs_u, fu = _critical(wt, au, p, nz_u, grad)
    hs_v, fv = _critical(wt, av, p, nz_v, grad)
    coupling = 0.0
    if coupled:
        if grad:
            ua1, vb1 = au ** (a - 1), av ** (b - 1)
            ua, vb = ua1 * au, vb1 * av
        else:
            ua, vb = au ** a, av ** b
        coupling = float(wt.whrs @ (ua * vb))
    A = (kinetic_u - pr.lambda1 * hardy_u) + (kinetic_v - pr.lambda2 * hardy_v)
    L = F = G = None
    if grad:
        signs = None if positive else (u, v)
        hardy1, hardy2, crit, coup = wt._gradient_weights()
        L = np.empty((2, u.size))
        _linear_part(du, u, wt.grid.cc, hardy1, L[0])
        _linear_part(dv, v, wt.grid.cc, hardy2, L[1])
        F = _nonlinear_part(crit, (fu, fv), signs)
        if coupled:
            G = _nonlinear_part(coup, (a * ua1 * vb, b * ua * vb1), signs)
    return Integrals(pr, A, hs_u + hs_v, coupling, kinetic_u, kinetic_v,
                     hardy_u, hardy_v, hs_u, hs_v, L, F, G)


def _component(grid: RadialGrid, x: np.ndarray, positive: bool):
    """Differences, kinetic and Hardy integrals of one component, the base
    of its nonlinear terms (|x|, or its positive part when truncated) and
    whether that base is nonzero.  An identically zero component makes
    none of these passes; its raw values decide, as a negative component
    has no positive part but kinetic and Hardy terms."""
    if not x.any():
        return None, 0.0, 0.0, x, False
    dx = x[1:] - x[:-1]
    ax = np.maximum(x, 0.0) if positive else np.abs(x)
    return (dx, float(grid.cc @ (dx * dx)), float(grid.wr2 @ (x * x)), ax,
            bool(ax.any()))


def _coupled(u_nonzero: bool, v_nonzero: bool) -> bool:
    # alpha, beta > 1: the coupling and both of its gradient parts vanish
    # exactly when either component does, so a one-component state skips them
    return u_nonzero and v_nonzero


def _critical(wt: Weights, x: np.ndarray, p: float, nonzero: bool, grad: bool):
    """Critical integral of a nonnegative base x, with x^(p-1) for the
    gradient; 0.0 and None when x is zero, as pow() takes about four times
    longer on zeros than on other values."""
    if not nonzero:
        return 0.0, None
    if grad:
        f = x ** (p - 1)
        return float(wt.wrs @ (f * x)), f
    return float(wt.wrs @ x ** p), None


def _linear_part(du, u, cc, hardy, out: np.ndarray) -> None:
    # first variation of 1/2 ||u||_lam^2 along node functions, from the
    # Dirichlet cell terms cc du and the Hardy weights -lam wr2; boundary
    # slots zeroed (Dirichlet collars); du None is a zero component
    if du is None:
        out[:] = 0.0
        return
    y = cc * du
    np.multiply(hardy, u, out=out)
    out[:-1] -= y
    out[1:] += y
    out[0] = out[-1] = 0.0


def _nonlinear_part(w: np.ndarray, factors, signs) -> np.ndarray:
    # w f for both components, f taking the sign of the component unless the
    # functional is truncated (a factor None is a zero row); boundary slots
    # zeroed
    g = np.empty((2, w.size))
    for k, f in enumerate(factors):
        if f is None:
            g[k] = 0.0
            continue
        if signs is not None:
            f = np.copysign(f, signs[k], out=f)
        np.multiply(w, f, out=g[k])
    g[:, 0] = g[:, -1] = 0.0
    return g


def pair_integrals(pair: StatePair, params: ProblemParams, positive: bool = False,
                   grad: bool = False) -> Integrals:
    """:func:`integrals` of a pair, with weights built for this call."""
    return integrals(Weights(pair.grid, params), pair.u.values, pair.v.values,
                     positive, grad)


def lambda_norm_sq(u: RadialFunction, lam: float) -> float:
    """Squared shifted norm  int |grad u|^2 - lam int u^2/r^2: the ``A`` of
    the pair (u, 0) at lambda1 = lam, bit for bit, by :func:`integrals`'
    arithmetic on the grid's band (``cc``, ``wr2``)."""
    _check_domain(u.grid.N, lam, 0.0)
    _, kinetic, hardy, _, _ = _component(u.grid, u.values, False)
    return kinetic - lam * hardy


def pair_norm_sq(pair: StatePair, params: ProblemParams) -> float:
    """Squared product-space norm ||u||_{lam1}^2 + ||v||_{lam2}^2."""
    return pair_integrals(pair, params).A


def _terms(pair: StatePair, params: ProblemParams, positive: bool):
    """Critical and coupling integrals; `positive` selects truncated powers."""
    I = pair_integrals(pair, params, positive)
    return I.hs_u, I.hs_v, I.C


def energy(pair: StatePair, params: ProblemParams) -> EnergyBreakdown:
    """Evaluate the functional term by term."""
    I = pair_integrals(pair, params)
    return EnergyBreakdown(I.kinetic_u, I.kinetic_v, I.hardy_u, I.hardy_v,
                           I.hs_u, I.hs_v, I.C, I.energy())


def energy_positive(pair: StatePair, params: ProblemParams) -> float:
    """Truncated functional: positive parts in all nonlinear terms.

    Coincides with ``energy(...).total`` on nonnegative pairs; for states
    with negative excursions only the quadratic norm sees them.
    """
    return pair_integrals(pair, params, positive=True).energy()


def nehari_residual(pair: StatePair, params: ProblemParams, positive: bool = False) -> float:
    """Constraint functional Psi; zero on the natural constraint set."""
    return pair_integrals(pair, params, positive).residual()


def project_arrays(wt: Weights, u: np.ndarray, v: np.ndarray, positive: bool = False,
                   grad: bool = False) -> tuple[float, Integrals]:
    """Projection of raw node arrays: the scale t and the integrals of (u, v).

    ``t (u, v)`` lies on the constraint set; its energy, norm and (with
    ``grad``) gradient follow by homogeneity (``I.energy(t)``, ``t^2 I.A``,
    ``I.gradient(t)``) without another grid pass.
    """
    I = integrals(wt, u, v, positive, grad)
    return I.scale(), I


class Plane:
    """The plane {(a z1, b z2) : a, b >= 0} of two nonnegative profiles.

    The min-max chain starts on the plane of the two one-component profiles
    and stays on it where it is only resampled.  On that plane every
    integral is a monomial in (a, b): positive parts are the identity, and
    each integral is homogeneous in each component, so A = a^2 A1 + b^2 A2,
    B = a^p B1 + b^p B2 and C = a^alpha b^beta C12.  One :func:`integrals`
    pass over (z1, z2) and the volume norms W = sum w z^2 of both profiles
    are all that a state of the plane is measured from.  ``z`` is the
    (2, n) stack of the two profiles.
    """

    __slots__ = ("z", "_I", "_W")

    def __init__(self, wt: Weights, z1: np.ndarray, z2: np.ndarray):
        self.z = np.stack((z1, z2))
        self._I = integrals(wt, z1, z2, positive=True)
        self._W = ((self.z * self.z) @ wt.grid.w).tolist()

    def integrals(self, a: float, b: float) -> Integrals:
        """The integrals of (a z1, b z2), a, b >= 0, as
        ``integrals(wt, a z1, b z2, positive=True)`` gives them to rounding
        (without the gradient)."""
        I, pr = self._I, self._I.params
        a2, b2 = a * a, b * b
        ku, hu = a2 * I.kinetic_u, a2 * I.hardy_u
        kv, hv = b2 * I.kinetic_v, b2 * I.hardy_v
        su, sv = a ** pr.crit_exp * I.hs_u, b ** pr.crit_exp * I.hs_v
        A = (ku - pr.lambda1 * hu) + (kv - pr.lambda2 * hv)
        return Integrals(pr, A, su + sv, a ** pr.alpha * b ** pr.beta * I.C,
                         ku, kv, hu, hv, su, sv)

    def distance(self, dq: np.ndarray) -> float:
        """Volume norm sqrt(da^2 W1 + db^2 W2) of the difference (da z1,
        db z2) of two states of the plane, dq = (da, db): the
        :meth:`Weights.distance` of that difference, to rounding."""
        da, db = dq
        return math.sqrt(da * da * self._W[0] + db * db * self._W[1])


def project(pair: StatePair, params: ProblemParams,
            positive: bool = False) -> ProjectionResult:
    """Rescale a pair onto the constraint set (the truncated one with
    ``positive=True``)."""
    if pair.is_zero():
        raise DegenerateInputError("cannot project the zero pair")
    I = pair_integrals(pair, params, positive)
    t = I.scale()
    return ProjectionResult(t_star=t, projected=pair.scaled(t), residual=I.residual(t))


def gradient_coefficients(pair: StatePair, params: ProblemParams,
                          positive: bool = False):
    """Coefficient-space first variation (dJ/du_i, dJ/dv_i).

    Boundary slots are zeroed: the truncation radii are Dirichlet collars,
    so admissible variations vanish at the first and last node.  The dot
    product of the returned arrays with (phi, psi) node values equals the
    directional derivative of the energy along (phi, psi).
    """
    gu, gv = pair_integrals(pair, params, positive, grad=True).gradient()
    return gu, gv


def gradient_dual_norm(pair: StatePair, params: ProblemParams,
                       positive: bool = False) -> tuple[float, float]:
    """Gradient norm in the dual of the energy space.

    Returns ``(absolute, relative)`` where the relative value divides by the
    pair norm.  This is the natural residual measure: the volume-L2 norm of
    the strong residual diverges near the origin for singular profiles.
    """
    I = pair_integrals(pair, params, positive, grad=True)
    metric = PairMetric(pair.grid, params.lambda1, params.lambda2)
    dual = math.sqrt(metric.direction(I.gradient())[1])
    return dual, dual / math.sqrt(max(I.A, 1e-300))
