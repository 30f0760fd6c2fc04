"""The fused integrals kernel and the tridiagonal metric solve against
per-term and dense references."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsvar import (DescentOptions, HProfile, InvalidParameterError,
                   ProblemParams, RadialFunction, StatePair, energy,
                   energy_positive, extremal_pair, ground_state,
                   hardy_constant)
from hsvar.energy import Integrals, Weights, gradient_coefficients, integrals
from hsvar.grid import weighted_lp
from hsvar.operators import LambdaOperator
from hsvar.solvers import compact_bump
from conftest import (assembled_interior, cached_grid, gradient_seminorm,
                      interior_band, smooth_bump)

REL = 1e-13


# ---------------------------------------------------------------------------
# reference: one formula per term, one grid pass per term
# ---------------------------------------------------------------------------

def ref_terms(pair, params, positive):
    grid = pair.grid
    u, v = pair.u.values, pair.v.values
    if positive:
        au, av = np.maximum(u, 0.0), np.maximum(v, 0.0)
    else:
        au, av = np.abs(u), np.abs(v)
    p, rs = params.crit_exp, grid.r ** params.s
    hvals = params.h_profile(grid.r)
    return {
        "kinetic_u": gradient_seminorm(grid, pair.u),
        "kinetic_v": gradient_seminorm(grid, pair.v),
        "hardy_u": weighted_lp(grid, pair.u, 2.0, 2.0),
        "hardy_v": weighted_lp(grid, pair.v, 2.0, 2.0),
        "hs_u": float(np.dot(grid.w, au ** p / rs)),
        "hs_v": float(np.dot(grid.w, av ** p / rs)),
        "coupling": float(np.dot(grid.w, hvals * au ** params.alpha
                                 * av ** params.beta / rs)),
    }


def ref_gradient(pair, params, positive):
    grid = pair.grid
    u, v = pair.u.values, pair.v.values
    p, alpha, beta, nu = params.crit_exp, params.alpha, params.beta, params.nu
    rs = grid.r ** params.s
    hvals = params.h_profile(grid.r)

    def signed_power(x, q):
        return np.sign(x) * np.abs(x) ** (q - 1)

    def kinetic(x):
        y = grid.cell_w * np.diff(x) / grid.dt ** 2
        out = np.zeros_like(x)
        out[:-1] -= y
        out[1:] += y
        return out

    if positive:
        au, av = np.maximum(u, 0.0), np.maximum(v, 0.0)
        fu, fv = au ** (p - 1), av ** (p - 1)
        cu = au ** (alpha - 1) * av ** beta
        cv = au ** alpha * av ** (beta - 1)
    else:
        fu, fv = signed_power(u, p), signed_power(v, p)
        cu = signed_power(u, alpha) * np.abs(v) ** beta
        cv = np.abs(u) ** alpha * signed_power(v, beta)
    gu = (kinetic(u) - params.lambda1 * grid.w * u / grid.r ** 2
          - grid.w * fu / rs - nu * alpha * grid.w * hvals * cu / rs)
    gv = (kinetic(v) - params.lambda2 * grid.w * v / grid.r ** 2
          - grid.w * fv / rs - nu * beta * grid.w * hvals * cv / rs)
    gu[0] = gu[-1] = gv[0] = gv[-1] = 0.0
    return gu, gv


CASES = {
    "decoupled": ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0),
    "coupled_bump_h": ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.6, 0.8,
                                    h_profile=HProfile("bump", p_exp=2, q_exp=3)),
    "n3_constant_h": ProblemParams(3, 0.5, 0.1, 0.15, 2.2, 2.2, 0.5,
                                   h_profile=HProfile("constant", c=1.7)),
}


def states(params, seed):
    """A signed pair, a nonnegative pair and a one-component pair (v = 0)."""
    grid = cached_grid(params.N)
    rng = np.random.default_rng(seed)
    signed = StatePair(smooth_bump(grid, rng), smooth_bump(grid, rng))
    positive = StatePair(
        RadialFunction(grid, np.abs(smooth_bump(grid, rng).values)),
        RadialFunction(grid, np.abs(smooth_bump(grid, rng).values)))
    one = StatePair(positive.u, RadialFunction.zero(grid))
    return {"signed": signed, "positive": positive, "v_zero": one}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("positive", [False, True])
def test_fused_integrals_match_per_term_formulas(case, positive):
    params = CASES[case]
    for seed in range(3):
        for name, pair in states(params, seed).items():
            wt = Weights(pair.grid, params)
            got = integrals(wt, pair.u.values, pair.v.values, positive)
            ref = ref_terms(pair, params, positive)
            for key, val in ref.items():
                mine = got.C if key == "coupling" else getattr(got, key)
                assert mine == pytest.approx(val, rel=REL, abs=0.0), (name, key)
            A = ((ref["kinetic_u"] - params.lambda1 * ref["hardy_u"])
                 + (ref["kinetic_v"] - params.lambda2 * ref["hardy_v"]))
            assert got.A == pytest.approx(A, rel=REL), name
            assert got.B == pytest.approx(ref["hs_u"] + ref["hs_v"], rel=REL, abs=0.0)
            if name == "v_zero":
                assert got.hs_v == got.C == got.kinetic_v == 0.0


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("positive", [False, True])
def test_fused_gradient_matches_per_term_formulas(case, positive):
    params = CASES[case]
    for seed in range(3):
        for name, pair in states(params, seed).items():
            wt = Weights(pair.grid, params)
            with_grad = integrals(wt, pair.u.values, pair.v.values, positive, grad=True)
            without = integrals(wt, pair.u.values, pair.v.values, positive)
            for mine, ref in zip(with_grad.gradient(),
                                 ref_gradient(pair, params, positive)):
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(mine - ref)) <= REL * scale, name
            # the power arrays reused for the gradient give the same integrals
            for key in ("A", "B", "C"):
                assert getattr(with_grad, key) == pytest.approx(
                    getattr(without, key), rel=REL, abs=0.0), (name, key)
            gu, gv = gradient_coefficients(pair, params, positive=positive)
            assert np.array_equal(np.stack([gu, gv]), with_grad.gradient())


def test_energy_breakdown_matches_per_term_formulas():
    params = CASES["coupled_bump_h"]
    pair = states(params, 7)["signed"]
    ref = ref_terms(pair, params, positive=False)
    bd = energy(pair, params)
    for key, val in ref.items():
        assert getattr(bd, key) == pytest.approx(val, rel=REL, abs=0.0)
    total = (0.5 * (ref["kinetic_u"] - params.lambda1 * ref["hardy_u"])
             + 0.5 * (ref["kinetic_v"] - params.lambda2 * ref["hardy_v"])
             - (ref["hs_u"] + ref["hs_v"]) / params.crit_exp
             - params.nu * ref["coupling"])
    assert bd.total == pytest.approx(total, rel=REL)


# ---------------------------------------------------------------------------
# homogeneity: J(t x) from the integrals of x
# ---------------------------------------------------------------------------

bump = st.tuples(st.floats(math.log(0.05), math.log(20.0)),   # center
                 st.floats(1.0, 2.5),                          # half width
                 st.floats(0.3, 1.5))                          # amplitude


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.1, 10.0), bu=bump, bv=bump, nu=st.floats(0.0, 2.0),
       flip=st.booleans())
def test_energy_along_ray_is_homogeneous(t, bu, bv, nu, flip):
    params = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.6, nu,
                           h_profile=HProfile("bump", p_exp=2, q_exp=3))
    grid = cached_grid(4)
    u = compact_bump(grid.t, *bu)
    v = compact_bump(grid.t, *bv) * (-1.0 if flip else 1.0)
    I = integrals(Weights(grid, params), u, v, positive=True)
    direct = energy_positive(StatePair(RadialFunction(grid, t * u),
                                       RadialFunction(grid, t * v)), params)
    p, q = params.crit_exp, params.alpha + params.beta
    size = 0.5 * t * t * I.A + t ** p * I.B / p + nu * t ** q * I.C
    assert abs(I.energy(t) - direct) <= 1e-12 * size


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.1, 10.0), bu=bump, bv=bump,
       nu=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       signed=st.booleans(), positive=st.booleans(), v_zero=st.booleans())
def test_gradient_along_ray_is_homogeneous(t, bu, bv, nu, signed, positive, v_zero):
    params = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.6, nu,
                           h_profile=HProfile("bump", p_exp=2, q_exp=3))
    grid = cached_grid(4)
    wt = Weights(grid, params)
    u = compact_bump(grid.t, *bu)
    v = np.zeros_like(u) if v_zero else compact_bump(grid.t, *bv)
    if signed:
        u = u - compact_bump(grid.t, bu[0] + 1.0, bu[1], 0.5 * bu[2])
        v = -v
    ray = integrals(wt, u, v, positive, grad=True).gradient(t)
    direct = integrals(wt, t * u, t * v, positive, grad=True).gradient()
    assert np.linalg.norm(ray - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("positive", [False, True])
def test_one_component_skip_is_exact(monkeypatch, case, positive):
    # alpha, beta > 1: the skipped coupling powers of a state with a zero
    # component are exactly zero, so skipping them changes no result
    params = CASES[case]
    energy_mod = importlib.import_module("hsvar.energy")
    for seed in range(2):
        one = states(params, seed)["v_zero"]
        for u, v in ((one.u.values, one.v.values), (one.v.values, one.u.values)):
            wt = Weights(one.grid, params)
            skipped = integrals(wt, u, v, positive, grad=True)
            assert skipped.G is None
            with monkeypatch.context() as m:
                m.setattr(energy_mod, "_coupled", lambda au, av: True)
                full = integrals(wt, u, v, positive, grad=True)
            assert full.G is not None
            for key in ("A", "B", "C", "kinetic_u", "kinetic_v", "hardy_u",
                        "hardy_v", "hs_u", "hs_v"):
                assert getattr(skipped, key) == getattr(full, key), key
            for t in (1.0, 0.3, 2.5):
                assert skipped.energy(t) == full.energy(t)
                assert np.array_equal(skipped.gradient(t), full.gradient(t))


def explicit_integrals(wt, u, v, positive=False, grad=False):
    """The integrals kernel with every grid pass made, a zero component's
    included, in the kernel's own arithmetic."""
    pr = wt.params
    p, a, b = pr.crit_exp, pr.alpha, pr.beta
    du, dv = u[1:] - u[:-1], v[1:] - v[:-1]
    kin = [float(wt.grid.cc @ (d * d)) for d in (du, dv)]
    hardy = [float(wt.grid.wr2 @ (x * x)) for x in (u, v)]
    au, av = (np.maximum(x, 0.0) if positive else np.abs(x) for x in (u, v))
    f = [x ** (p - 1) for x in (au, av)]
    hs = [float(wt.wrs @ (fx * x)) if grad else float(wt.wrs @ x ** p)
          for fx, x in zip(f, (au, av))]
    coupled = au.any() and av.any()
    ua1, vb1 = au ** (a - 1), av ** (b - 1)
    ua, vb = (ua1 * au, vb1 * av) if grad else (au ** a, av ** b)
    C = float(wt.whrs @ (ua * vb)) if coupled else 0.0
    A = (kin[0] - pr.lambda1 * hardy[0]) + (kin[1] - pr.lambda2 * hardy[1])
    L = F = G = None
    if grad:
        def rows(w, factors):
            out = np.stack([w * (fx if positive else np.copysign(fx, x))
                            for fx, x in zip(factors, (u, v))])
            out[:, 0] = out[:, -1] = 0.0
            return out

        lams = (pr.lambda1, pr.lambda2)
        L = np.stack([-lam * wt.grid.wr2 * x for lam, x in zip(lams, (u, v))])
        for row, d in zip(L, (du, dv)):
            row[:-1] -= wt.grid.cc * d
            row[1:] += wt.grid.cc * d
        L[:, 0] = L[:, -1] = 0.0
        F = rows(-wt.wrs, f)
        if coupled:
            G = rows(-pr.nu * wt.whrs, (a * ua1 * vb, b * ua * vb1))
    return Integrals(pr, A, hs[0] + hs[1], C, kin[0], kin[1], hardy[0],
                     hardy[1], hs[0], hs[1], L, F, G)


def assert_same_integrals(got, ref):
    for f in dataclasses.fields(Integrals):
        x, y = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("grad", [False, True])
def test_a_zero_component_is_exact_without_its_passes(case, positive, grad):
    # the skipped passes of an identically zero component give 0.0 and zero
    # rows; the swapped call, on swapped parameters, is the mirror image
    params = CASES[case]
    wt, wt_swapped = Weights(cached_grid(params.N), params), Weights(
        cached_grid(params.N), params.swapped())
    for seed in range(2):
        for name, pair in states(params, seed).items():
            u = pair.u.values
            got = integrals(wt, u, 0 * u, positive, grad)
            assert_same_integrals(got, explicit_integrals(wt, u, 0 * u,
                                                          positive, grad))
            mirror = integrals(wt_swapped, 0 * u, u, positive, grad)
            assert_same_integrals(mirror, explicit_integrals(
                wt_swapped, 0 * u, u, positive, grad))
            for x, y in (("kinetic_u", "kinetic_v"), ("hardy_u", "hardy_v"),
                         ("hs_u", "hs_v")):
                assert getattr(got, x) == getattr(mirror, y), (name, x)
                assert getattr(got, y) == getattr(mirror, x) == 0.0, (name, y)
            assert (got.A, got.B, got.C) == (mirror.A, mirror.B, mirror.C)
            if grad:
                for part in ("L", "F"):
                    assert np.array_equal(getattr(got, part)[::-1],
                                          getattr(mirror, part)), (name, part)
                assert np.array_equal(got.gradient(1.7)[::-1],
                                      mirror.gradient(1.7))


@pytest.mark.parametrize("grad", [False, True])
def test_a_negative_component_keeps_its_quadratic_terms(grad):
    # truncated, a negative component has no positive part, but its kinetic
    # and Hardy terms, and their gradient row, are not skipped
    params = CASES["decoupled"]
    wt = Weights(cached_grid(4), params)
    u = -np.abs(states(params, 0)["positive"].u.values)
    got = integrals(wt, u, 0 * u, positive=True, grad=grad)
    assert_same_integrals(got, explicit_integrals(wt, u, 0 * u, True, grad))
    assert got.kinetic_u > 0.0 and got.hardy_u > 0.0 and got.A > 0.0
    assert got.hs_u == got.B == 0.0
    if grad:
        assert np.any(got.L[0]) and not np.any(got.F)


def test_descent_with_every_pass_made_is_bit_identical(monkeypatch):
    # the criterion-6 N=4 start: energy, iterations and trials of a descent
    # whose zero component skips its passes equal those of one that makes
    # them
    grid = cached_grid(4)
    params = ProblemParams(4, 1.0, 0.3, 0.5 * hardy_constant(4), 1.3, 1.3, 0.0)
    rng = np.random.default_rng(6)
    base = extremal_pair(params, grid, "first")
    scale = float(np.interp(1.0, grid.r, base.u.values))
    u = np.abs(base.u.values + 0.25 * scale * smooth_bump(grid, rng).values
               + 0.15 * scale * smooth_bump(grid, rng).values)
    init = StatePair(RadialFunction(grid, u), RadialFunction.zero(grid))
    opts = DescentOptions(tol_grad=1e-6, max_iter=6000)
    skipped = ground_state(params, init, opts)
    monkeypatch.setattr(importlib.import_module("hsvar.energy"), "integrals",
                        explicit_integrals)
    explicit = ground_state(params, init, opts)
    assert skipped.stop_reason == explicit.stop_reason == "tolerance"
    assert skipped.energy == explicit.energy
    assert skipped.iterations == explicit.iterations
    assert skipped.extra["trials"] == explicit.extra["trials"]
    assert np.array_equal(skipped.profiles.u.values, explicit.profiles.u.values)


# ---------------------------------------------------------------------------
# tridiagonal metric solve against a dense solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,lam_frac", [(3, 0.9), (4, 0.3), (4, 1.05), (5, 0.9)])
def test_tridiagonal_solve_matches_dense(N, lam_frac):
    # 512 nodes keep the dense matrix small
    grid = cached_grid(N, n_nodes=512)
    lam = lam_frac * hardy_constant(N)
    if lam_frac > 1.0:
        # above the Hardy threshold the operator is refused, not backed off
        with pytest.raises(InvalidParameterError):
            LambdaOperator(grid, lam)
        return
    op = LambdaOperator(grid, lam)
    M = assembled_interior(grid, lam)
    rng = np.random.default_rng(N)
    rhs = grid.w[1:-1] * (compact_bump(grid.t, rng.uniform(-2, 2), 2.0, 1.0)[1:-1]
                          + 1e-3 * rng.normal(size=grid.n - 2))
    d = op.solve(rhs)
    assert np.linalg.norm(M @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)
    # the unscaled dense solve loses digits to the coefficients' range, so
    # the dense reference is solved with Jacobi scaling
    s = 1.0 / np.sqrt(np.diag(M))
    dense = s * np.linalg.solve(M * s[:, None] * s[None, :], s * rhs)
    assert np.linalg.norm(d - dense) <= 1e-10 * np.linalg.norm(dense)
    assert not np.any(op.solve(np.zeros(grid.n - 2)))


@pytest.mark.parametrize("N,r_max,n_nodes", [(3, 1e100, 512), (5, 1e50, 2048)])
@pytest.mark.parametrize("lam_frac", [0.1, 0.99])
def test_tridiagonal_solve_is_backward_stable_on_extreme_windows(N, r_max, n_nodes,
                                                                 lam_frac):
    # the band spans up to 1e-148..1e152 here and the right-hand side
    # 1e-301..1e296, so normwise checks and the dense reference overflow;
    # the unscaled LDL^T solve is componentwise backward stable
    grid = cached_grid(N, 1.0 / r_max, r_max, n_nodes)
    lam = lam_frac * hardy_constant(N)
    main, off = interior_band(grid, lam)
    rng = np.random.default_rng(N)
    b = grid.w[1:-1] * (compact_bump(grid.t, rng.uniform(-2, 2), 2.0, 1.0)[1:-1]
                        + 1e-3 * rng.normal(size=grid.n - 2))
    x = LambdaOperator(grid, lam).solve(b)
    assert np.all(np.isfinite(x))
    ax, size = main * x, np.abs(main * x) + np.abs(b)
    ax[:-1] += off * x[1:]
    ax[1:] += off * x[:-1]
    size[:-1] += np.abs(off * x[1:])
    size[1:] += np.abs(off * x[:-1])
    assert np.max(np.abs(ax - b) / size) <= 1e-15


def test_operator_without_spd_regularization_raises():
    # lambda far above the Hardy threshold is rejected, not backed off
    with pytest.raises(InvalidParameterError):
        LambdaOperator(cached_grid(4, n_nodes=512), 2.0 * hardy_constant(4))
