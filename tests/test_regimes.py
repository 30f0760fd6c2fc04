"""Regime classification and the scaling-set infimum."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hsvar import (HProfile, InvalidParameterError, LemmaInstance,
                   ProblemParams, algebraic_inf, classify, critical_exponent,
                   semitrivial_probe, small_nu_threshold)
from hsvar.params import order
from conftest import admissible_params, cached_grid, mp_power_root


def make_params(alpha, beta, l1=0.3, l2=0.5, N=4, s=1.0, nu=0.1, h=None):
    return ProblemParams(N, s, l1, l2, alpha, beta, nu,
                         h_profile=h or HProfile())


class TestClassify:
    def test_small_exponents_trigger_mixed_case(self):
        rep = classify(make_params(1.4, 1.4, l1=0.3, l2=0.5))
        # lambda1 <= lambda2 with alpha < 2
        assert rep.thm_mixed["case"] in ("ii", "both")
        assert rep.thm_mixed["applicable"]
        assert rep.subcritical

    def test_large_exponents_small_nu_case(self):
        rep = classify(ProblemParams(3, 0.5, 0.05, 0.1, 2.5, 2.4, 0.01))
        assert rep.thm_small_nu["case"] == "iii:second"
        assert rep.thm_small_nu["requires"] == "small nu"

    def test_minmax_case_i(self):
        rep = classify(ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.01,
                                     h_profile=HProfile("bump", p_exp=2, q_exp=2)))
        # alpha >= 2 and the separation window from the worked example holds
        assert rep.thm_minmax["case"] == "i"
        assert rep.thm_minmax["cond_i"]

    def test_boundary_at_equal_lambdas(self):
        rep = classify(ProblemParams(3, 0.5, 0.1, 0.1, 2.4, 2.4, 0.1))
        assert rep.thm_small_nu["case"] == "boundary"
        assert not rep.thm_small_nu["applicable"]

    def test_pure_function(self):
        pr = make_params(1.5, 1.5)
        assert classify(pr).to_dict() == classify(pr).to_dict()

    def test_critical_coupling_needs_vanishing_h(self):
        # alpha+beta equal to the critical exponent
        pr = make_params(1.5, 1.5, N=4, s=1.0,
                         h=HProfile("bump", p_exp=2, q_exp=2))
        rep = classify(pr)
        assert rep.critical and not rep.subcritical
        assert rep.thm_large_nu["applicable"]
        pr2 = make_params(1.5, 1.5, N=4, s=1.0)
        rep2 = classify(pr2)
        assert rep2.critical and not rep2.thm_large_nu["applicable"]

    def test_sums_admitted_above_the_tie_are_critical(self):
        # construction refuses alpha + beta above p in params.order; the tie
        # admits sums up to 1e-12 p above p, which count as critical, so no
        # admitted tuple is neither critical nor subcritical
        for N, s in ((3, 0.0), (3, 0.5), (4, 1.0), (5, 0.3)):
            p = 2.0 * (N - s) / (N - 2)
            alpha = 1.3
            beta = p * (1 + 0.99e-12) - alpha
            above = 0
            while True:
                try:
                    pr = make_params(alpha, beta, l1=0.05, l2=0.1, N=N, s=s)
                except InvalidParameterError:
                    break
                rep = classify(pr)
                assert rep.critical and not rep.subcritical
                assert order(alpha + beta, p) <= 0
                above += alpha + beta > p
                beta = float(np.nextafter(beta, np.inf))
            assert above >= 1
            # the first sum refused is the first above p in the order
            assert order(alpha + beta, p) > 0

    @pytest.mark.parametrize("overrides,cases", [
        # 0.1 * 3 is 0.3 one rounding up: the levels coincide
        (dict(lambda1=0.1 * 3, lambda2=0.3), ("boundary", "ii", "none")),
        (dict(lambda1=0.3, lambda2=0.3), ("boundary", "ii", "none")),
        (dict(alpha=math.nextafter(2.0, -math.inf), beta=1.2, lambda2=0.3),
         ("i", "ii", "i")),
        (dict(alpha=2.0, beta=1.2, lambda2=0.3), ("i", "ii", "i")),
    ])
    def test_a_value_one_rounding_off_a_boundary_sits_on_it(self, overrides, cases):
        pr = replace(ProblemParams(4, 0.5, 0.1, 0.3, 1.2, 2.2, 0.5), **overrides)
        rep = classify(pr)
        assert (rep.thm_small_nu["case"], rep.thm_mixed["case"],
                rep.thm_minmax["case"]) == cases


@pytest.mark.parametrize("a,b,sign", [
    (2.0, 2.0, 0), (math.nextafter(2.0, math.inf), 2.0, 0),
    (2.0 + 1.9e-12, 2.0, 0), (2.0 + 2.1e-12, 2.0, 1), (2.0 - 3e-12, 2.0, -1),
    (0.1 * 3, 0.3, 0), (0.1, 0.3, -1), (1e-13, 0.0, 0), (2e-12, 0.0, 1),
    (math.inf, 2.0, 1), (math.inf, 1e308, 1)])
def test_order_ties_within_1e_12_of_the_larger_magnitude(a, b, sign):
    assert order(a, b) == sign
    assert order(b, a) == -sign


@pytest.mark.parametrize("alpha,beta", [(math.inf, 1.4), (1.4, math.inf),
                                        (1e308, 1e308), (1e300, 1.4)])
def test_an_infinite_sum_is_refused(alpha, beta):
    # the tie 1e-12 max(1, |a|, |b|) is infinite at alpha + beta = inf
    with pytest.raises(InvalidParameterError, match=r"alpha\+beta"):
        make_params(alpha, beta)


def _orders(pr):
    """Every ``order`` that classify and the probe read: alpha and beta
    against 2, alpha + beta against p, lambda1 against lambda2."""
    return (order(pr.alpha, 2.0), order(pr.beta, 2.0),
            order(pr.alpha + pr.beta, pr.crit_exp), order(pr.lambda1, pr.lambda2))


def _twin(pr, to):
    """pr with each of alpha, beta, lambda1 and lambda2 moved by one
    rounding, toward the matching entry of ``to``."""
    names = ("alpha", "beta", "lambda1", "lambda2")
    return replace(pr, **{k: math.nextafter(getattr(pr, k), t)
                          for k, t in zip(names, to)})


@settings(max_examples=60, deadline=None)
@given(pr=admissible_params(),
       to=st.lists(st.sampled_from([-math.inf, math.inf]), min_size=4, max_size=4))
def test_a_rounding_does_not_change_the_answer(pr, to):
    # a twin one rounding away that keeps every order of the tuple, inside
    # a tie band or off it, has the same answer; one that crosses the edge
    # of a tie band changes an order, and may change the answer (see
    # test_a_rounding_across_the_edge_of_a_tie_band_changes_the_answer)
    try:
        twin = _twin(pr, to)
    except InvalidParameterError:
        assume(False)       # the sum moved above p, to where it is refused
    assume(_orders(twin) == _orders(pr))

    def answer(pr):
        rep = classify(pr).to_dict()
        del rep["levels"]
        grid = cached_grid(pr.N, 1e-6, 1e6, 256)
        return rep, [semitrivial_probe(pr, which, grid).classification
                     for which in ("first", "second")]

    assert answer(twin) == answer(pr)


def test_a_rounding_across_the_edge_of_a_tie_band_changes_the_answer():
    # beta - 2 = -2.0002e-12 lies outside the tie band 1e-12 max(1, |beta|,
    # 2) = 2e-12, and the twin's -1.99996e-12 inside it: any tie band has an
    # edge, and the answer changes across it.  Hypothesis drew this twin
    pr = ProblemParams(3, 1e-12, 0.125, 0.125, 4.0, 1.9999999999979998, 0.0)
    twin = _twin(pr, [-math.inf, math.inf, -math.inf, -math.inf])
    assert _orders(pr) == (1, -1, 0, 0) and _orders(twin) == (1, 0, 0, 0)
    assert classify(pr).thm_mixed["branch"] == "beta<2"
    assert classify(twin).thm_mixed["branch"] == "beta=2+large nu"


@settings(max_examples=300, deadline=None)
@given(pr=admissible_params())
def test_each_applicable_flag_is_its_case_test(pr):
    rep = classify(pr)
    q, p = pr.alpha + pr.beta, pr.crit_exp
    assert rep.subcritical != rep.critical
    assert rep.critical == (p - q <= 1e-12 * p)
    assert rep.thm_large_nu["applicable"] == (rep.subcritical or rep.h_vanishes)
    assert rep.thm_mixed["applicable"] == (rep.thm_mixed["case"] != "none")
    assert rep.thm_small_nu["applicable"] == (
        rep.thm_small_nu["case"] not in ("none", "boundary"))
    assert rep.thm_minmax["applicable"] == (rep.thm_minmax["case"] != "none")


@settings(max_examples=200, deadline=None)
@given(pr=admissible_params(),
       nu=st.floats(0.0, allow_nan=False, allow_infinity=False))
def test_classify_does_not_read_nu(pr, nu):
    # a sweep classifies each nu-free tuple once and reuses it for every nu
    assert classify(replace(pr, nu=nu)) == classify(pr)


def _grid_inf(inst: LemmaInstance):
    """Brute-force reference: the least point of a log grid of sigma over
    [1e-6, 1e3] times the decoupled infimum that lies in the scaling set
    (None when none does), and the grid's cell ratio."""
    x0 = inst.decoupled_inf
    grid = np.geomspace(1e-6 * x0, 1e3 * x0, 20000)
    p = critical_exponent(inst.N, inst.s)
    members = grid[inst.A * grid ** (2.0 / p)
                   < grid + inst.B * inst.nu * grid ** (inst.theta / p)]
    return (float(members.min()) if members.size else None), grid[1] / grid[0]


def _root_tol(inst: LemmaInstance, t: float) -> float:
    """Relative accuracy of a double-precision root t of sigma^a + B nu
    sigma^b = A: a residual known to eps moves log t by eps / slope, the
    slope of the relative residual in log t, as for the projection scale.
    At theta = 2 the slope is a (A - B nu) / A, so this includes the
    cancellation in A - B nu."""
    a = (2.0 - inst.s) / (inst.N - inst.s)
    b = (inst.theta - 2.0) / critical_exponent(inst.N, inst.s)
    slope = (a * t ** a + b * inst.B * inst.nu * t ** b) / inst.A
    eps = np.finfo(float).eps
    return 32 * eps * (1.0 + abs(math.log(t))) / min(1.0, slope)


def _mp_inf(inst: LemmaInstance):
    """The scaling-set infimum to 40 digits: the root of
    sigma^a + B nu sigma^b = A, 0 when theta = 2 and B nu >= A."""
    with mpmath.workdps(50):
        A, B, theta, s, N, nu = map(mpmath.mpf, (inst.A, inst.B, inst.theta,
                                                 inst.s, inst.N, inst.nu))
        a, b = (2 - s) / (N - s), (theta - 2) / (2 * (N - s) / (N - 2))
        if b == 0:
            return mpmath.mpf(0) if B * nu >= A else (A - B * nu) ** (1 / a)
        return mp_power_root(A, ((a, 1), (b, B * nu)))[0]


def _mp_threshold(inst: LemmaInstance, eps: float):
    """nu_eps = A (1 - (1-eps)^a) / (B ((1-eps) x0)^b) to 40 digits."""
    with mpmath.workdps(50):
        A, B, theta, s, N, eps = map(mpmath.mpf, (inst.A, inst.B, inst.theta,
                                                  inst.s, inst.N, eps))
        a, b = (2 - s) / (N - s), (theta - 2) / (2 * (N - s) / (N - 2))
        # 1 - (1-eps)^a by expm1 and log1p, which keep a subnormal eps
        gap = -mpmath.expm1(a * mpmath.log1p(-eps))
        return A * gap / (B * ((1 - eps) * A ** (1 / a)) ** b)


_log10 = st.floats(-3.0, 3.0).map(lambda k: 10.0 ** k)
lemma_instances = st.builds(
    LemmaInstance, N=st.integers(3, 6), s=st.floats(0.0, 1.5), A=_log10, B=_log10,
    theta=st.one_of(st.just(2.0), st.floats(2.0, 10.0, exclude_min=True)),
    nu=st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda k: 10.0 ** k)))


@settings(max_examples=200, deadline=None)
@given(inst=lemma_instances)
def test_inf_matches_a_40_digit_root(inst):
    T = _mp_inf(inst)
    assume(T is not None)
    t = algebraic_inf(inst)
    if T == 0:
        # theta = 2 and B nu >= A: every sigma > 0 is in the set
        assert t == 0.0
    else:
        assert abs(float(t / T) - 1.0) <= _root_tol(inst, t)


@settings(max_examples=200, deadline=None)
@given(inst=lemma_instances, eps=st.floats(-12.0, -0.005).map(lambda k: 10.0 ** k))
def test_threshold_matches_the_40_digit_closed_form(inst, eps):
    nu_eps = small_nu_threshold(inst, eps)
    assert abs(float(nu_eps / _mp_threshold(inst, eps)) - 1.0) <= 1e-13
    if eps >= 0.01 and nu_eps < 1e300:
        # the supremum: the bound holds just below nu_eps and fails just above
        target = (1 - eps) * inst.decoupled_inf
        assert algebraic_inf(replace(inst, nu=nu_eps * (1 - 1e-9))) > target
        assert algebraic_inf(replace(inst, nu=nu_eps * (1 + 1e-9))) <= target


@settings(max_examples=200, deadline=None)
@given(inst=lemma_instances, up=st.floats(1.0, 1e3))
def test_inf_is_monotone_and_below_the_decoupled_inf(inst, up):
    t = algebraic_inf(inst)
    assert t <= inst.decoupled_inf
    # non-increasing in nu, non-decreasing in A, up to the root's accuracy
    slack = 1.0 + (_root_tol(inst, t) if t > 0 else 0.0)
    assert algebraic_inf(replace(inst, nu=inst.nu * up)) <= t * slack
    assume(inst.A * up <= 1e3)
    assert algebraic_inf(replace(inst, A=inst.A * up)) * slack >= t


@settings(max_examples=200, deadline=None)
@given(inst=lemma_instances, over=st.floats(1.01, 1e6),
       thetas=st.lists(st.floats(2.0, 2.1), min_size=2, max_size=2))
def test_inf_is_continuous_just_above_theta_2(inst, over, thetas):
    # B nu > A: the infimum is 0.0 at theta = 2, and just above 2 the root
    # can lie below the float range, where it is 0.0 too, not an error
    inst = replace(inst, nu=over * inst.A / inst.B)
    assert algebraic_inf(replace(inst, theta=2.0)) == 0.0
    lo, hi = (replace(inst, theta=th) for th in sorted(thetas))
    t_lo, t_hi = algebraic_inf(lo), algebraic_inf(hi)
    # non-decreasing in theta (the root lies below 1), up to its accuracy
    slack = 1.0 + sum(_root_tol(i, t) for i, t in ((lo, t_lo), (hi, t_hi)) if t > 0)
    assert t_lo <= t_hi * slack


@settings(max_examples=60, deadline=None)
@given(inst=lemma_instances)
def test_grid_value_lies_one_cell_above_the_root(inst):
    t = algebraic_inf(inst)
    g, cell = _grid_inf(inst)
    x0 = inst.decoupled_inf
    assume(1e-6 * x0 < t)
    tol = _root_tol(inst, t)
    assert t * (1 - tol) <= g <= t * cell * (1 + tol)


class TestAlgebraicInf:
    def test_decoupled_exact(self):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=0.0)
        assert algebraic_inf(inst) == pytest.approx(1.0, rel=1e-3)

    def test_decoupled_random_within_one_cell(self):
        # the root is the decoupled infimum itself; the grid's least member
        # lies within one cell above it
        rng = np.random.default_rng(0)
        for _ in range(100):
            N = int(rng.integers(3, 7))
            s = rng.uniform(0.0, 1.5)
            A = rng.uniform(0.2, 5.0)
            inst = LemmaInstance(A=A, B=1.0, theta=2.0, s=s, N=N, nu=0.0)
            inf_val, cell = _grid_inf(inst)
            assert algebraic_inf(inst) == inst.decoupled_inf
            assert inst.decoupled_inf <= inf_val <= inst.decoupled_inf * cell

    def test_small_nu_keeps_inf_close(self):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=1e-6)
        assert algebraic_inf(inst) >= (1 - 1e-2) * 1.0

    def test_monotone_in_nu(self):
        vals = []
        for nu in np.geomspace(1e-8, 10.0, 10):
            inst = LemmaInstance(A=1.3, B=0.7, theta=2.5, s=0.5, N=4, nu=float(nu))
            vals.append(algebraic_inf(inst))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_A(self):
        vals = []
        for A in np.linspace(0.5, 3.0, 8):
            inst = LemmaInstance(A=float(A), B=1.0, theta=2.5, s=0.5, N=4, nu=1e-3)
            vals.append(algebraic_inf(inst))
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_whole_half_line_has_inf_zero(self):
        # theta = 2 and B nu >= A: every sigma > 0 is in the set
        inst = LemmaInstance(A=1.0, B=1.0, theta=2.0, s=0.0, N=4, nu=2.0)
        assert algebraic_inf(inst) == 0.0
        assert algebraic_inf(replace(inst, nu=1.0)) == 0.0

    def test_large_root_has_no_overflow(self):
        # the sigma grid's power terms used to overflow (a RuntimeWarning,
        # an error under this suite's filter) and report 1e194
        inst = LemmaInstance(A=1e100, B=1.0, theta=50.0, s=0.0, N=4, nu=1.0)
        assert algebraic_inf(inst) == pytest.approx(2.1544346900319e8, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LemmaInstance(A=-1.0, B=1.0, theta=2.0, s=0.5, N=4)
        with pytest.raises(InvalidParameterError):
            LemmaInstance(A=1.0, B=1.0, theta=1.5, s=0.5, N=4)

    @pytest.mark.parametrize("field,value", [
        ("A", math.inf), ("B", math.inf), ("theta", math.inf), ("s", math.inf),
        ("nu", math.inf), ("A", math.nan), ("B", math.nan), ("nu", math.nan),
        # finite A whose decoupled infimum A^((N-s)/(2-s)) over- or underflows
        ("A", 1e300), ("A", 1e-300)])
    def test_non_finite_input_is_named(self, field, value):
        args = {"A": 1.0, "B": 1.0, "theta": 3.0, "s": 0.0, "N": 4, "nu": 0.0}
        with pytest.raises(InvalidParameterError, match=f"instance: {field}"):
            LemmaInstance(**{**args, field: value})

    def test_overflowing_coupling_factor_is_named(self):
        with pytest.raises(InvalidParameterError, match="instance: B, nu"):
            LemmaInstance(A=1.0, B=1e300, theta=3.0, nu=1e300)

    def test_root_beyond_the_old_grid_range_is_finite(self):
        # 1e3 times the decoupled infimum 1e308 overflows, which the sigma
        # grid refused; the root needs no room above it
        inst = LemmaInstance(A=1e154, B=1.0, theta=3.0, s=0.0, N=4, nu=1e-3)
        t = algebraic_inf(inst)
        assert 0 < t <= inst.decoupled_inf < math.inf

    def test_root_below_the_float_range_is_zero(self):
        # the root's log is about -884; it used to be refused as not a float
        inst = LemmaInstance(A=1.0, B=1e300, theta=3.0, s=0.0, N=4, nu=1e5)
        assert algebraic_inf(inst) == 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_threshold_exists_for_each_eps(self, eps):
        # nu_eps is the supremum: the strict bound holds on [0, nu_eps) and
        # fails from nu_eps on, where the infimum equals the target
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4)
        nu_eps = small_nu_threshold(inst, eps)
        assert nu_eps > 0
        target = (1 - eps) * inst.decoupled_inf
        assert algebraic_inf(inst) == inst.decoupled_inf
        for nu in [*np.linspace(0.0, nu_eps, 7)[:-1], nu_eps * (1 - 1e-9)]:
            assert algebraic_inf(replace(inst, nu=float(nu))) > target
        assert algebraic_inf(replace(inst, nu=nu_eps * (1 + 1e-9))) <= target

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_threshold_refuses_eps_outside_the_unit_interval(self, eps):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4)
        with pytest.raises(InvalidParameterError, match="eps"):
            small_nu_threshold(inst, eps)

    def test_threshold_at_the_ends_of_the_float_range(self):
        # nu_eps ~ 1e700 is inf, the bound holding for every finite nu;
        # nu_eps ~ 1e-700 is 0.0
        small = LemmaInstance(A=1e-30, B=1.0, theta=100.0, s=0.0, N=3)
        large = LemmaInstance(A=1e30, B=1.0, theta=100.0, s=0.0, N=3)
        assert small_nu_threshold(small, 0.1) == math.inf
        assert small_nu_threshold(large, 0.1) == 0.0
        # a subnormal eps, where a eps underflows, still gives a normal nu_eps
        inst = LemmaInstance(A=1.0, B=1e-300, theta=3.0, s=1.0, N=4)
        for eps in (5e-324, 1e-310, 1e-25):
            nu_eps = small_nu_threshold(inst, eps)
            assert abs(float(nu_eps / _mp_threshold(inst, eps)) - 1.0) <= 1e-13
