"""Regime classification and the scaling-set infimum oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsvar import (HProfile, InvalidParameterError, LemmaInstance,
                   ProblemParams, algebraic_inf, classify, critical_exponent,
                   default_sigma_grid, small_nu_threshold)
from hsvar.regimes import _default_sigma_terms
from conftest import admissible_params


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
        # construction refuses alpha + beta > p (1 + 1e-12); the rounding of
        # that bound admits sums up to 1.00009e-12 p above p, which count as
        # critical, so no admitted tuple is neither critical nor subcritical
        for N, s in ((3, 0.0), (3, 0.5), (4, 1.0), (5, 0.3)):
            p = 2.0 * (N - s) / (N - 2)
            alpha = 1.3
            beta = p * (1 + 0.99e-12) - alpha
            seen = 0
            while True:
                try:
                    pr = make_params(alpha, beta, l1=0.05, l2=0.1, N=N, s=s)
                except InvalidParameterError:
                    break
                rep = classify(pr)
                assert rep.critical and not rep.subcritical
                seen += alpha + beta - p > 1e-12 * p
                beta = float(np.nextafter(beta, np.inf))
            assert seen >= 1


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


class TestAlgebraicInf:
    def test_decoupled_exact(self):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=0.0)
        assert algebraic_inf(inst) == pytest.approx(1.0, rel=1e-3)

    def test_decoupled_random_within_one_cell(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            N = int(rng.integers(3, 7))
            s = rng.uniform(0.0, 1.5)
            A = rng.uniform(0.2, 5.0)
            inst = LemmaInstance(A=A, B=1.0, theta=2.0, s=s, N=N, nu=0.0)
            grid = default_sigma_grid(inst)
            cell = grid[1] / grid[0]
            inf_val = algebraic_inf(inst, grid)
            assert inst.decoupled_inf <= inf_val <= inst.decoupled_inf * cell

    def test_small_nu_keeps_inf_close(self):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=1e-6)
        assert algebraic_inf(inst) >= (1 - 1e-2) * 1.0

    def test_monotone_in_nu(self):
        vals = []
        for nu in np.geomspace(1e-8, 10.0, 10):
            inst = LemmaInstance(A=1.3, B=0.7, theta=2.5, s=0.5, N=4, nu=float(nu))
            v = algebraic_inf(inst)
            vals.append(v if v is not None else 0.0)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_A(self):
        vals = []
        for A in np.linspace(0.5, 3.0, 8):
            inst = LemmaInstance(A=float(A), B=1.0, theta=2.5, s=0.5, N=4, nu=1e-3)
            vals.append(algebraic_inf(inst))
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_empty_set_sentinel(self):
        # tiny grid far below the set keeps membership empty
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=0.0)
        grid = np.geomspace(1e-9, 1e-8, 50)
        assert algebraic_inf(inst, grid) is None

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

    def test_sigma_grid_must_fit_the_float_range(self):
        # the decoupled infimum is finite, but 1e3 times it is not
        inst = LemmaInstance(A=1e154, B=1.0, theta=3.0, s=0.0, N=4)
        with pytest.raises(InvalidParameterError, match="sigma grid"):
            algebraic_inf(inst)

    def test_kept_terms_give_the_explicit_grid_result_bit_for_bit(self):
        # A alternates, so the one kept entry is evicted and built again
        _default_sigma_terms.cache_clear()
        cases = [(1.0, 0.0), (1.7, 1e-3), (1.0, 0.5), (1.7, 0.0), (1.0, 1e-3),
                 (0.6, 2.0)]
        p = critical_exponent(4, 0.5)
        for A, nu in cases:
            inst = LemmaInstance(A=A, B=0.7, theta=2.5, s=0.5, N=4, nu=nu)
            grid = default_sigma_grid(inst)
            members = grid[A * grid ** (2.0 / p) < grid + 0.7 * nu * grid ** (2.5 / p)]
            assert algebraic_inf(inst) == float(members.min())
            assert algebraic_inf(inst, grid) == float(members.min())
            assert grid.flags.writeable        # an explicit grid is not frozen
        info = _default_sigma_terms.cache_info()
        assert (info.misses, info.hits, info.currsize) == (len(cases), 0, 1)

    def test_kept_terms_refuse_writes(self):
        inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=0.0)
        for a in _default_sigma_terms(inst.A, inst.theta, inst.s, inst.N):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_threshold_exists_for_each_eps(self, eps):
        def inst_at(nu):
            return LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4, nu=nu)

        nu_tilde = small_nu_threshold(inst_at, eps)
        assert nu_tilde is not None and nu_tilde > 0
        target = (1 - eps) * inst_at(0.0).decoupled_inf
        for nu in np.linspace(0.0, nu_tilde, 7):
            inf_val = algebraic_inf(inst_at(float(nu)))
            assert inf_val is not None and inf_val > target
