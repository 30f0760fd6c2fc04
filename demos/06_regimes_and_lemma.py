"""Existence-regime classification and the scaling-set infimum.

Classifies a few parameter tuples against the existence statements, then
evaluates the small-coupling lower bound of the scaling-set lemma: the
infimum, an exact root, stays above (1 - eps) of the decoupled value for
every coupling strength below the closed-form threshold nu_eps, and falls
below it from nu_eps on.
"""

import json
from dataclasses import replace

import numpy as np

from hsvar import (HProfile, LemmaInstance, ProblemParams, algebraic_inf,
                   classify, small_nu_threshold)

tuples = [
    ("both exponents < 2", ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.1)),
    ("both exponents > 2, small nu", ProblemParams(3, 0.5, 0.05, 0.1, 2.5, 2.4, 0.01)),
    ("min-max window", ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.01)),
    ("critical coupling, vanishing h",
     ProblemParams(4, 1.0, 0.3, 0.5, 1.5, 1.5, 0.1,
                   h_profile=HProfile("bump", p_exp=2, q_exp=2))),
]
for label, pr in tuples:
    rep = classify(pr).to_dict()
    summary = {k: rep[k] for k in ("subcritical", "critical")}
    summary["mixed"] = rep["thm_mixed"]["case"]
    summary["small_nu"] = rep["thm_small_nu"]["case"]
    summary["minmax"] = rep["thm_minmax"]["case"]
    print(f"{label}:\n  {json.dumps(summary)}")

print("\nscaling-set infimum vs coupling strength (A=1, B=1, theta=3, N=4, s=1):")
inst = LemmaInstance(A=1.0, B=1.0, theta=3.0, s=1.0, N=4)
for nu in (0.0, 1e-3, 1e-2, 0.1, 1.0):
    print(f"  nu={nu:7g}: inf = {algebraic_inf(replace(inst, nu=nu)):.10g}")

print("\nsmall-coupling thresholds nu_eps (closed form):")
for eps in (0.1, 0.01):
    nu_t = small_nu_threshold(inst, eps)
    target = (1 - eps) * inst.decoupled_inf
    below = algebraic_inf(replace(inst, nu=nu_t * (1 - 1e-9))) > target
    above = algebraic_inf(replace(inst, nu=nu_t * (1 + 1e-9))) > target
    print(f"  eps={eps}: infimum stays above (1-eps)*exact for nu < {nu_t:.4g} "
          f"(just below: {below}, just above: {above})")

print("\nmini phase sweep over lambda2 (N=4, s=1, alpha=beta=1.4):")
for l2 in np.linspace(0.1, 0.9, 5):
    pr = ProblemParams(4, 1.0, 0.3, float(l2), 1.4, 1.4, 0.1)
    rep = classify(pr).to_dict()
    print(f"  lambda2={l2:.2f}: mixed case {rep['thm_mixed']['case']:4s} "
          f"minmax {rep['thm_minmax']['case']}")
