"""Ground states by projected preconditioned Polak-Ribiere+ conjugate gradient.

The step direction is d = m + beta d_prev, where m is the gradient's Riesz
representative in the operator metric and beta the Polak-Ribiere+
coefficient, clipped at 0; the iteration restarts from d = m when d is not
a descent direction or its line search fails.  The line search checks the
slope as well as the decrease (strong Wolfe conditions), which carries the
iteration across the slow dilation mode of the truncated N=3 problem, and
each trial's slope places the next trial: a step that decreases the energy
while the slope is still steep is lengthened to the zero of the secant of
the slope, and once a trial overshoots, the next one lies at the minimizer
of the cubic that matches energy and slope at both ends of the bracket.
Each search starts at the previous step, capped at 4.

First recovers the one-component level from perturbed data in the
decoupled problem, then escalates the coupling strength until the
minimizer is a genuinely coupled state below both one-component levels.
"""

import numpy as np

from hsvar import (DescentOptions, ProblemParams, RadialFunction, StatePair,
                   critical_level, escalate_nu, extremal_pair, ground_state,
                   reference_grid)
from hsvar.solvers import random_bump

grid = reference_grid(4)
rng = np.random.default_rng(1)

print("=== decoupled run (nu = 0) ===")
params = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
base = extremal_pair(params, grid, "first")
scale = float(np.interp(1.0, grid.r, base.u.values))
init = StatePair(
    RadialFunction(grid, np.abs(base.u.values
                                + 0.3 * scale * random_bump(grid, rng).values)),
    RadialFunction.zero(grid))
rep = ground_state(params, init, DescentOptions(tol_grad=1e-6, max_iter=6000))
target = critical_level(4, 0.3, 1.0)
print(f"energy {rep.energy:.8f} vs closed-form level {target:.8f} "
      f"(rel err {abs(rep.energy / target - 1):.2e})")
print(f"iterations {rep.iterations} ({rep.extra['restarts']} along m, "
      f"{rep.extra['trials']} line-search trials), "
      f"converged {rep.converged}, "
      f"gradient {rep.gradient_norm:.2e}, monotone {rep.extra['monotone']}")

print("\n=== escalated coupling ===")
nu = escalate_nu(params, grid)
coupled = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, nu)
init = StatePair(extremal_pair(coupled, grid, "first").u,
                 extremal_pair(coupled, grid, "second").v)
rep = ground_state(coupled, init, DescentOptions(tol_grad=1e-5, max_iter=6000))
lv = rep.level_diagnostics
print(f"nu = {nu:g}")
print(f"energy {rep.energy:.6f} vs one-component levels "
      f"({lv['level_1']:.4f}, {lv['level_2']:.4f})")
print(f"below both: {lv['below_min_semitrivial']}, classification: {rep.classification}")
print(f"critical masses: u {lv['crit_integral_u']:.3e}, v {lv['crit_integral_v']:.3e}")
