"""Min-max bound state between the two one-component couples.

Builds the explicit interpolating path, rescales it onto the constraint
set, then deforms it with transversal relaxation plus a climbing crest.
The estimate is bracketed between the larger one-component level and three
times the smaller one, per the level-separation window.
"""

from hsvar import (PathOptions, ProblemParams, critical_level, mountain_pass,
                   reference_grid, separability_check)

params = ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.02)
grid = reference_grid(4)

E1 = critical_level(4, 0.1, 0.5)
E2 = critical_level(4, 0.3, 0.5)
sep = separability_check(params)
print(f"levels: E1={E1:.4f}, E2={E2:.4f}; window orientation i: {sep['cond_i']} "
      f"(ratio {sep['ratio']:.4f} > threshold {sep['threshold']:.4f})")

rep = mountain_pass(params, grid, PathOptions(n_path_nodes=32, max_sweeps=150))
lv = rep.level_diagnostics
gt = rep.extra["gradient_norm_trace"]

# by Hoelder the interpolating path's upper envelope peaks at t = 1/2, at
# E1 + E2: the report gives it from the endpoint energies on the grid and,
# as sum_levels, in closed form
print(f"interpolating-path upper envelope peaks at "
      f"{lv['interpolation_bound_max']:.4f} (= E1+E2 = {lv['sum_levels']:.4f})")

print(f"\nendpoints: {lv['endpoint_energies'][0]:.4f}, {lv['endpoint_energies'][1]:.4f}")
print(f"initial chain max: {lv['initial_path_max']:.4f}")
print(f"deformed estimate: {rep.energy:.4f} after {rep.iterations} sweeps "
      f"(stop: {rep.stop_reason})")
print(f"bracket: E1 = {E1:.4f} < {rep.energy:.4f} < 3 E2 = {3 * E2:.4f}")
print(f"crest gradient: {gt[0]:.3e} -> {gt[-1]:.3e} (converged: {rep.converged})")
print("chain maximum (start, then every 15 sweeps):",
      " ".join(f"{c:.3f}" for c in rep.trace[::15]))
