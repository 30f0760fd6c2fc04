"""Kernel-scaling table: per-call cost of the inner kernels at three grid sizes.

Problem: N = 4, the criterion-7 coupled parameters (nu = 1), and the
projected couple of the two closed-form profiles as the state.  Each micro
kernel is timed in batches and the median per-call time is kept.  One
descent iteration and one path sweep are timed through the public solvers,
as the difference between a run capped at more iterations (sweeps) and one
capped at fewer, divided by the extra iterations actually made.

``bytes_computed`` is computed from array sizes, not measured: the number of
length-n float64 arrays a call reads or writes at its boundary, times 8
bytes, at n = 4096.  At 16384 nodes an array is 128 KiB, so the working set
of every kernel fits in cache at all three sizes and no memory bandwidth is
measured here.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SIZES = (1024, 4096, 16384)
BYTES_AT = 4096

# Length-n arrays touched per call.  A state pair is (u, v); the grid holds
# r, w and cell_w; a factorization holds two band rows plus the scaling.
_TERMS = 4               # u, v, r, w
_NORM = 5                # u, v, r, w, cell_w
_GRAD = 7                # u, v, r, w, cell_w -> gu, gv
_SOLVE = 7               # rhs, 2 band rows, scale, main, off -> d
_PROJECT = 7             # u, v, r, w, cell_w -> t u, t v
_ENERGY = _TERMS + _NORM
_STEP = 6                # u, v, du, dv -> candidate u, v
_APPLY = 4               # d, main, off -> out
# one descent iteration with one line-search trial
_DESCENT = _GRAD + 2 * _SOLVE + _NORM + _STEP + _PROJECT + _ENERGY
# one path sweep at K = 32: 31 resampled nodes, the crest gradient norm, and
# three node moves with one trial each (two tangent products per move)
_GRAD_NORM = _GRAD + _NORM + 2 * _SOLVE
_PATH_SWEEP = (31 * (_STEP + _PROJECT + _ENERGY) + _GRAD_NORM
               + 3 * (_GRAD + 2 * _SOLVE + _STEP + 2 * _APPLY + _STEP + _PROJECT
                      + _ENERGY))

ARRAYS = {"_terms": _TERMS, "pair_norm_sq": _NORM, "gradient_coefficients": _GRAD,
          "solve": _SOLVE, "project": _PROJECT, "descent_iter": _DESCENT,
          "path_sweep": _PATH_SWEEP}
KERNELS = tuple(ARRAYS)


def _per_call_us(fn, batch_s: float, batches: int) -> float:
    """Median per-call time in microseconds over timed batches."""
    fn()
    calls, t0 = 0, perf_counter()
    while perf_counter() - t0 < batch_s:
        fn()
        calls += 1
    calls = max(calls, 1)
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def _per_step_us(run, lo: int, hi: int, repeats: int) -> float:
    """Median of (t(hi) - t(lo)) / (steps made between), in microseconds.

    ``run(k)`` runs a solver capped at k steps and returns the steps made.
    """
    diffs = []
    for _ in range(repeats):
        t0 = perf_counter()
        made_lo = run(lo)
        t1 = perf_counter()
        made_hi = run(hi)
        t2 = perf_counter()
        if made_hi > made_lo:
            diffs.append(((t2 - t1) - (t1 - t0)) / (made_hi - made_lo))
    return statistics.median(diffs) * 1e6 if diffs else 0.0


def kernel_table(hs, smoke: bool, log) -> dict:
    """Return ``{"kernel.<k>.us.n<n>": us, "kernel.<k>.bytes_computed": B}``."""
    import importlib

    from workloads import COUPLED_PARAMS, MP_PARAMS

    energy_mod = importlib.import_module("hsvar.energy")
    operators = importlib.import_module("hsvar.operators")

    batch_s, batches, repeats = (0.005, 3, 1) if smoke else (0.02, 7, 3)
    params = hs.ProblemParams(*COUPLED_PARAMS)
    mp_params = hs.ProblemParams(*MP_PARAMS)
    out = {}
    for n in SIZES:
        grid = hs.build_grid(4, 1e-6, 1e6, n)
        couple = hs.StatePair(hs.extremal_pair(params, grid, "first").u,
                              hs.extremal_pair(params, grid, "second").v)
        pair = hs.project(couple, params, positive=True).projected
        off = pair.scaled(1.1)
        calls = {
            "_terms": lambda: energy_mod._terms(pair, params, True),
            "pair_norm_sq": lambda: hs.pair_norm_sq(pair, params),
            "gradient_coefficients":
                lambda: energy_mod.gradient_coefficients(pair, params, positive=True),
            "project": lambda: hs.project(off, params, positive=True),
        }
        try:
            op = operators.LambdaOperator(grid, params.lambda1)
            rhs = energy_mod.gradient_coefficients(pair, params, positive=True)[0][1:-1]
            calls["solve"] = lambda: op.solve(rhs)
        except AttributeError as exc:
            log(f"kernel solve unavailable: {exc}")

        def descent(k):
            opts = hs.DescentOptions(tol_grad=0.0, max_iter=k)
            return hs.ground_state(params, couple, opts).iterations

        def path(k):
            opts = hs.PathOptions(n_path_nodes=32, max_sweeps=k)
            return hs.mountain_pass(mp_params, grid, opts).iterations

        for name in KERNELS:
            key = f"kernel.{name}.us.n{n}"
            try:
                if name == "descent_iter":
                    out[key] = _per_step_us(descent, 0, 5 if smoke else 20, repeats)
                elif name == "path_sweep":
                    # the first sweep skips the reparametrization; start after it
                    out[key] = _per_step_us(path, 1, 2 if smoke else 3, repeats)
                elif name in calls:
                    out[key] = _per_call_us(calls[name], batch_s, batches)
                else:
                    out[key] = 0.0
            except AttributeError as exc:
                # a kernel renamed by a later version of hsvar reads 0
                log(f"kernel {name} unavailable: {exc}")
                out[key] = 0.0
    for name in KERNELS:
        out[f"kernel.{name}.bytes_computed"] = ARRAYS[name] * 8 * BYTES_AT
    return out
