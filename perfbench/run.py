"""hsvar benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``ground-state``, ``mountain-pass``,
``probe`` and ``sweep``.  The program is imported from ``src/`` of the same
checkout; nothing is installed.  BLAS is pinned to one thread before numpy
loads, and the sweep uses at most ``min(2, nproc)`` worker threads.

A run sets the workload up several times and imports hsvar in a few fresh
interpreters; ``setup_s`` is the sum of the two medians.  It then repeats
the workload, checking every repetition, as often as fits in ``--seconds``
(at least once).  Every 50 ms of an untraced repetition it times the
reference kernel of ``reference.py`` and takes that time out of the
repetition's.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``: ``wall_ref`` is the median untraced repetition divided
by the median reference time, so that swings in the speed of a shared host
cancel (see ``reference.py``); the median repetition in seconds, ``wall_s``,
is printed and reported by the traced run.  With
``--trace 1`` it alternates untraced and traced repetitions, reports the
per-layer metrics (per repetition, set-up included once), the tracing
overhead and the kernel-scaling table, and writes the spans to
``.bench_out/spans-<workload>-seed<n>.json``.

Human-readable lines start with ``#``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check holds, 1 when a check is violated (after the JSON line),
and 2 when the program cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import kernels
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
IMPORT_REPS = 5
# numpy and scipy load before the clock starts: no change to hsvar alters
# their cost, and on a 2-vCPU Xeon host they were 85% of the import time and
# most of its spread.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import numpy, scipy.linalg; "
                "t = time.perf_counter(); import hsvar, hsvar.cli; "
                "print(time.perf_counter() - t)")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Workload metrics printed as '#' lines with the end-to-end metrics; in the
# JSON line they belong to the per-layer set.
WORKLOAD_INFO = {
    "ground-state": ("descent_iters", "level_rel_err", "grad_rel"),
    "mountain-pass": ("path_sweeps", "cmp_level", "crest_grad_rel", "level_rel_err"),
    "probe": ("probe_evals", "level_rel_err"),
    "sweep": ("rows_per_s", "cli.sweep.workers1_s", "cli.sweep.workers2_s"),
}
INFO_NAMES = sorted({n for names in WORKLOAD_INFO.values() for n in names})


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOAD_INFO))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Median time to import hsvar in fresh interpreters; each one has ended
    when this returns."""
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(hs, nproc: int) -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hsvar").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "hsvar": getattr(hs, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{v: os.environ.get(v) for v in BLAS_VARS}},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hsvar" / "__init__.py").is_file():
        _fail(f"hsvar sources not found under {ROOT / 'src'}")
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    for var in BLAS_VARS:
        os.environ[var] = "1"

    sys.path.insert(0, str(ROOT / "src"))
    import hsvar
    import hsvar.cli
    if Path(hsvar.__file__).resolve().parent != ROOT / "src" / "hsvar":
        _fail(f"hsvar imported from {hsvar.__file__}, not from this checkout")

    import reference
    from workloads import WORKLOADS, Outcome

    nproc = len(os.sched_getaffinity(0))
    wl = WORKLOADS[args.workload]
    env = {"cli": hsvar.cli, "nproc": nproc,
           "workdir": OUT_DIR / f"work-{args.workload}-{os.getpid()}"}
    tracer = tracing.Tracer(hsvar) if args.trace else None
    total = Outcome()
    untraced, traced, values = [], [], []

    def absorb(out):
        total.failures += out.failures
        total.misses += out.misses
        total.violations += out.violations
        return out.values

    def check(state, result):
        # A repetition redoes the same operations: the first one counts them,
        # and an operation fails if any repetition of it failed.
        out = wl.check(state, result)
        if values:
            if out.attempted != total.attempted:
                out.violations.append(f"repetition made {out.attempted} operations, "
                                      f"the first {total.attempted}")
            total.failures[:] = [a or b for a, b in zip(total.failures, out.failures)]
            out.failures = []
        values.append(absorb(out))

    sampler = reference.Sampler()

    def timed(state, trace: bool):
        if trace:
            tracer.install()
            try:
                t = perf_counter()
                result = wl.run(state)
                return perf_counter() - t, result
            finally:
                tracer.uninstall()
        with sampler:
            t = perf_counter()
            result = wl.run(state)
            return perf_counter() - t - sampler.spent, result

    state = None
    try:
        if tracer is None:
            setups = []
            for _ in range(SETUP_REPS):
                t = perf_counter()
                state = wl.setup(hsvar, args.seed, args.smoke, env)
                setups.append(perf_counter() - t)
        else:
            tracer.install()
            try:
                state = wl.setup(hsvar, args.seed, args.smoke, env)
            finally:
                tracer.uninstall()
            setup_spans = tracer.take()

        # Start a repetition only if one more, checks included, fits in
        # --seconds, so that a long workload is not run twice for a second.
        start = perf_counter()
        while (not untraced or perf_counter() - start
               + (perf_counter() - start) / len(untraced) <= args.seconds):
            dt, result = timed(state, False)
            untraced.append(dt)
            check(state, result)
            if tracer is not None:
                dt, result = timed(state, True)
                traced.append(dt)
                check(state, result)
        measured_s = perf_counter() - start
        finish_values = absorb(wl.finish(state)) if wl.finish is not None else {}
        kernel_values = (kernels.kernel_table(hsvar, args.smoke, _log)
                         if tracer is not None else {})
    finally:
        if state is not None and wl.cleanup is not None:
            wl.cleanup(state)

    # Workload figures are deterministic except the timings; take medians
    # over the untraced repetitions (the even ones when tracing).
    plain = values[::2] if tracer is not None else values
    info = dict.fromkeys(INFO_NAMES, 0.0)
    info.update({k: statistics.median([v[k] for v in plain]) for k in plain[0]})
    info.update(finish_values)

    _log(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
         f"{len(untraced)} untraced and {len(traced)} traced repetitions in "
         f"{measured_s:.2f} s; {total.attempted} operations, {total.failed} failed")
    for kind, msgs in (("violation", total.violations), ("miss", total.misses)):
        counts = {}
        for m in msgs:
            counts[m] = counts.get(m, 0) + 1
        for m, k in counts.items():
            _log(f"{kind}: {m} ({k}x)")

    wall_s = statistics.median(untraced)
    ref_s = statistics.median(sampler.samples)
    if tracer is None:
        measured = {
            "setup_s": import_seconds() + statistics.median(setups),
            "wall_ref": wall_s / ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _log(f"failed_frac = {total.failed / total.attempted:.6g} ratio")
        _log(f"wall_s = {wall_s:.10g} s (median repetition; fastest {min(untraced):.10g} s)")
        _log(f"ref_ms = {1e3 * ref_s:.10g} ms (median of {len(sampler.samples)})")
        for name in WORKLOAD_INFO[args.workload]:
            _log(f"{name} = {info[name]:.10g} {units[name]}")
    else:
        rep_spans = tracer.take()
        measured = layer_metrics(tracer, setup_spans, rep_spans, len(traced), info)
        measured["wall_s"] = wall_s
        measured["ref_ms"] = 1e3 * ref_s
        measured["trace.overhead_s"] = (statistics.median(traced)
                                        - statistics.median(untraced))
        measured.update(kernel_values)
        wanted = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracing.write_spans(span_file, tracer.names,
                            {"setup": setup_spans, "repetitions": rep_spans})
        _log(f"spans written to {span_file.relative_to(ROOT)}"
             + (f"; not in this hsvar: {', '.join(tracer.missing)}"
                if tracer.missing else ""))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        _log(f"{m['name']} = {measured[m['name']]:.10g} {m['unit']}")
    _log("environment " + json.dumps(environment(hsvar, nproc), sort_keys=True))
    correct = not total.violations
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def layer_metrics(tracer, setup_spans, rep_spans, n_reps: int, info: dict) -> dict:
    """Per-layer metrics for one workload pass: set-up once plus one repetition."""
    setup = tracing.aggregate(tracer.names, setup_spans)
    reps = tracing.aggregate(tracer.names, rep_spans)
    out = dict(info)

    def per_pass(name):
        s, r = setup.get(name), reps.get(name)
        calls = s.calls + r.calls / n_reps
        incl = s.incl_ns + r.incl_ns
        return (calls, (s.self_ns + r.self_ns / n_reps) / 1e9,
                incl / (s.calls + r.calls) / 1e3 if s.calls + r.calls else 0.0,
                s.raised + r.raised / n_reps, (s.incl_ns + r.incl_ns / n_reps) / 1e6)

    names = list(tracer.names) + list(tracer.missing)
    for name in names:
        calls, self_s, us, _, _ = per_pass(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = us
    for layer in tracing.LAYERS:
        mine = [n for n in names if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(per_pass(n)[0] for n in mine)
        out[f"{layer}.self_s"] = sum(per_pass(n)[1] for n in mine)

    out["nehari.project.rejects"] = per_pass("nehari.project")[3]
    descend_calls, _, _, _, descend_ms = per_pass("solvers._descend")
    ls_projections = (reps.by_edge.get(("solvers._descend", "nehari.project"), 0) / n_reps
                      + setup.by_edge.get(("solvers._descend", "nehari.project"), 0)
                      - descend_calls)
    accepted = info["descent_iters"]
    out["solvers.ls_accept_ratio"] = accepted / ls_projections if ls_projections else 0.0
    out["solvers.backtracks_per_iter"] = ((ls_projections - accepted) / accepted
                                          if accepted else 0.0)
    out["solvers.ms_per_iter"] = descend_ms / accepted if accepted else 0.0
    mp_ms = per_pass("solvers.mountain_pass")[4]
    out["solvers.ms_per_sweep"] = mp_ms / info["path_sweeps"] if info["path_sweeps"] else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
