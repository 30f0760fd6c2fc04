"""A/B benchmark of two hsvar revisions, each with its own ``perfbench``.

Usage, from anywhere inside an hsvar git checkout::

    python3 tools/abbench.py PARENT [CHANGE] [--pairs 5] [--seconds 8]
        [--seed 21] [--workload NAME ...] [--trace] [--out BENCH.json]

``PARENT`` and ``CHANGE`` are git revisions.  Each is checked out with
``git worktree add --detach`` into a temporary directory, and the worktree
is removed on exit.  Without ``CHANGE`` the change side is the working tree
that holds this script, uncommitted edits included.  Nothing under either
tree's ``perfbench/`` is edited.

For each workload of the change's ``BENCHMARK.json`` (or each ``--workload``):

* one cold run per tree, which compiles every import as on a fresh host
  (``PYTHONDONTWRITEBYTECODE=1`` and an empty bytecode cache), reported as
  its own ``setup_s`` row;
* ``--pairs`` pairs of runs of each tree's ``perfbench/run.py`` at equal
  seeds (``--seed``, ``--seed`` + 1, ...), parent and change in alternation
  (the first of a pair alternates too).  Each tree imports hsvar from its
  own warm ``PYTHONPYCACHEPREFIX`` outside both trees, so ``setup_s`` does
  not time the compiler.

It prints every run, then, per workload, the median and the quartiles of
each end-to-end metric and of each ``#`` value line of ``run.py`` on both
sides, the change of the medians, and in how many pairs the change read
lower.  Values that are equal in every run (counts, level errors) come
first.  It then runs ``fingerprint.py``, the one beside this script, on
both trees and prints the diff of their lines.  ``--trace`` adds, per
workload and tree, one row per ``perfbench.tracing.TARGETS`` entry (calls,
self and inclusive milliseconds of one set-up and one repetition) from a
``Tracer`` installed in-process, rows that ``run.py --trace 1`` does not
print.

Everything, with each tree's environment line and the sha256 of each
fingerprint, is written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FINGERPRINT = HERE / "fingerprint.py"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
VALUE_LINE = re.compile(r"^# ([\w.\-]+) = (\S+)")
COLD_SECONDS = 1.0      # a cold run reports setup_s only

# what the warm-up imports, so that the first warm run compiles nothing
WARM_UP = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench']; "
           "import numpy, scipy.linalg, hsvar, hsvar.cli; "
           "import kernels, reference, tracing, workloads")

# one set-up and one repetition of a workload under an in-process Tracer;
# prints one JSON object, per TARGETS entry, on its last line
TRACE_CHILD = r"""
import json, os, sys, tempfile
from pathlib import Path
root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
for var in sys.argv[4:]:
    os.environ[var] = "1"
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import hsvar, hsvar.cli
import tracing
from workloads import WORKLOADS
wl = WORKLOADS[workload]
tracer = tracing.Tracer(hsvar)
with tempfile.TemporaryDirectory() as tmp:
    env = {"cli": hsvar.cli, "nproc": len(os.sched_getaffinity(0)),
           "workdir": Path(tmp) / "work"}
    state = None
    tracer.install()
    try:
        state = wl.setup(hsvar, seed, False, env)
        wl.run(state)
    finally:
        tracer.uninstall()
        if state is not None and wl.cleanup is not None:
            wl.cleanup(state)
agg = tracing.aggregate(tracer.names, tracer.take())
rows = {}
for _, _, name in tracing.TARGETS:
    st = agg.get(name)
    rows[name] = {"calls": st.calls, "incl_ms": st.incl_ns / 1e6,
                  "self_ms": st.self_ns / 1e6, "missing": name in tracer.missing}
print(json.dumps(rows))
"""


def git(*args, cwd=HERE) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", nargs="?",
                    help="git revision of the change side (default: this working tree)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=8.0, help="run.py --seconds")
    ap.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (default: every one of BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true",
                    help="print the per-function rows of every traced target")
    ap.add_argument("--out", default="BENCH.json", help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0 or args.seed < 0:
        ap.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    return args


@dataclass
class Trees:
    """The root of each side and the scratch directory of the run."""

    paths: dict         # side -> tree root
    revs: dict          # side -> commit; the working tree is HEAD + "+working-tree"
    tmp: Path

    def env(self, side: str, cold: bool) -> dict:
        """The environment of a run of ``side``.  A cold run compiles every
        import (its cache directory stays empty); a warm one reads the
        side's own bytecode cache, outside both trees."""
        env = dict(os.environ)
        if cold:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
            env["PYTHONPYCACHEPREFIX"] = str(self.tmp / "pycache-cold")
        else:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            env["PYTHONPYCACHEPREFIX"] = str(self.tmp / f"pycache-{side}")
        return env


@contextmanager
def checkouts(parent: str, change: str | None):
    """The two trees: each revision in a detached worktree of a temporary
    directory, or this working tree for an absent ``change``.  The worktrees
    and the directory are removed on exit."""
    root = Path(git("rev-parse", "--show-toplevel"))
    tmp = Path(tempfile.mkdtemp(prefix="abbench-"))
    added = []
    try:
        paths, revs = {}, {}
        for side, rev in (("parent", parent), ("change", change)):
            if rev is None:
                paths[side], revs[side] = root, git("rev-parse", "HEAD") + "+working-tree"
                continue
            revs[side] = git("rev-parse", "--verify", rev + "^{commit}")
            paths[side] = tmp / side
            git("worktree", "add", "--detach", str(paths[side]), revs[side], cwd=root)
            added.append(paths[side])
        yield Trees(paths, revs, tmp)
    finally:
        for path in added:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=root, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def bench_run(trees: Trees, side: str, workload: str, seed: int, seconds: float,
              cold: bool = False) -> dict:
    """One run of a tree's perfbench/run.py: its metrics, '#' values and
    environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=trees.paths[side], env=trees.env(side, cold), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {side} {workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    metrics = {k: m["value"] for k, m in last["metrics"].items()}
    values, environment = {}, None
    for line in lines[:-1]:
        if line.startswith("# environment "):
            environment = json.loads(line[len("# environment "):])
        elif (m := VALUE_LINE.match(line)) and m.group(1) not in metrics:
            values[m.group(1)] = float(m.group(2))
    return {"side": side, "seed": seed, "exit": proc.returncode,
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "metrics": metrics, "values": values,
            "environment": environment}


def quartiles(xs: list) -> list:
    """[q1, median, q3] of ``xs`` (inclusive method)."""
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(runs: list, names: list, key: str) -> list:
    """Per name: the quartiles of each side, the change of the medians and
    how many pairs the change read lower; names equal in every run first."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run
    rows = []
    for name in names:
        sides = {side: [p[side][key][name] for p in pairs.values()]
                 for side in ("parent", "change")}
        q = {side: quartiles(xs) for side, xs in sides.items()}
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        rows.append({"name": name, "parent": q["parent"], "change": q["change"],
                     "rel_change": (q["change"][1] / q["parent"][1] - 1
                                    if q["parent"][1] else None),
                     "lower": lower, "pairs": len(pairs),
                     "constant": len(set(sides["parent"] + sides["change"])) == 1})
    return sorted(rows, key=lambda r: not r["constant"])


def print_summary(title: str, rows: list) -> None:
    print(f"  {title}")
    for r in rows:
        p, c = r["parent"], r["change"]
        rel = f"{100 * r['rel_change']:+6.1f}%" if r["rel_change"] is not None else "   n/a"
        print(f"    {r['name']:<28} parent {p[1]:<12.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
              f"change {c[1]:<12.6g} [{c[0]:.6g}, {c[2]:.6g}]  {rel}  "
              f"lower in {r['lower']} of {r['pairs']} pairs")


def fingerprints(trees: Trees) -> dict:
    """The fingerprint.py beside this script on both trees, and the diff; a
    tree it cannot fingerprint gets its exit code and last error line."""
    out = {}
    for side, path in trees.paths.items():
        proc = subprocess.run([sys.executable, str(FINGERPRINT), str(path)],
                              env=trees.env(side, False), capture_output=True, text=True)
        out[side] = proc.stdout
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            out[side] += f"fingerprint exited {proc.returncode}: {last}\n"
    diff = list(difflib.unified_diff(out["parent"].splitlines(), out["change"].splitlines(),
                                     "parent", "change", lineterm=""))
    return {"sha256": {s: hashlib.sha256(t.encode()).hexdigest() for s, t in out.items()},
            "identical": out["parent"] == out["change"], "diff": diff,
            "lines": out["change"].splitlines()}


def trace_rows(trees: Trees, side: str, workload: str, seed: int) -> dict:
    """The trace rows of one set-up and one repetition of ``workload`` on
    ``side``; none, with the error printed, when the tree cannot be traced."""
    proc = subprocess.run([sys.executable, "-c", TRACE_CHILD, str(trees.paths[side]),
                           workload, str(seed), *BLAS_VARS],
                          env=trees.env(side, False), capture_output=True, text=True)
    if proc.returncode:
        print(f"  trace of {side} exited {proc.returncode}: "
              f"{(proc.stderr.strip().splitlines() or [''])[-1]}")
        return {}
    return json.loads(proc.stdout.splitlines()[-1])


def print_trace(workload: str, rows: dict) -> None:
    print(f"  trace {workload} (one set-up and one repetition; calls, self ms, incl ms)")
    for name in rows["change"] or rows["parent"]:
        cells = []
        for side in ("parent", "change"):
            r = rows[side].get(name)
            cells.append("missing" if r is None or r["missing"] else
                         f"{r['calls']:>7} {r['self_ms']:9.3f} {r['incl_ms']:9.3f}")
        print(f"    {name:<38} parent {cells[0]:<27}  change {cells[1]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = {"args": vars(args), "workloads": {}}
    with checkouts(args.parent, args.change) as trees:
        doc["revisions"] = trees.revs
        spec = json.loads((trees.paths["change"] / "BENCHMARK.json").read_text())
        end_to_end = [m["name"] for m in spec["end_to_end"]]
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        for side, path in trees.paths.items():
            print(f"{side}: {doc['revisions'][side]} at {path}", flush=True)
            subprocess.run([sys.executable, "-c", WARM_UP, str(path)],
                           env=trees.env(side, False), check=True)

        for workload in workloads:
            print(f"\n== {workload}", flush=True)
            cold = {}
            for side in ("parent", "change"):
                run = bench_run(trees, side, workload, args.seed, COLD_SECONDS, cold=True)
                cold[side] = run["metrics"]["setup_s"]
                print(f"  cold {side:<6} setup_s = {cold[side]:.6g} s", flush=True)
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = bench_run(trees, side, workload, seed, args.seconds)
                    runs.append(run)
                    shown = "  ".join(f"{n} = {run['metrics'][n]:.6g}" for n in end_to_end)
                    print(f"  seed {seed} {side:<6} {shown}  attempted {run['attempted']} "
                          f"failed {run['failed']}  exit {run['exit']}", flush=True)
            value_names = sorted(set.intersection(*(set(r["values"]) for r in runs)))
            summary = {"end_to_end": summarize(runs, end_to_end, "metrics"),
                       "values": summarize(runs, value_names, "values")}
            print_summary("end-to-end", summary["end_to_end"])
            print_summary("'#' values", summary["values"])
            entry = {"cold_setup_s": cold, "summary": summary,
                     "runs": [{k: v for k, v in r.items() if k != "environment"}
                              for r in runs],
                     "environment": {r["side"]: r["environment"] for r in runs}}
            if args.trace:
                entry["trace"] = {side: trace_rows(trees, side, workload, args.seed)
                                  for side in ("parent", "change")}
                print_trace(workload, entry["trace"])
            doc["workloads"][workload] = entry

        print("\n== fingerprint", flush=True)
        doc["fingerprint"] = fingerprints(trees)
        fp = doc["fingerprint"]
        print("  identical" if fp["identical"] else "\n".join(fp["diff"]))
        for side, digest in fp["sha256"].items():
            print(f"  {side} sha256 {digest}")

    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
