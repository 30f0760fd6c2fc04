"""A/B benchmark of two hsvar revisions, each with its own ``perfbench``.

Usage, from anywhere inside an hsvar git checkout::

    python3 tools/abbench.py PARENT [CHANGE] [--pairs 5] [--seconds 8]
        [--seed 21] [--workload NAME ...] [--trace] [--out BENCH.json]

``PARENT`` and ``CHANGE`` are git revisions.  Each is exported with ``git
archive`` into a temporary directory, which is removed on exit; the
repository's own git metadata is not touched.  Without ``CHANGE`` the change
side is a snapshot of the working tree that holds this script, taken at
start: tracked edits and untracked files that are not ignored, written as a
git tree in that directory and exported like a revision, so an edit saved
later reaches neither side.  Nothing under either tree's ``perfbench/`` is
edited.

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
lower.  A run that reports ``"correct": false``, and a change run with more
``failed`` operations than the parent run of its seed, is flagged on its
line and in the JSON; the summary leaves out each pair with a flagged run,
and the tool exits 1.  Values that are equal in every run (counts, level
errors) come first.  It then runs ``fingerprint.py``, the one beside this script, on
both trees and prints the diff of their lines.  ``--trace`` adds, per
workload and tree, one row per ``perfbench.tracing.TARGETS`` entry and per
``EXTRA_TARGETS`` entry, the solver kernels that list does not name (calls,
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

ROOT = Path(__file__).resolve().parents[1]      # the checkout that holds this script
FINGERPRINT = ROOT / "tools" / "fingerprint.py"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
VALUE_LINE = re.compile(r"^# ([\w.\-]+) = (\S+)")
COLD_SECONDS = 1.0      # a cold run reports setup_s only
# what ``--trace`` traces beyond ``perfbench.tracing.TARGETS``, as
# "<module>.<attribute path>": the integrals pass and the projection that
# the solvers call, the plane's scalar integrals, and the min-max chain's
# own steps
EXTRA_TARGETS = ("energy.integrals", "energy.project_arrays", "energy.Plane.integrals",
                 "solvers._line_search", "solvers._move_node", "solvers._node_direction",
                 "solvers._initial_path", "operators.PairMetric.transversal")

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
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import hsvar, hsvar.cli
import tracing
from workloads import WORKLOADS
# the solver's own kernels, which perfbench's list does not name; a tree
# that lacks one reports it missing
tracing.TARGETS += tuple((name.partition(".")[0], name.partition(".")[2], name)
                         for name in sys.argv[4].split(","))
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


def git(*args, env=None) -> str:
    """The output of a git command run at ``ROOT``."""
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", nargs="?",
                    help="git revision of the change side (default: a snapshot of this "
                         "working tree taken at start)")
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
    """The scratch directory of the run, which holds each side's tree in
    the directory named after the side, and the object each side exports."""

    revs: dict          # side -> commit or tree
    tmp: Path

    def env(self, side: str, cold: bool) -> dict:
        """The environment of a child that runs ``side``, with BLAS pinned to
        one thread.  A cold run compiles every import (its cache directory
        stays empty); a warm one reads the side's own bytecode cache,
        outside both trees."""
        env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1")}
        if cold:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
            env["PYTHONPYCACHEPREFIX"] = str(self.tmp / "pycache-cold")
        else:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            env["PYTHONPYCACHEPREFIX"] = str(self.tmp / f"pycache-{side}")
        return env


@contextmanager
def checkouts(parent: str, change: str | None):
    """The two trees, each exported by ``git archive`` into a temporary
    directory that is removed on exit.  An absent ``change`` is a snapshot
    of the working tree taken now: ``HEAD`` updated by ``git add -A`` and
    written by ``git write-tree``, with an index and an object directory of
    its own in that directory and the repository's objects as an alternate,
    so nothing under ``.git`` changes."""
    tmp = Path(tempfile.mkdtemp(prefix="abbench-"))
    try:
        (tmp / "objects").mkdir()
        env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index"),
               "GIT_OBJECT_DIRECTORY": str(tmp / "objects"),
               "GIT_ALTERNATE_OBJECT_DIRECTORIES":
                   git("rev-parse", "--path-format=absolute", "--git-path", "objects")}
        if change is None:
            git("read-tree", "HEAD", env=env)   # keeps tracked files that are ignored
            git("add", "-A", env=env)
            change = git("write-tree", env=env)
        # a commit, a tag's commit, or the snapshot's tree
        revs = {side: git("rev-parse", "--verify", rev + "^{}", env=env)
                for side, rev in (("parent", parent), ("change", change))}
        for side, rev in revs.items():
            git("archive", f"--prefix={side}/", "-o", f"{tmp / side}.tar", rev, env=env)
            subprocess.run(["tar", "-xf", f"{tmp / side}.tar", "-C", str(tmp)], check=True)
        yield Trees(revs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_run(trees: Trees, side: str, workload: str, seed: int, seconds: float,
              cold: bool = False) -> dict:
    """One run of a tree's perfbench/run.py: its metrics, '#' values and
    environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=trees.tmp / side, env=trees.env(side, cold), capture_output=True, text=True)
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


def flag_pair(pair: dict) -> None:
    """Write each run's ``flags``: "incorrect" for a run that reported
    ``"correct": false``, and the counts for a change run with more
    ``failed`` operations than the parent run of its seed."""
    for run in pair.values():
        run["flags"] = [] if run["correct"] else ["incorrect"]
    p, c = pair["parent"], pair["change"]
    if c["failed"] > p["failed"]:
        c["flags"].append(f"failed {c['failed']} > parent {p['failed']}")


def quartiles(xs: list) -> list:
    """[q1, median, q3] of ``xs`` (inclusive method)."""
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(runs: list, names: list, key: str) -> list:
    """Per name: the quartiles of each side, the change of the medians and
    how many pairs the change read lower; names equal in every run first.
    Empty without a run."""
    if not runs:
        return []
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
    for side in trees.revs:
        proc = subprocess.run([sys.executable, str(FINGERPRINT), str(trees.tmp / side)],
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
    proc = subprocess.run([sys.executable, "-c", TRACE_CHILD, str(trees.tmp / side),
                           workload, str(seed), ",".join(EXTRA_TARGETS)],
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
    doc = {"args": vars(args), "workloads": {}, "flagged": []}
    with checkouts(args.parent, args.change) as trees:
        doc["revisions"] = trees.revs
        spec = json.loads((trees.tmp / "change" / "BENCHMARK.json").read_text())
        end_to_end = [m["name"] for m in spec["end_to_end"]]
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        for side, rev in trees.revs.items():
            print(f"{side}: {rev} at {trees.tmp / side}", flush=True)
            subprocess.run([sys.executable, "-c", WARM_UP, str(trees.tmp / side)],
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
                pair = {side: bench_run(trees, side, workload, seed, args.seconds)
                        for side in order}
                flag_pair(pair)
                for side in order:
                    run = pair[side]
                    runs.append(run)
                    shown = "  ".join(f"{n} = {run['metrics'][n]:.6g}" for n in end_to_end)
                    flags = f"  FLAGGED: {', '.join(run['flags'])}" if run["flags"] else ""
                    print(f"  seed {seed} {side:<6} {shown}  attempted {run['attempted']} "
                          f"failed {run['failed']}  exit {run['exit']}{flags}", flush=True)
                    if run["flags"]:
                        doc["flagged"].append({"workload": workload, "seed": seed,
                                               "side": side, "flags": run["flags"]})
            # a pair with a flagged run is left out of the summary
            flagged = {r["seed"] for r in runs if r["flags"]}
            clean = [r for r in runs if r["seed"] not in flagged]
            if flagged:
                print(f"  {len(flagged)} of {args.pairs} pairs left out: a run is flagged")
            value_names = (sorted(set.intersection(*(set(r["values"]) for r in clean)))
                           if clean else [])
            summary = {"end_to_end": summarize(clean, end_to_end, "metrics"),
                       "values": summarize(clean, value_names, "values")}
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
    if doc["flagged"]:
        print(f"{len(doc['flagged'])} runs flagged: incorrect, or more failed "
              "operations than the parent", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
