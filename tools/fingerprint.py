"""Print a bit-level fingerprint of hsvar's solver results.

Usage, from anywhere::

    python3 tools/fingerprint.py [CHECKOUT]

``CHECKOUT`` is the root of an hsvar checkout (default: the one holding this
script); its ``src/hsvar`` is imported and its ``perfbench/workloads.py``
builds the inputs, read-only.  The script runs the four benchmark workloads
at seed 1 and the bump-h crest of ``tests/test_solvers.py`` at
``crest_grad_tol=1e-9`` on 4096 nodes, and prints one line per solver
result: ``float.hex`` of the energy and of the gradient norm, the counts
(iterations, restarts, trials, resamples), the crest index, the stop reason
and short hashes of the profiles and of the traces; a min-max line adds the
chain projections made in the plane of the two extremals, a probe line the
label and nu*, a flip line the labels and the bracket, and the sweep one
hash per CSV.  Two checkouts that compute the same bits print the same
lines, so a refactor that claims to move no value is checked by diffing::

    python3 tools/fingerprint.py old > old.txt
    python3 tools/fingerprint.py new > new.txt
    diff old.txt new.txt

BLAS is pinned to one thread before numpy loads, as in the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hsvar as hs  # noqa: E402
import hsvar.cli  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1


def _hash(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()[:16]


def _hex(x) -> str:
    return float(x).hex()


def report_line(name: str, rep) -> str:
    """One line of a SolverReport: every number that a refactor may move."""
    ex, pair = rep.extra, rep.profiles
    traces = [[_hex(v) for v in rep.trace],
              [_hex(v) for v in ex.get("gradient_norm_trace", [])]]
    fields = [name, f"E={_hex(rep.energy)}", f"grad={_hex(rep.gradient_norm)}",
              f"it={rep.iterations}", f"restarts={ex.get('restarts')}",
              f"trials={ex.get('trials')}", f"resamples={ex.get('resamples')}",
              f"crest={ex.get('crest_index')}", f"stop={rep.stop_reason}",
              f"profiles={_hash(pair.u.values.tobytes(), pair.v.values.tobytes())}",
              f"traces={_hash(traces)}"]
    if "plane_projections" in ex:
        fields.append(f"plane={ex['plane_projections']}")
    if rep.kind == "semitrivial_probe":
        fields += [f"label={rep.classification}", f"nu*={_hex(ex['nu_star'])}"]
    return " ".join(fields)


def ground_state():
    st = wl.setup_ground_state(hs, SEED, False, {})
    reports, params7, rep7 = wl.run_ground_state(st)
    for (N, s, lam, _, _), rep in zip(st["cases"], reports):
        yield report_line(f"ground-state N={N} s={s} lambda1={lam}", rep)
    yield f"ground-state escalated nu={_hex(params7.nu)}"
    yield report_line("ground-state coupled", rep7)


def mountain_pass():
    yield report_line("mountain-pass criterion-10",
                      wl.run_mountain_pass(wl.setup_mountain_pass(hs, SEED, False, {})))


def bump_h_crest():
    pr = hs.ProblemParams(4, 0.5, 0.1, 0.3, 2.2, 1.2, 0.5,
                          hs.HProfile("bump", p_exp=2.0, q_exp=2.0))
    rep = hs.mountain_pass(pr, hs.build_grid(4, 1e-6, 1e6, 4096),
                           hs.PathOptions(n_path_nodes=32, max_sweeps=150,
                                          crest_grad_tol=1e-9))
    yield report_line("bump-h crest 1e-9", rep)


def probe():
    for seed, reports, flip in wl.run_probe(wl.setup_probe(hs, SEED, False, {})):
        for (which, a, b, nu, _), rep in zip(wl.PROBE_MATRIX, reports):
            yield report_line(f"probe seed={seed} {which} alpha={a} beta={b} nu={nu}",
                              rep)
        labels = " ".join(f"{_hex(nu)}:{lab}"
                          for nu, lab in sorted(flip["labels"].items()))
        yield (f"flip seed={seed} found={flip['flip_found']} nu*={_hex(flip['nu_star'])} "
               f"bracket={_hex(flip['bracket'][0])},{_hex(flip['bracket'][1])} "
               f"labels={labels}")


def sweep():
    with tempfile.TemporaryDirectory() as tmp:
        env = {"cli": hsvar.cli, "nproc": 1, "workdir": Path(tmp) / "work"}
        st = wl.setup_sweep(hs, SEED, False, env)
        for key, (code, _, path) in wl.run_sweep(st).items():
            yield f"sweep {key} exit={code} csv={_hash(Path(path).read_bytes())}"


def main() -> int:
    for part in (ground_state, mountain_pass, bump_h_crest, probe, sweep):
        for line in part():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
