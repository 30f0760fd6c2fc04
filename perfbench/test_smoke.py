"""Smoke test of the benchmark itself, at reduced sizes.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
Each workload runs once per mode through the real command line; the test
fails if a metric named in ``BENCHMARK.json`` is missing or has another
unit, or if a correctness check is violated.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_operation_counts_do_not_depend_on_repetitions():
    counts = []
    for seconds in ("0.001", "2"):
        proc = run_bench(ROOT, "--workload", "probe", "--seed", "7", "--seconds", seconds,
                         "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def bench():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import hsvar
    import hsvar.cli
    import workloads
    yield hsvar, workloads
    del sys.path[:2]


def test_checks_catch_a_wrong_level(bench):
    hs, wl = bench
    work = wl.WORKLOADS["mountain-pass"]
    state = work.setup(hs, 0, True, {})
    report = work.run(state)
    assert not work.check(state, report).violations
    wrong = dataclasses.replace(report, energy=report.energy * 1.5)
    assert work.check(state, wrong).violations


def test_checks_catch_a_wrong_sweep(bench, tmp_path):
    hs, wl = bench
    work = wl.WORKLOADS["sweep"]
    state = work.setup(hs, 0, True, {"cli": hs.cli, "nproc": 2, "workdir": tmp_path})
    result = work.run(state)
    assert not work.check(state, result).violations
    assert not work.finish(state).violations
    serial = Path(result["w1"][2])
    serial.write_text(serial.read_text().replace("True", "False", 1))
    assert work.check(state, result).violations
    assert work.finish(state).violations
