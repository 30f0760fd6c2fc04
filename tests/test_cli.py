"""Command dispatch, persistence, round trips, determinism, exit codes."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hsvar
from hsvar import (DescentOptions, PathOptions, StatePair, build_grid, classify,
                   energy, exact_solution)
from hsvar import io as hio
from hsvar import closed_forms
from hsvar.cli import (COMMANDS, RunConfig, _check_weight, _csv_line, _load_config,
                       build_parser, run_command)
from hsvar.grid import RadialFunction
from hsvar.io import pair_from_csv, pair_to_csv
from hsvar.errors import ConfigError, HsvarError
from hsvar.params import ProblemParams, read_fields, real_number, text, whole_number
from hsvar.regimes import LemmaInstance, algebraic_inf, sweep_cells

from conftest import admissible_params


GRID = {"r_min": 1e-6, "r_max": 1e6, "n_nodes": 1024}
PARAMS = {"N": 4, "s": 1.0, "lambda1": 0.3, "lambda2": 0.5, "alpha": 1.4, "beta": 1.4}
# criterion 10: parameters that meet the min-max preconditions
PATH_PARAMS = {"N": 4, "s": 0.5, "lambda1": 0.1, "lambda2": 0.3, "alpha": 2.2,
               "beta": 1.2, "nu": 0.02}


def write_config(tmp_path, name="run.json", **overrides):
    doc = {
        "params": {"N": 4, "s": 1.0, "lambda1": 0.3, "lambda2": 0.5,
                   "alpha": 1.4, "beta": 1.4, "nu": 0.0,
                   "h_profile": {"kind": "constant", "c": 1.0}},
        "grid": dict(GRID),
        "solver": {"tol_grad": 1e-5, "max_iter": 2000},
        "output_dir": str(tmp_path / "runs"),
        "seed": 7,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in doc:
            doc[key].update(val)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_constants_output(capsys):
    code = run_command(["constants", "--N", "4", "--lambda", "0.5", "--s", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hardy_const"] == 1.0
    assert doc["crit_exp"] == 3.0
    assert doc["best_const"] > 0 and doc["crit_level"] > 0


def test_unknown_command_usage(capsys):
    # argparse's refusal used to raise SystemExit and print its usage block
    assert run_command(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "invalid choice: 'frobnicate'" in err
    # the refusal is that of the whole tree, which names every command
    listed = err.rsplit("(choose from ", 1)[1].rstrip(")\n")
    assert [c.strip("'") for c in listed.split(", ")] == list(COMMANDS)
    assert run_command([]) == 2
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


# one argv of each command
_ARGVS = [
    ["constants", "--N", "5", "--lambda", "0.3", "--s", "1"],
    ["evaluate", "--config", "run.json", "--profiles", "p.csv", "--nu", "0.1"],
    ["project", "--profiles", "p.csv", "--h", "bump:1,3", "--grid", "1e-6,1e6,512"],
    ["ground-state", "--config", "run.json", "--seed", "3", "--output-dir", "runs",
     "--small-nu"],
    ["mountain-pass", "--N", "4", "--s", "0.5", "--lambda1", "0.1", "--lambda2", "0.3",
     "--alpha", "2.2", "--beta", "1.2", "--nu", "0.02"],
    ["probe", "--which", "second", "--alpha", "2"],
    ["classify", "--N", "3", "--beta", "1.5", "--h", "constant:2"],
    ["lemma", "--A", "1", "--B", "2", "--theta", "3"],
    ["sweep", "--config", "sweep.json", "--out", "sweep.csv"],
]


def test_argvs_cover_every_command():
    assert [argv[0] for argv in _ARGVS] == list(COMMANDS)


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: argv[0])
def test_one_command_parser_reads_what_the_whole_tree_reads(argv):
    assert build_parser((argv[0],)).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv,built", [
    (["constants"], ("constants",)), (["lemma", "--A", "1"], ("lemma",)),
    ([], COMMANDS), (["frobnicate"], COMMANDS), (["classif"], COMMANDS),
    (["--bogus", "constants"], COMMANDS)])
def test_run_command_builds_the_parser_of_its_command(monkeypatch, capsys, argv, built):
    seen = []

    def recorded(commands=COMMANDS):
        seen.append(tuple(commands))
        return build_parser(commands)

    monkeypatch.setattr("hsvar.cli.build_parser", recorded)
    run_command(argv)
    assert seen == [built]


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out


def test_evaluate_and_project_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    grid = build_grid(4, **GRID)
    z = RadialFunction(grid, exact_solution(4, 0.3, 1.0, 1.0, grid.r))
    pair = StatePair(z, RadialFunction.zero(grid))
    csv_path = str(tmp_path / "profiles.csv")
    pair_to_csv(csv_path, pair)

    code = run_command(["evaluate", "--config", cfg, "--profiles", csv_path])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    pr = ProblemParams(4, 1.0, 0.3, 0.5, 1.4, 1.4, 0.0)
    assert doc["total"] == pytest.approx(energy(pair, pr).total, rel=1e-12)

    code = run_command(["project", "--config", cfg, "--profiles", csv_path])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"t_star", "residual"}
    assert doc["t_star"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("rows,message", [
    # a cell that is not a number used to end in numpy's traceback (1)
    (["abc,1,2"], "could not convert string 'abc'"),
    (["1,2", "3,4"], "expected columns r,u,v"),
    (["1,2,3", "4,5,6"], "2 rows, grid has 1024"),
    # a header-only file let numpy's two-line warning reach stderr first, and
    # one data row was refused as the wrong columns (a 1-D array)
    ([], "no data rows, grid has 1024"),
    (["1,2,3"], "1 rows, grid has 1024"),
    (None, "radii do not match the configured grid"),
])
@pytest.mark.filterwarnings("error")        # a warning would print before the error line
def test_malformed_profiles_csv_is_named(tmp_path, capsys, rows, message):
    path = tmp_path / "profiles.csv"
    if rows is None:        # the right shape on a grid with another r_min
        other = build_grid(4, 1e-5, 1e6, 1024)
        pair_to_csv(str(path), StatePair(RadialFunction.zero(other),
                                         RadialFunction.zero(other)))
    else:
        path.write_text("\n".join(["r,u,v", *rows]) + "\n")
    code = run_command(["evaluate", "--config", write_config(tmp_path),
                        "--profiles", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"error: {path}: ") and message in err


def test_profiles_csv_roundtrip_is_exact(tmp_path):
    grid = build_grid(4, **GRID)
    rng = np.random.default_rng(3)
    pair = StatePair(RadialFunction(grid, rng.normal(size=grid.n)),
                     RadialFunction(grid, rng.normal(size=grid.n)))
    path = str(tmp_path / "p.csv")
    pair_to_csv(path, pair)
    back = pair_from_csv(path, grid)
    assert np.array_equal(back.u.values, pair.u.values)
    assert np.array_equal(back.v.values, pair.v.values)


def test_ground_state_run_persists_and_reloads(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_command(["ground-state", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    run_dir = out["run_dir"]
    report = json.loads(open(os.path.join(run_dir, "report.json")).read())
    assert report["schema"] == 1
    assert report["kind"] == "ground_state"
    assert report["stop_reason"] == "tolerance"
    grid = build_grid(4, **GRID)
    pair = pair_from_csv(os.path.join(run_dir, "profiles.csv"), grid)
    pr = ProblemParams.from_dict(report["params"])
    assert energy(pair, pr).total == pytest.approx(report["energy"], rel=1e-9)


def test_deterministic_reruns_except_timestamp(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_command(["ground-state", "--config", cfg])
    d1 = json.loads(capsys.readouterr().out)["run_dir"]
    run_command(["ground-state", "--config", cfg])
    d2 = json.loads(capsys.readouterr().out)["run_dir"]
    assert d1 != d2

    def normalized(d):
        text = open(os.path.join(d, "report.json")).read()
        return re.sub(r'"timestamp": [0-9.e+-]+', '"timestamp": 0', text)

    assert normalized(d1) == normalized(d2)
    p1 = open(os.path.join(d1, "profiles.csv"), "rb").read()
    p2 = open(os.path.join(d2, "profiles.csv"), "rb").read()
    assert p1 == p2


def test_seed_and_output_dir_flags_set_the_run(tmp_path, capsys):
    # the flags override the document: --seed 7 --output-dir D runs what the
    # document form "seed": 7 runs, and writes it under D
    small = {"grid": {"n_nodes": 256}, "solver": {"max_iter": 20}}
    reports = {}
    for name, seed, flags in (("doc", 7, []), ("seed0", 0, []),
                              ("flags", 0, ["--seed", "7", "--output-dir",
                                            str(tmp_path / "flag_runs")])):
        cfg = write_config(tmp_path, f"{name}.json", seed=seed,
                           output_dir=str(tmp_path / f"{name}_runs"), **small)
        run_command(["ground-state", "--config", cfg, *flags])
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        reports[name] = json.load(open(os.path.join(run_dir, "report.json")))
        del reports[name]["timestamp"]
    assert os.path.dirname(run_dir) == str(tmp_path / "flag_runs")
    assert reports["flags"] == reports["doc"] != reports["seed0"]


def test_run_ids_monotonic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_command(["ground-state", "--config", cfg])
    run_command(["ground-state", "--config", cfg])
    names = sorted(os.listdir(tmp_path / "runs"))
    assert names == ["run-000001", "run-000002"]
    capsys.readouterr()


def test_classify_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_command(["classify", "--config", cfg])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["thm_mixed"]["case"] in ("ii", "both")
    assert doc["subcritical"] is True


def test_lemma_command(capsys):
    code = run_command(["lemma", "--A", "1.0", "--B", "1.0", "--theta", "3.0",
                        "--N", "4", "--s", "1.0", "--nu", "0.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inf"] == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("argv", [
    ["--N", "3", "--s", "0", "--A", "1", "--B", "1", "--theta", "2.015625", "--nu", "10"],
    ["--A", "1", "--B", "1e300", "--theta", "3", "--nu", "1e5"],
    # the scaling set is the whole half-line at theta = 2 and B nu >= A
    ["--A", "1", "--B", "1", "--theta", "2", "--nu", "2"]])
def test_lemma_root_below_the_float_range_is_zero(capsys, argv):
    # B nu > A: just above theta = 2 the root is below the float range, which
    # used to be refused (2); at theta = 2 the infimum is 0.0 as well
    assert run_command(["lemma", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["inf"] == 0.0


def test_lemma_root_near_2e8_is_found_without_overflow(capsys):
    assert run_command(["lemma", "--A", "1e100", "--B", "1", "--theta", "50",
                        "--nu", "1"]) == 0
    inf = json.loads(capsys.readouterr().out)["inf"]
    assert inf == pytest.approx(2.1544346900319e8, rel=1e-12)


def test_bump_weight_with_large_exponents_runs(tmp_path, capsys, monkeypatch):
    # the weight used to be nan far out, and the run ended with a nan energy (3)
    monkeypatch.chdir(tmp_path)
    code = run_command(["ground-state", "--nu", "1", "--h", "bump:400,400",
                        "--grid", "1e-6,1e6,256", *(f"--{k}={v}" for k, v in PARAMS.items())])
    assert code == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["energy"])


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, params={"lambda1": 2.0})
    code = run_command(["classify", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda1" in err


# critical coupling (alpha + beta = p = 3) with the default constant weight
CRITICAL = {**PARAMS, "alpha": 1.5, "beta": 1.5, "nu": 0.1}

# malformed input, and the field that its one-line message names; most of
# these used to run as other input: a non-whole integer field truncated, a
# "small_nu" string as true, an unknown weight kind as a bump
_NAMED_MALFORMED = [
    (["classify", "--config", "{cfg}"], json.dumps({"params": {**PARAMS, "N": 4.5}}),
     "N"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": {**PARAMS, "N": True}}),
     "N"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "grid": {"n_nodes": 1024.5}}), "grid.n_nodes"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": PARAMS, "seed": 7.5}),
     "seed"),
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"max_iter": 10.5}}), "solver.max_iter"),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PATH_PARAMS, "solver": {"n_path_nodes": 8.5}}),
     "solver.n_path_nodes"),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PATH_PARAMS, "solver": {"max_sweeps": "4.5"}}),
     "solver.max_sweeps"),
    (["classify", "--grid", "1e-6,1e6,1024.5", *(f"--{k}={v}" for k, v in PARAMS.items())],
     None, "grid.n_nodes"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": {"over": {"N": [4, 4.5]}}}), "N"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"lemma": {"A": 1.0, "B": 1.0, "theta": 3.0},
                 "sweep": {"command": "lemma", "over": {"N": [4.5]}}}), "N"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": CRITICAL, "small_nu": "false"}), "small_nu"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": PARAMS, "small_nu": 1}),
     "small_nu"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": CRITICAL, "small_nu": "false",
                 "sweep": {"over": {"nu": [0.1]}}}), "small_nu"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": {**PARAMS, "h_profile": {"kind": "gauss"}}}), "'gauss'"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": {"over": {"h_profile": [{"kind": "gauss"}]}}}),
     "'gauss'"),
    # a JSON true used to run as 1.0, a string that is not a number named no
    # field, and a flag value that does not convert printed a usage block
    (["classify", "--config", "{cfg}"], json.dumps({"params": {**PARAMS, "nu": True}}),
     "nu must be a number"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": {**PARAMS, "h_profile": {"kind": "constant", "c": True}}}),
     "h_profile.c must be a number"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"tol_grad": True}}),
     "solver.tol_grad must be a number"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "grid": {"r_min": True}}), "grid.r_min must be a number"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"lemma": {"A": 1.0, "B": True, "theta": 3.0},
                 "sweep": {"command": "lemma", "over": {"nu": [0.0]}}}),
     "B must be a number"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": {**PARAMS, "s": "abc"}}),
     "s must be a number, got 'abc'"),
    (["classify", "--N", "4.5"], None, "N must be a whole number"),
    (["classify", *(f"--{k}={v}" for k, v in {**PARAMS, "s": "abc"}.items())], None,
     "s must be a number, got 'abc'"),
    (["lemma", "--A", "1", "--B", "x", "--theta", "3"], None, "B must be a number"),
    (["constants", "--N", "4.5"], None, "N must be a whole number"),
    # output_dir used to reach os.makedirs after the whole solve (a TypeError)
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "output_dir": 5, "grid": {"n_nodes": 256},
                 "solver": {"max_iter": 2}}), "output_dir must be a string, got 5"),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": {**PARAMS, "h_profile": {"kind": 5}}}),
     "h_profile.kind must be a string, got 5"),
    # a sweep reuses the classification of a nu-free tuple it has seen, so a
    # bad nu first met on a seen tuple, and a bad tuple met with a seen nu,
    # must still be refused
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": {"over": {"lambda1": [0.1, 0.2],
                                                      "nu": [0.1, -1.0]}}}),
     "invalid problem parameters: nu\n"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": {"over": {"alpha": [1.5, 0.5], "nu": [0.1]}}}),
     "invalid problem parameters: alpha\n"),
    # an empty output_dir used to run the whole solve, then fail in
    # os.makedirs with a message that named no field
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "output_dir": "", "grid": {"n_nodes": 256},
                 "solver": {"max_iter": 2}}), "output_dir must be a non-empty string"),
    # a negative seed used to end in numpy's traceback (1) after the config
    # was read, and a section that is not an object named no field
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "seed": -1, "grid": {"n_nodes": 256}}),
     "seed must be non-negative, got -1"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": PARAMS, "grid": [1, 2, 3]}),
     "grid must be an object, got [1, 2, 3]"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": PARAMS, "solver": [1]}),
     "solver must be an object, got [1]"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"], json.dumps({"params": PARAMS}),
     "requires a 'sweep' section"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": {"command": "probe"}}),
     "unknown sweep command: 'probe'"),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"params": PARAMS, "sweep": [1]}), "sweep must be an object, got [1]"),
    # a section that is not an object was named by an AttributeError or the class
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"lemma": [1], "sweep": {"command": "lemma", "over": {"nu": [0.1]}}}),
     "lemma must be an object, got [1]"),
    (["classify", "--config", "{cfg}"], json.dumps({"params": [1, 2]}),
     "params must be an object, got [1, 2]"),
]


def _run_malformed(tmp_path, capsys, monkeypatch, argv, content):
    """Exit code and stderr of ``argv``, with ``content`` as its config."""
    monkeypatch.chdir(tmp_path)     # a solver that runs persists under ./runs
    cfg = tmp_path / "bad.json"
    if content is not None:
        cfg.write_text(content)
    argv = [a.format(missing=tmp_path / "nonexistent.json", cfg=cfg,
                     out=tmp_path / "out.csv") for a in argv]
    return run_command(argv), capsys.readouterr().err


@pytest.mark.parametrize("argv,content", [
    (["classify", "--config", "{missing}"], None),
    (["classify", "--config", "{cfg}"], "{not json"),
    (["classify", "--config", "{cfg}"], "[1, 2]"),
    (["sweep", "--config", "{cfg}"], "{not json"),
    (["ground-state", "--N", "4", "--grid", "4,1e-6"], None),
    (["ground-state", "--N", "4", "--grid", "1e-6,1e6,many"], None),
    (["classify", "--config", "{cfg}"], json.dumps({"params": {**PARAMS, "N": "four"}})),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "grid": {"n_nodes": "many"}})),
    (["classify", "--config", "{cfg}"], json.dumps({"params": PARAMS, "grid": [1, 2]})),
    (["classify", "--config", "{cfg}"], json.dumps({"params": [1, 2]})),
    (["classify", "--config", "{cfg}", "--N", "4"], json.dumps({"params": [1, 2]})),
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"max_iter": "lots"}})),
    (["sweep", "--config", "{cfg}", "--out", "{out}"],
     json.dumps({"sweep": {"over": {"nu": [0.0, 0.1]}}})),
    (["classify", "--h", "bump:1"], None),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"max_iter": "lots"}})),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"max_iters": 10}})),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"step0": 0.5}})),
    (["classify", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"probe_ladder": "x"}})),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PATH_PARAMS, "solver": {"n_path_nodes": 0}})),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PATH_PARAMS, "solver": {"n_path_nodes": -2}})),
    (["mountain-pass", "--config", "{cfg}"],
     json.dumps({"params": PATH_PARAMS, "solver": {"max_sweeps": -1}})),
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"max_iter": -5}})),
    (["ground-state", "--config", "{cfg}"],
     json.dumps({"params": PARAMS, "solver": {"tol_grad": -1e-6}})),
    (["probe", "--config", "{cfg}", "--which", "first"],
     json.dumps({"params": PARAMS, "solver": {"n_probe_dirs": 0}})),
    (["probe", "--config", "{cfg}", "--which", "first"],
     json.dumps({"params": PARAMS, "solver": {"probe_ladder": []}})),
    (["ground-state", "--nu", "inf",
      *(f"--{k}={v}" for k, v in PARAMS.items())], None),
    # an infinite weight parameter used to end in a nan energy (exit 3) or
    # an unnamed scale-iteration failure
    *((["ground-state", "--nu", "1", "--h", h,
        *(f"--{k}={v}" for k, v in PARAMS.items())], None)
      for h in ("bump:inf,2", "bump:2,inf", "constant:inf")),
    # a critical level beyond the float range used to end in an
    # OverflowError traceback
    (["classify", "--N", "200", "--s", "0.5", "--lambda1", "0.1", "--lambda2", "0.2",
      "--alpha", "1.005", "--beta", "1.005"], None),
    *((argv, content) for argv, content, _ in _NAMED_MALFORMED),
    # grid windows whose weights leave the float range used to end in numpy
    # warnings and a nan pair norm
    *((["ground-state", "--nu", "1", "--grid", window,
        *(f"--{k}={v}" for k, v in PARAMS.items())], None)
      for window in ("1e-6,inf,256", "1e-300,1e300,256")),
    # a negative seed flag used to end in numpy's traceback (1)
    (["ground-state", "--nu", "1", "--grid", "1e-6,1e6,256", "--seed", "-1",
      *(f"--{k}={v}" for k, v in PARAMS.items())], None),
    # what argparse refuses used to raise SystemExit out of run_command and
    # print its usage block: 5, 4, 4, 2 and 2 lines on stderr; the bare
    # command printed a 3-line usage to stdout
    (["probe", "--N", "4", "--which", "third"], None),
    (["classify", "--bogus", "1"], None),
    (["frobnicate"], None),
    (["lemma", "--B", "1", "--theta", "2"], None),
    (["sweep"], None),
    ([], None),
])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                              argv, content):
    code, err = _run_malformed(tmp_path, capsys, monkeypatch, argv, content)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,content,name", _NAMED_MALFORMED)
def test_malformed_field_is_named(tmp_path, capsys, monkeypatch, argv, content,
                                  name):
    code, err = _run_malformed(tmp_path, capsys, monkeypatch, argv, content)
    assert code == 2 and name in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", [4.5, "4.5", "4.0", True, math.inf, math.nan,
                                   None, "four", [4]])
def test_whole_number_refuses_the_rest(value):
    with pytest.raises(ConfigError, match=r"^N must be a whole number, got "):
        whole_number(value, "N")


@pytest.mark.parametrize("value", [True, False, None, "abc", "", [1.0], {"x": 1.0}, 1j])
def test_real_number_refuses_the_rest(value):
    with pytest.raises(ConfigError, match=r"^x must be a number, got "):
        real_number(value, "x")


@pytest.mark.parametrize("value", [5, 1.5, True, None, ["runs"], {"x": "runs"}])
def test_text_refuses_the_rest(value):
    with pytest.raises(ConfigError, match=r"^x must be a string, got "):
        text(value, "x")


@settings(max_examples=60, deadline=None)
@given(p=admissible_params())
def test_documents_and_flags_read_the_same_tuple(p):
    assert repr(ProblemParams.from_dict(p.to_dict())) == repr(p)
    h = p.h_profile
    spec = f"{h.kind}:" + ",".join(repr(getattr(h, k)) for k in h.KIND_PARAMS[h.kind])
    flags = [f"--{k}={v!r}" for k, v in p.to_dict().items() if k != "h_profile"]
    args = build_parser().parse_args(["classify", *flags, "--h", spec, "--small-nu"])
    assert repr(_load_config(args).params) == repr(p)


@pytest.mark.parametrize("command,params", [("ground-state", PARAMS),
                                            ("mountain-pass", PATH_PARAMS),
                                            ("classify", PARAMS)])
def test_infinite_nu_is_named(tmp_path, capsys, monkeypatch, command, params):
    # an infinite coupling used to reach the scale iteration, which gave up
    # on log t = nan without naming the input
    monkeypatch.chdir(tmp_path)
    argv = [f"--{k}={v}" for k, v in {**params, "nu": "inf"}.items()]
    assert run_command([command, *argv]) == 2
    assert capsys.readouterr().err == "error: invalid problem parameters: nu\n"


@pytest.mark.parametrize("spec,field", [("bump:inf,2", "p_exp"),
                                        ("bump:2,inf", "q_exp"),
                                        ("constant:inf", "c")])
def test_infinite_h_parameter_is_named(tmp_path, capsys, monkeypatch, spec,
                                       field):
    monkeypatch.chdir(tmp_path)
    argv = [f"--{k}={v}" for k, v in PARAMS.items()]
    assert run_command(["classify", "--nu", "1", "--h", spec, *argv]) == 2
    kind = spec.split(":")[0]
    assert capsys.readouterr().err == (
        f"error: {kind} h-profile requires finite {field} > 0\n")


def test_solver_keys_reach_their_option_fields():
    cfg = RunConfig.from_dict({
        "params": PARAMS,
        "solver": {"tol_grad": 1e-7, "max_iter": 12, "n_path_nodes": 9,
                   "max_sweeps": "4"}})
    assert cfg.options(DescentOptions) == DescentOptions(tol_grad=1e-7, max_iter=12)
    assert cfg.options(PathOptions) == PathOptions(n_path_nodes=9, max_sweeps=4)


def test_module_form_runs_the_command():
    src = os.path.dirname(os.path.dirname(hsvar.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hsvar.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = run("constants", "--N", "4")
    assert ok.returncode == 0
    assert "crit_exp" in json.loads(ok.stdout)
    assert run("classify", "--N", "abc").returncode == 2


def test_import_loads_no_scipy_sparse():
    # scipy.sparse adds 24-30 ms to every start-up of the package
    src = os.path.dirname(os.path.dirname(hsvar.__file__))
    code = ("import sys, hsvar, hsvar.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_critical_coupling_constant_h_rejected_without_flag(tmp_path, capsys):
    # alpha + beta at the critical exponent with a non-vanishing weight
    cfg = write_config(tmp_path, params={"alpha": 1.5, "beta": 1.5, "nu": 0.1})
    code = run_command(["classify", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "h_profile" in err and "small_nu" in err
    cfg = write_config(tmp_path, name="run2.json",
                       params={"alpha": 1.5, "beta": 1.5, "nu": 0.1},
                       small_nu=True)
    code = run_command(["classify", "--config", cfg])
    assert code == 0
    capsys.readouterr()


def test_probe_command(tmp_path, capsys):
    doc = {
        "params": {"N": 3, "s": 0.5, "lambda1": 0.12, "lambda2": 0.1,
                   "alpha": 1.5, "beta": 3.0, "nu": 1e-3,
                   "h_profile": {"kind": "constant", "c": 1.0}},
        "grid": {"r_min": 1e-6, "r_max": 1e6, "n_nodes": 1024},
        "output_dir": str(tmp_path / "runs"),
        "seed": 0,
    }
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(doc))
    code = run_command(["probe", "--config", str(cfg), "--which", "first"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["classification"] == "local_min"


def test_sweep_command(tmp_path, capsys):
    doc = {
        "params": {"N": 4, "s": 1.0, "lambda1": 0.3, "lambda2": 0.5,
                   "alpha": 1.4, "beta": 1.4, "nu": 0.1,
                   "h_profile": {"kind": "constant", "c": 1.0}},
        "sweep": {"over": {"lambda2": [0.2, 0.4, 0.6], "alpha": [1.2, 1.5]},
                  "workers": 2},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out_csv = str(tmp_path / "sweep.csv")
    code = run_command(["sweep", "--config", str(cfg), "--out", out_csv])
    assert code == 0
    capsys.readouterr()
    lines = open(out_csv).read().strip().splitlines()
    assert len(lines) == 1 + 6
    header = lines[0].split(",")
    assert "lambda2" in header and "thm_mixed" in header


def test_ground_state_decoupled_cli_hits_level(tmp_path, capsys):
    from hsvar import critical_level
    cfg = write_config(tmp_path, grid={"n_nodes": 2048},
                       solver={"tol_grad": 1e-6, "max_iter": 5000})
    code = run_command(["ground-state", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["energy"] == pytest.approx(critical_level(4, 0.3, 1.0), rel=1e-3)


def test_sweep_rows_complete_an_incomplete_base(tmp_path, capsys):
    base = {k: v for k, v in PARAMS.items() if k != "lambda2"}
    doc = {"params": base, "sweep": {"over": {"lambda2": [0.2, 0.4]}}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    out_csv = str(tmp_path / "sweep.csv")
    code = run_command(["sweep", "--config", str(cfg), "--out", out_csv])
    assert code == 0
    capsys.readouterr()
    assert len(open(out_csv).read().strip().splitlines()) == 1 + 2


def test_sweep_lemma_mode(tmp_path, capsys):
    doc = {
        "lemma": {"A": 1.0, "B": 1.0, "theta": 3.0, "N": 4, "s": 1.0},
        "sweep": {"command": "lemma", "over": {"nu": [0.0, 0.01, 0.1]}},
    }
    cfg = tmp_path / "lemma_sweep.json"
    cfg.write_text(json.dumps(doc))
    out_csv = str(tmp_path / "lemma.csv")
    code = run_command(["sweep", "--config", str(cfg), "--out", out_csv])
    assert code == 0
    capsys.readouterr()
    lines = open(out_csv).read().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "nu"


def test_lemma_defaults_agree_between_lemma_and_sweep(tmp_path, capsys):
    # s, N and nu left out: both commands fill in the same defaults
    assert run_command(["lemma", "--A", "2.0", "--B", "1.0", "--theta", "3.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "lemma_sweep.json"
    cfg.write_text(json.dumps({"lemma": {"A": 2.0, "B": 1.0},
                               "sweep": {"command": "lemma",
                                         "over": {"theta": [3.0]}}}))
    out_csv = str(tmp_path / "lemma.csv")
    assert run_command(["sweep", "--config", str(cfg), "--out", out_csv]) == 0
    capsys.readouterr()
    header, row = open(out_csv).read().strip().splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert float(got["inf"]) == doc["inf"]
    assert float(got["decoupled_inf"]) == doc["decoupled_inf"]


@pytest.mark.parametrize("sweep,key", [
    ({"over": [1, 2]}, "sweep.over"),
    ({"over": {"nu": "12"}}, "sweep.over.nu"),
    ({"over": {"nu": 0.1}}, "sweep.over.nu"),
    ({"over": {"nuu": [0.1, 0.2]}}, "sweep.over.nuu"),
    ({"over": {"critical": [True]}}, "sweep.over.critical"),
    ({"command": "lemma", "over": {"lambda1": [0.1]}}, "sweep.over.lambda1"),
    ({"command": "lemma", "over": {"inf": [1.0]}}, "sweep.over.inf"),
])
def test_sweep_over_must_map_fields_to_arrays(tmp_path, capsys, sweep, key):
    # a list used to end in a traceback, a string swept its characters, and
    # a key that is no field wrote identical rows or replaced a report column
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"params": {**PARAMS, "nu": 0.1},
                               "lemma": {"A": 1.0, "B": 1.0, "theta": 3.0},
                               "sweep": sweep}))
    out_csv = tmp_path / "out.csv"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("field,value", [("A", 1e300), ("A", math.inf), ("B", math.inf),
                                         ("theta", math.inf), ("nu", math.inf),
                                         ("B", 1e300)])
def test_lemma_refuses_non_finite_input(tmp_path, capsys, field, value):
    # these used to exit 0 with an empty set or the bottom of the sigma
    # grid, or end in an OverflowError traceback
    args = {"A": 1.0, "B": 1.0, "theta": 3.0, field: value}
    if (field, value) == ("B", 1e300):
        args["nu"] = 1e300      # the coupling factor B nu overflows
    assert run_command(["lemma", *(f"--{k}={v}" for k, v in args.items())]) == 2
    assert f"instance: {field}" in capsys.readouterr().err
    cfg = tmp_path / "lemma_sweep.json"
    cfg.write_text(json.dumps({"lemma": args, "sweep": {"command": "lemma",
                                                        "over": {field: [value]}}}))
    out_csv = str(tmp_path / "lemma.csv")
    assert run_command(["sweep", "--config", str(cfg), "--out", out_csv]) == 2
    err = capsys.readouterr().err
    assert f"instance: {field}" in err and err.count("\n") == 1


def test_sweep_quotes_values_with_commas(tmp_path, capsys):
    profiles = [{"kind": "bump"}, {"kind": "constant", "c": 2}]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"params": {**PARAMS, "nu": 0.1},
                               "sweep": {"over": {"h_profile": profiles}}}))
    out_csv = tmp_path / "sweep.csv"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    capsys.readouterr()
    with open(out_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 2
    for row, h in zip(rows, profiles):
        assert list(row) == reader.fieldnames and None not in row.values()
        assert row["h_profile"] == str(h)


_SWEEP_COLUMNS = ["subcritical", "critical", "thm_large_nu", "thm_mixed",
                  "thm_small_nu", "thm_minmax"]


def _report_cells(rep):
    return (rep.subcritical, rep.critical, rep.thm_large_nu["applicable"],
            rep.thm_mixed["case"], rep.thm_small_nu["case"], rep.thm_minmax["case"])


def _row_by_row(params: dict, over: dict, small_nu: bool = False) -> tuple:
    """The exit code and the CSV text or the one error line of a classify
    sweep made row by row: ProblemParams and classify for every row in
    product order, the weight gate, and csv.writer."""
    names = sorted(over)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(names + _SWEEP_COLUMNS)
    try:
        for combo in itertools.product(*(over[n] for n in names)):
            rep = classify(ProblemParams.from_dict({**params, **dict(zip(names, combo))}))
            _check_weight(rep.thm_large_nu["applicable"], small_nu)
            writer.writerow([str(x) for x in combo] + list(_report_cells(rep)))
    except HsvarError as exc:
        return 2, f"error: {exc}\n"
    return 0, ref.getvalue()


def _sweep_outcome(tmp, params: dict, over: dict, small_nu: bool = False) -> tuple:
    """The exit code and the CSV text or the stderr of ``hsvar sweep``,
    run in the directory ``tmp``."""
    cfg = tmp / "sweep.json"
    cfg.write_text(json.dumps({"params": params, "small_nu": small_nu,
                               "sweep": {"over": over}}))
    out_csv = tmp / "sweep.csv"
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)])
    if code:
        assert not out_csv.exists()
        return code, err.getvalue()
    return code, out_csv.read_bytes().decode()


# values that compare equal but print differently, and repeats
_SWEEP_VALUES = {
    "N": [4, 4.0],
    "s": [0, 0.0, -0.0, 0.5],
    "lambda1": [0.25, 0.5, 0.5],
    # a tie with lambda1 (boundary), and values below and above it: the
    # separation window holds in orientation (ii) at (0.25, 0.1) and in (i)
    # at (0.5, 0.6)
    "lambda2": [0.5, 0.1, 0.6],
    "alpha": [2, 2.0, 1.5, 1.25],
    "nu": [0, 0.0, -0.0, 1, 1.0, 0.1],
    # a cell with commas, which the CSV quotes
    "h_profile": [{"kind": "bump"}, {"kind": "bump", "p_exp": 1.0, "q_exp": 3.0}],
}


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    k: st.lists(st.sampled_from(v), min_size=0, max_size=3)
    for k, v in _SWEEP_VALUES.items()}))
def test_sweep_writes_the_rows_classify_gives(tmp_path_factory, over):
    # beta = 1.5 keeps every row admissible: alpha + beta <= 3.5 = p at s = 0.5
    base = {**PARAMS, "s": 0.5, "beta": 1.5, "nu": 0.1,
            "h_profile": {"kind": "bump"}}
    want = _row_by_row(base, over)
    assert want[0] == 0
    assert _sweep_outcome(tmp_path_factory.mktemp("sweep"), base, over) == want


_BUMP = {"kind": "bump"}
_CONSTANT = {"kind": "constant", "c": 1.0}
# at s = 0 and N = 4, p = 4: alpha = beta = 2 is critical, admissible with bump h
_TIES = {"N": 4, "s": 0.0, "lambda1": 0.3, "lambda2": 0.3, "alpha": 2.0, "beta": 2.0,
         "nu": 0.1, "h_profile": _BUMP}


@pytest.mark.parametrize("params,over,small_nu", [
    # s sorts after nu, so nu is not the innermost axis
    ({**PARAMS, "s": 0.5}, {"s": [0.5, 0.0, 0.25], "nu": [0.1, 0.0, 1.0],
                            "lambda2": [0.5, 0.3, 0.1], "alpha": [1.25, 2.0]}, False),
    # at s = 0.5, p = 3.5: alpha = 2.1 is critical, where h decides the gate
    ({**PARAMS, "s": 0.5}, {"h_profile": [_CONSTANT, _BUMP], "alpha": [1.25, 2.0, 2.1],
                            "nu": [0.0, 0.5]}, True),
    # ties: alpha = 2, beta = 2, lambda1 = lambda2, alpha + beta = p with bump h
    (_TIES, {"alpha": [2.0, 1.5], "beta": [2.0, 1.5], "lambda1": [0.3, 0.1, 0.5],
             "nu": [0.1, 1.0]}, False),
    # critical coupling with constant h (alpha + beta = 3.5 = p at s = 0.5)
    # runs only when flagged small_nu
    ({**_TIES, "beta": 1.5, "h_profile": _CONSTANT},
     {"alpha": [2.0, 1.5], "lambda2": [0.3, 0.6], "nu": [0.01, 0.1], "s": [0.0, 0.5]},
     True),
    # nu not swept
    ({**PARAMS, "nu": 0.1}, {"alpha": [1.25, 1.5], "lambda1": [0.3, 0.5, 0.7]}, False),
    # an empty axis before, at and after nu: no rows, and nothing is built
    (PARAMS, {"alpha": [], "nu": [0.1, -1.0]}, False),
    (PARAMS, {"alpha": [0.5], "nu": []}, False),
    (PARAMS, {"lambda1": [0.3, 9.0], "nu": [-1.0], "s": []}, False),
])
def test_sweep_writes_the_bytes_of_a_row_by_row_sweep(tmp_path, params, over, small_nu):
    want = _row_by_row(params, over, small_nu)
    assert want[0] == 0
    assert _sweep_outcome(tmp_path, params, over, small_nu) == want


@pytest.mark.parametrize("params,over,error", [
    # the sweep cases of test_malformed_field_is_named have nu innermost.
    # With s swept after nu: a bad nu first met after a new nu-free tuple,
    # before a bad tuple of a later block
    ({**PARAMS, "s": 0.5}, {"lambda1": [0.1, 9.0], "nu": [0.1, -1.0],
                            "s": [0.5, 0.25]}, "nu"),
    # a bad tuple of the first block comes before the rows of the second nu
    ({**PARAMS, "s": 0.5}, {"nu": [0.1, -1.0], "s": [0.5, 2.5]}, "s"),
    # a bad tuple first met with a seen nu, in the first block and in a later one
    ({**PARAMS, "s": 0.5}, {"lambda1": [0.1, 0.2], "nu": [0.1, 0.2],
                            "s": [0.5, 2.5]}, "s"),
    ({**PARAMS, "s": 0.5}, {"lambda1": [0.1, 9.0], "nu": [0.1, 0.2, -1.0],
                            "s": [0.5]}, "nu"),
    ({**PARAMS, "s": 0.5}, {"lambda1": [0.1, 9.0], "nu": [0.1, 0.2], "s": [0.5]},
     "lambda1"),
    # a row refused by the weight gate before an invalid row, and after one
    ({**_TIES, "h_profile": _CONSTANT}, {"nu": [0.1, -1.0], "s": [0.0, 0.5]},
     "small_nu"),
    ({**_TIES, "h_profile": _CONSTANT}, {"nu": [0.1, -1.0], "s": [0.5, 0.0]},
     "alpha+beta"),
    # a bad tuple and a bad nu on the first row are named together
    (PARAMS, {"alpha": [0.5], "nu": [-1.0, 0.1], "s": [0.5]}, "alpha, nu"),
])
def test_sweep_reports_the_error_of_a_row_by_row_sweep(tmp_path, params, over, error):
    code, err = _sweep_outcome(tmp_path, params, over)
    assert (code, err) == _row_by_row(params, over)
    assert code == 2 and error in err and err.count("\n") == 1


# valid and invalid values of each axis; at s = 1, p = 3 and alpha = 2 makes
# alpha + beta = 3.4 > p
_MIXED_VALUES = {
    "s": [0.5, 0.0, 2.5, 1.0],
    "nu": [0.1, 0.0, -1.0],
    "lambda1": [0.3, 0.5, 9.0],
    "alpha": [1.4, 2.0, 0.5],
    "h_profile": [_BUMP, _CONSTANT],
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    k: st.lists(st.sampled_from(v), min_size=0, max_size=3)
    for k, v in _MIXED_VALUES.items()}), st.booleans())
def test_sweep_is_a_row_by_row_sweep(tmp_path_factory, over, small_nu):
    params = {**PARAMS, "s": 0.5, "nu": 0.1}
    assert (_sweep_outcome(tmp_path_factory.mktemp("sweep"), params, over, small_nu)
            == _row_by_row(params, over, small_nu))


def test_lemma_sweep_writes_the_rows_algebraic_inf_gives(tmp_path, capsys):
    lemma = {"B": 1.0, "theta": 3.0, "N": 4, "s": 1.0}
    over = {"nu": [0, 0.0, -0.0, 0.01, 1e-4], "A": [1, 1.0, 2.5]}
    cfg = tmp_path / "lemma_sweep.json"
    cfg.write_text(json.dumps({"lemma": lemma,
                               "sweep": {"command": "lemma", "over": over}}))
    out_csv = tmp_path / "lemma.csv"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    capsys.readouterr()
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["A", "nu", "inf", "decoupled_inf"])
    for a, nu in itertools.product(over["A"], over["nu"]):
        inst = read_fields(LemmaInstance, {**lemma, "A": a, "nu": nu})
        writer.writerow([str(a), str(nu), algebraic_inf(inst), inst.decoupled_inf])
    assert out_csv.read_bytes() == ref.getvalue().encode()


_CELLS = st.one_of(
    st.text(alphabet=st.sampled_from('ab ,"\r\n\'0.-'), max_size=6),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.integers(), st.booleans(),
    st.dictionaries(st.sampled_from(["kind", "c"]),
                    st.one_of(st.text(max_size=3), st.floats()), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=4))
def test_csv_line_is_the_line_csv_writer_writes(cells):
    ref = io.StringIO()
    csv.writer(ref, lineterminator="\n").writerow(cells)
    assert _csv_line(cells) + "\n" == ref.getvalue()


def test_sweep_classifies_each_nu_free_tuple_once(tmp_path, capsys, monkeypatch):
    # a sweep reads a row's cells from regimes.sweep_cells, not from a report
    calls = []

    def counted(params):
        calls.append(params)
        return sweep_cells(params)

    monkeypatch.setattr("hsvar.cli.sweep_cells", counted)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"params": PARAMS, "sweep": {"over": {
        "lambda1": [0.1, 0.2], "nu": [0.0, 0.1, 1.0]}}}))
    out_csv = tmp_path / "sweep.csv"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == f"wrote 6 rows to {out_csv}\n"
    assert [p.lambda1 for p in calls] == [0.1, 0.2]


def _counted_sweep(tmp_path, monkeypatch, params, over):
    """Run a classify sweep; return the report cells each _csv_line call
    rendered, in order, and the evaluations of the separability helper."""
    rendered = []

    def counted(cells):
        # a report has 6 cells, a swept value 1 and the header more than 6
        if len(cells) == 6:
            rendered.append(tuple(cells))
        return _csv_line(cells)

    monkeypatch.setattr("hsvar.cli._csv_line", counted)
    closed_forms._separability.cache_clear()
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"params": params, "sweep": {"over": over}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["sweep", "--config", str(cfg),
                            "--out", str(tmp_path / "sweep.csv")]) == 0
    return rendered, closed_forms._separability.cache_info().misses


def test_sweep_renders_each_report_and_tests_each_lambda_pair_once(tmp_path,
                                                                   monkeypatch):
    # lambda1 = lambda2 = 0.3 is a tie; alpha makes 12 classified tuples of
    # 6 lambda pairs, and nu repeats each tuple
    over = {"lambda1": [0.1, 0.3], "lambda2": [0.3, 0.5, 0.6], "alpha": [1.2, 1.4],
            "nu": [0.0, 0.1]}
    rendered, evaluated = _counted_sweep(tmp_path, monkeypatch, PARAMS, over)
    names = sorted(over)
    reports = {_report_cells(classify(ProblemParams.from_dict(
        {**PARAMS, **dict(zip(names, combo))})))
        for combo in itertools.product(*(over[n] for n in names))}
    assert len(reports) > 1 and sorted(rendered) == sorted(reports)
    assert evaluated == 6


def test_benchmark_grid_renders_27_reports_and_tests_64_lambda_pairs(tmp_path,
                                                                     monkeypatch):
    # the 6,400-row grid of the benchmark's sweep workload at seed 1
    # (perfbench/workloads.py): 1,600 classified tuples
    rng = np.random.default_rng(1)
    lams = sorted(rng.uniform(0.005, 0.245, 8).tolist())
    exps = sorted([2.0, 2.5] + rng.uniform(1.05, 2.5, 3).tolist())
    nus = sorted((10.0 ** rng.uniform(-4.0, 1.0, 4)).tolist())
    params = {"N": 3, "s": 0.5, "lambda1": 0.1, "lambda2": 0.2, "alpha": 1.5,
              "beta": 1.5, "nu": 0.01,
              "h_profile": {"kind": "bump", "p_exp": 2.0, "q_exp": 2.0}}
    over = {"lambda1": lams, "lambda2": lams, "alpha": exps, "beta": exps, "nu": nus}
    rendered, evaluated = _counted_sweep(tmp_path, monkeypatch, params, over)
    assert len(rendered) == len(set(rendered)) == 27
    assert evaluated == 64


def test_empty_lemma_sweep_writes_the_full_header(tmp_path, capsys):
    # an empty array used to leave the report columns out of the header
    cfg = tmp_path / "lemma_sweep.json"
    cfg.write_text(json.dumps({"lemma": {"A": 1.0, "B": 1.0, "theta": 3.0},
                               "sweep": {"command": "lemma",
                                         "over": {"nu": [], "A": [1.0, 2.0]}}}))
    out_csv = tmp_path / "lemma.csv"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == f"wrote 0 rows to {out_csv}\n"
    assert out_csv.read_text() == "A,nu,inf,decoupled_inf\n"


def test_mountain_pass_cli(tmp_path, capsys):
    doc = {
        "params": {"N": 4, "s": 0.5, "lambda1": 0.1, "lambda2": 0.3,
                   "alpha": 2.2, "beta": 1.2, "nu": 0.02,
                   "h_profile": {"kind": "constant", "c": 1.0}},
        "grid": {"r_min": 1e-6, "r_max": 1e6, "n_nodes": 1024},
        "solver": {"n_path_nodes": 12, "max_sweeps": 60},
        "output_dir": str(tmp_path / "runs"),
        "seed": 0,
    }
    cfg = tmp_path / "mp.json"
    cfg.write_text(json.dumps(doc))
    code = run_command(["mountain-pass", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 3)
    report = json.loads(open(os.path.join(out["run_dir"], "report.json")).read())
    assert report["kind"] == "mountain_pass"
    assert (code == 0) == (report["stop_reason"] == "tolerance")
    lv = report["level_diagnostics"]
    assert lv["level_1"] < report["energy"] < 3 * lv["level_2"]


# the bump-h tuple of the min-max path: at nu = 0.5 it reaches its crest
# tolerance, at nu = 0.02 on 1024 nodes it stops at max_sweeps
BUMP_PATH = ["--N", "4", "--s", "0.5", "--lambda1", "0.1", "--lambda2", "0.3",
             "--alpha", "2.2", "--beta", "1.2", "--h", "bump:2,2"]


@pytest.mark.parametrize("argv,code", [(["--nu", "0.5"], 0),
                                       (["--nu", "0.02", "--grid", "1e-6,1e6,1024"], 3)])
def test_mountain_pass_exit_code_follows_its_stop(tmp_path, capsys, argv, code):
    assert run_command(["mountain-pass", *BUMP_PATH, *argv,
                        "--output-dir", str(tmp_path / "runs")]) == code
    out = json.loads(capsys.readouterr().out)
    report = json.loads(open(os.path.join(out["run_dir"], "report.json")).read())
    assert report["converged"] is (code == 0)
    resamples = report["extra"]["resamples"]
    assert type(resamples) is int and resamples < 2 * report["iterations"]
    assert type(report["extra"]["trials"]) is int


def test_stalled_path_exits_3(tmp_path, capsys):
    # criterion 10 has no interior crest: given 150 sweeps, its least crest
    # gradient stops falling by 1% after sweep 4, and the path stops at 54
    cfg = tmp_path / "stall.json"
    cfg.write_text(json.dumps({"solver": {"n_path_nodes": 24, "max_sweeps": 150}}))
    argv = [f"--{k}={v}" for k, v in PATH_PARAMS.items()]
    assert run_command(["mountain-pass", *argv, "--grid", "1e-6,1e6,1024",
                        "--config", str(cfg),
                        "--output-dir", str(tmp_path / "runs")]) == 3
    out = json.loads(capsys.readouterr().out)
    report = json.loads(open(os.path.join(out["run_dir"], "report.json")).read())
    assert out["stop_reason"] == report["stop_reason"] == "stall"
    assert report["iterations"] == 54 and report["converged"] is False


def test_path_without_improvement_exits_3(tmp_path, capsys):
    # criterion 10 on two segments: the crest has no interior neighbor, its
    # climb fails at sweep 6, and no node moves
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps({"solver": {"n_path_nodes": 2}}))
    argv = [f"--{k}={v}" for k, v in PATH_PARAMS.items()]
    assert run_command(["mountain-pass", *argv, "--grid", "1e-6,1e6,512",
                        "--config", str(cfg),
                        "--output-dir", str(tmp_path / "runs")]) == 3
    out = json.loads(capsys.readouterr().out)
    report = json.loads(open(os.path.join(out["run_dir"], "report.json")).read())
    assert out["stop_reason"] == report["stop_reason"] == "no_improvement"
    assert report["iterations"] == 7 and report["converged"] is False


@pytest.mark.parametrize("lambda1", ["0.1", "0.3", "0.30000000000000004"])
def test_mountain_pass_refuses_a_tuple_classify_calls_none(tmp_path, capsys,
                                                          monkeypatch, lambda1):
    # alpha < 2: at lambda1 = 0.1 window (i) holds but the matching exponent
    # does not; 0.1 * 3 is lambda2 = 0.3 one rounding up, a tie in
    # params.order, refused as at 0.3
    monkeypatch.chdir(tmp_path)
    argv = ["--N", "4", "--s", "0.5", "--lambda1", lambda1, "--lambda2", "0.3",
            "--alpha", "1.2", "--beta", "2.2", "--nu", "0.5"]
    assert run_command(["classify", *argv]) == 0
    minmax = json.loads(capsys.readouterr().out)["thm_minmax"]
    assert minmax["case"] == "none" and minmax["cond_i"] is (lambda1 == "0.1")
    assert run_command(["mountain-pass", *argv, "--grid", "1e-6,1e6,512"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_collapsed_path_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # classify admits the tuple (case ii), so it is valid input on which the
    # path finds no crest: a solver outcome, not a validation error
    monkeypatch.chdir(tmp_path)
    argv = ["--N", "3", "--s", "0", "--lambda1", "0.125", "--lambda2", "0.0625",
            "--alpha", "2", "--beta", "2", "--nu", "1"]
    assert run_command(["classify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["thm_minmax"]["case"] == "ii"
    code = run_command(["mountain-pass", *argv, "--grid", "1e-6,1e6,512"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: path maximum collapsed onto an endpoint\n")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv,overrides,field,value", [
    # foreign exponent beta = 2.2 > 2 at (z1, 0): the threshold nu* is inf
    (["probe", "--which", "first"],
     {"params": {"N": 3, "s": 0.5, "lambda1": 0.12, "lambda2": 0.1,
                 "alpha": 2.0, "beta": 2.2, "nu": 1e-3}, "solver": {}},
     ("extra", "nu_star"), "inf"),
])
def test_report_json_is_strict_json(tmp_path, capsys, argv, overrides, field,
                                    value):
    doc = json.loads(open(write_config(tmp_path)).read())
    doc["params"].update(overrides["params"])
    doc["solver"] = overrides["solver"]
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps(doc))
    run_command(argv + ["--config", str(cfg)])
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    text = open(os.path.join(out["run_dir"], "report.json")).read()
    report = json.loads(text, parse_constant=_reject_constant)
    for key in field:
        report = report[key]
    assert report == value


def test_dumps_writes_non_finite_floats_as_strings():
    doc = {"a": [math.inf, -math.inf, math.nan, 1.5],
           "b": np.array([np.inf, 2.0]), "c": np.float32("nan"),
           "d": (np.int64(3), np.bool_(True))}
    back = json.loads(hio.dumps(doc), parse_constant=_reject_constant)
    assert back == {"a": ["inf", "-inf", "nan", 1.5], "b": ["inf", 2.0],
                    "c": "nan", "d": [3, True]}


def test_next_run_dir_retries_when_the_listing_is_stale(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    hio.next_run_dir(out)
    hio.next_run_dir(out)
    # a concurrent run created both directories after this one listed
    monkeypatch.setattr(hio.os, "listdir", lambda path: [])
    assert os.path.basename(hio.next_run_dir(out)) == "run-000003"
