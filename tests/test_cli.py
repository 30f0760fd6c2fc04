"""Command dispatch, persistence, round trips, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hsvar
from hsvar import (DescentOptions, PathOptions, ProbeOptions, StatePair,
                   build_grid, energy, exact_solution)
from hsvar import io as hio
from hsvar.cli import RunConfig, run_command
from hsvar.grid import RadialFunction
from hsvar.io import pair_from_csv, pair_to_csv
from hsvar.params import ProblemParams


GRID = {"r_min": 1e-6, "r_max": 1e6, "n_nodes": 1024}
PARAMS = {"N": 4, "s": 1.0, "lambda1": 0.3, "lambda2": 0.5, "alpha": 1.4, "beta": 1.4}


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
    with pytest.raises(SystemExit):
        run_command(["frobnicate"])


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
    assert doc["t_star"] == pytest.approx(1.0, abs=1e-3)


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
    assert doc["empty"] is False


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, params={"lambda1": 2.0})
    code = run_command(["classify", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda1" in err


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
])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, content):
    cfg = tmp_path / "bad.json"
    if content is not None:
        cfg.write_text(content)
    argv = [a.format(missing=tmp_path / "nonexistent.json", cfg=cfg,
                     out=tmp_path / "out.csv") for a in argv]
    code = run_command(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solver_keys_reach_their_option_fields():
    cfg = RunConfig.from_dict({
        "params": PARAMS, "seed": 5,
        "solver": {"tol_grad": 1e-7, "max_iter": 12, "n_path_nodes": 9,
                   "max_sweeps": 4, "probe_ladder": [0.1, "0.01"],
                   "n_probe_dirs": 3}})
    assert cfg.options(DescentOptions) == DescentOptions(tol_grad=1e-7, max_iter=12)
    assert cfg.options(PathOptions) == PathOptions(n_path_nodes=9, max_sweeps=4)
    probe = cfg.options(ProbeOptions)
    assert probe == ProbeOptions(amplitudes=(0.1, 0.01), n_directions=3, seed=5)
    assert all(type(a) is float for a in probe.amplitudes)


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


def test_critical_coupling_constant_h_rejected_without_flag(tmp_path, capsys):
    # alpha + beta at the critical exponent with a non-vanishing weight
    cfg = write_config(tmp_path, params={"alpha": 1.5, "beta": 1.5, "nu": 0.1})
    code = run_command(["classify", "--config", cfg])
    assert code == 2
    capsys.readouterr()
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


def test_next_run_dir_retries_when_the_listing_is_stale(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    hio.next_run_dir(out)
    hio.next_run_dir(out)
    # a concurrent run created both directories after this one listed
    monkeypatch.setattr(hio.os, "listdir", lambda path: [])
    assert os.path.basename(hio.next_run_dir(out)) == "run-000003"
