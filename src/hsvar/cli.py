"""Command-line interface: configuration ingestion, dispatch, persistence.

Subcommands::

    constants      print closed-form constants for (N, lambda, s)
    evaluate       energy breakdown for profiles loaded from CSV
    project        rescale CSV profiles onto the constraint set
    ground-state   run the constrained minimizer and persist a report
    mountain-pass  run the min-max path estimate and persist a report
    probe          classify a one-component couple and persist a report
    classify       print the existence-regime report
    lemma          brute-force the scaling-set infimum
    sweep          iterate classify/lemma over a parameter grid into CSV

Exit codes: 0 success, 2 validation error, 3 solver non-convergence.
Configuration comes from a JSON document; command-line flags override
individual fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import io as hio
from .closed_forms import (best_constant, critical_exponent, critical_level,
                           hardy_constant, singular_exponent)
from .energy import StatePair, energy
from .errors import ConfigError, HsvarError
from .grid import (REFERENCE_N_NODES, REFERENCE_R_MAX, REFERENCE_R_MIN,
                   build_grid)
from .nehari import project
from .params import ProblemParams
from .regimes import LemmaInstance, algebraic_inf, classify
from .solvers import (DescentOptions, PathOptions, ProbeOptions, ground_state,
                      mountain_pass, random_bump, semitrivial_probe,
                      extremal_pair)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


# what a malformed field of a JSON document raises
_MALFORMED = (AttributeError, TypeError, ValueError)


@contextmanager
def _parsing(what: str):
    """Report a missing or malformed field of ``what`` as a ConfigError."""
    try:
        yield
    except HsvarError:
        raise
    except KeyError as exc:
        raise ConfigError([str(exc)], f"missing {what} field: {exc}") from None
    except _MALFORMED as exc:
        raise ConfigError([what], f"malformed {what}: {exc}") from None


# each key of a config's "solver" section: the options class whose field it
# sets, the field, and the conversion of its value
_SOLVER_KEYS = {
    "tol_grad": (DescentOptions, "tol_grad", float),
    "max_iter": (DescentOptions, "max_iter", int),
    "n_path_nodes": (PathOptions, "n_path_nodes", int),
    "max_sweeps": (PathOptions, "max_sweeps", int),
    "probe_ladder": (ProbeOptions, "amplitudes", lambda xs: tuple(float(x) for x in xs)),
    "n_probe_dirs": (ProbeOptions, "n_directions", int),
}


def _solver_fields(section: dict) -> dict:
    """The option fields a "solver" section sets, as {options class: {field: value}}."""
    out = {}
    for key, value in section.items():
        if key not in _SOLVER_KEYS:
            raise ConfigError([f"solver.{key}"], f"unknown solver key: {key!r}")
        cls, name, conv = _SOLVER_KEYS[key]
        with _parsing(f"solver.{key}"):
            out.setdefault(cls, {})[name] = conv(value)
    return out


def _settings(doc: dict) -> dict:
    """Every RunConfig field but the params, from a config document."""
    g = doc.get("grid", {})
    return {"grid": (float(g.get("r_min", REFERENCE_R_MIN)),
                     float(g.get("r_max", REFERENCE_R_MAX)),
                     int(g.get("n_nodes", REFERENCE_N_NODES))),
            "solver": _solver_fields(doc.get("solver", {})),
            "output_dir": doc.get("output_dir", "runs"),
            "seed": int(doc.get("seed", 0)),
            "small_nu": bool(doc.get("small_nu", False))}


def _check_weight(params: ProblemParams, small_nu: bool) -> None:
    """Critical coupling needs a weight vanishing at 0 and infinity, unless
    the run is explicitly flagged as small-coupling."""
    if (params.is_critical_coupling and not small_nu
            and not params.h_profile.vanishes_at_origin_and_infinity):
        raise ConfigError(["h_profile"])


@dataclass
class RunConfig:
    params: ProblemParams
    grid: tuple = (REFERENCE_R_MIN, REFERENCE_R_MAX, REFERENCE_N_NODES)
    solver: dict = field(default_factory=dict)     # see _solver_fields
    output_dir: str = "runs"
    seed: int = 0
    small_nu: bool = False

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        with _parsing("config"):
            cfg = cls(params=ProblemParams.from_dict(doc["params"]), **_settings(doc))
        _check_weight(cfg.params, cfg.small_nu)
        return cfg

    def build_grid(self):
        return build_grid(self.params.N, *self.grid)

    def options(self, cls):
        """Options of type ``cls`` with the fields the solver section sets;
        probe options also take the seed."""
        kw = dict(self.solver.get(cls, {}))
        if cls is ProbeOptions:
            kw["seed"] = self.seed
        return cls(**kw)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(["config"], f"{path}: expected a JSON object")
    return doc


def _load_config(args) -> RunConfig:
    doc = _read_json(args.config) if args.config else {}
    doc.setdefault("params", {})
    with _parsing("config"):
        for name in ("N", "s", "lambda1", "lambda2", "alpha", "beta", "nu"):
            v = getattr(args, name, None)
            if v is not None:
                doc["params"][name] = v
        if getattr(args, "h", None):
            doc["params"]["h_profile"] = _parse_h(args.h)
    if getattr(args, "grid", None):
        try:
            r_min, r_max, n = args.grid.split(",")
            doc["grid"] = {"r_min": float(r_min), "r_max": float(r_max),
                           "n_nodes": int(n)}
        except ValueError:
            raise ConfigError(["grid"], f"--grid expects r_min,r_max,n_nodes, "
                                        f"got {args.grid!r}") from None
    if getattr(args, "output_dir", None):
        doc["output_dir"] = args.output_dir
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "small_nu", False):
        doc["small_nu"] = True
    return RunConfig.from_dict(doc)


def _parse_h(spec: str) -> dict:
    kind, _, rest = spec.partition(":")
    with _parsing(f"--h {spec!r}"):
        if kind == "constant":
            return {"kind": "constant", "c": float(rest or 1.0)}
        if kind == "bump":
            p_exp, q_exp = (rest or "2,2").split(",")
            return {"kind": "bump", "p_exp": float(p_exp), "q_exp": float(q_exp)}
    raise ConfigError(["h_profile"], f"unknown h profile: {spec!r}")


def _print(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, default=hio._json_default))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    N = args.N if args.N is not None else 4
    lam = args.lam if args.lam is not None else 0.0
    s = args.s if args.s is not None else 0.0
    _print({
        "hardy_const": hardy_constant(N),
        "crit_exp": critical_exponent(N, s),
        "a_lambda": singular_exponent(N, lam),
        "best_const": best_constant(N, lam, s),
        "crit_level": critical_level(N, lam, s),
    })
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    grid = cfg.build_grid()
    pair = hio.pair_from_csv(args.profiles, grid)
    _print(energy(pair, cfg.params).to_dict())
    return EXIT_OK


def _cmd_project(args) -> int:
    cfg = _load_config(args)
    grid = cfg.build_grid()
    pair = hio.pair_from_csv(args.profiles, grid)
    res = project(pair, cfg.params)
    _print(res.to_dict())
    return EXIT_OK


def _initial_pair(cfg: RunConfig, grid) -> StatePair:
    """Perturbed extremal data; decoupled runs start from (z1 + noise, 0)."""
    from .grid import RadialFunction
    rng = np.random.default_rng(cfg.seed)
    first = extremal_pair(cfg.params, grid, "first")
    bump_u = random_bump(grid, rng, signed=True)
    scale_u = 0.1 * float(np.interp(1.0, grid.r, first.u.values))
    u = np.abs(first.u.values + scale_u * bump_u.values)
    if cfg.params.nu == 0.0:
        return StatePair(RadialFunction(grid, u), RadialFunction.zero(grid))
    second = extremal_pair(cfg.params, grid, "second")
    bump_v = random_bump(grid, rng, signed=True)
    scale_v = 0.1 * float(np.interp(1.0, grid.r, second.v.values))
    v = np.abs(second.v.values + scale_v * bump_v.values)
    return StatePair(RadialFunction(grid, u), RadialFunction(grid, v))


def _cmd_solve(args) -> int:
    """ground-state, mountain-pass and probe: run the solver, persist its report."""
    cfg = _load_config(args)
    grid = cfg.build_grid()
    if args.command == "ground-state":
        report = ground_state(cfg.params, _initial_pair(cfg, grid),
                              cfg.options(DescentOptions))
    elif args.command == "mountain-pass":
        report = mountain_pass(cfg.params, grid, cfg.options(PathOptions))
    else:
        report = semitrivial_probe(cfg.params, args.which, grid,
                                   cfg.options(ProbeOptions))
    run_dir = hio.persist_run(cfg.output_dir, report, grid)
    _print({"run_dir": run_dir, "energy": report.energy,
            "converged": report.converged, "stop_reason": report.stop_reason,
            "classification": report.classification})
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    _print(classify(cfg.params).to_dict())
    return EXIT_OK


def _cmd_lemma(args) -> int:
    inst = LemmaInstance(A=args.A, B=args.B, theta=args.theta,
                         s=args.s if args.s is not None else 0.0,
                         N=args.N if args.N is not None else 4,
                         nu=args.nu if args.nu is not None else 0.0)
    inf_val = algebraic_inf(inst)
    _print({"inf": inf_val, "empty": inf_val is None,
            "decoupled_inf": inst.decoupled_inf})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _read_json(args.config)
    sweep = doc.get("sweep")
    if not sweep:
        raise ConfigError(["sweep"], "sweep config requires a 'sweep' section")
    # rows run serially and a "workers" key is ignored: classify is pure
    # Python and holds the GIL, so a thread pool only made the sweep slower
    with _parsing("sweep config"):
        command = sweep.get("command", "classify")
        over = sweep.get("over", {})
        names = sorted(over)
        combos = list(product(*(over[n] for n in names)))
        # the section that each row's values override
        base = {**(doc["params"] if command == "classify" else doc.get("lemma", {}))}
    if command not in ("classify", "lemma"):
        raise ConfigError(["sweep.command"], f"unknown sweep command: {command!r}")
    if command == "classify":
        # the other sections are the same for every row: parse them once
        with _parsing("config"):
            small_nu = _settings(doc)["small_nu"]

    def one(combo):
        row = dict(zip(names, combo))
        if command == "lemma":
            with _parsing("lemma"):
                ldoc = {**base, **row}
                inst = LemmaInstance(A=float(ldoc["A"]), B=float(ldoc["B"]),
                                     theta=float(ldoc["theta"]),
                                     s=float(ldoc.get("s", 0.0)),
                                     N=int(ldoc.get("N", 4)),
                                     nu=float(ldoc.get("nu", 0.0)))
            val = algebraic_inf(inst)
            row.update({"inf": "" if val is None else val,
                        "empty": val is None,
                        "decoupled_inf": inst.decoupled_inf})
            return row
        with _parsing("params"):
            params = ProblemParams.from_dict({**base, **row})
        _check_weight(params, small_nu)
        rep = classify(params).to_dict()
        row.update({
            "subcritical": rep["subcritical"],
            "critical": rep["critical"],
            "thm_large_nu": rep["thm_large_nu"]["applicable"],
            "thm_mixed": rep["thm_mixed"]["case"],
            "thm_small_nu": rep["thm_small_nu"]["case"],
            "thm_minmax": rep["thm_minmax"]["case"],
        })
        return row

    rows = [one(c) for c in combos]

    cols = list(rows[0]) if rows else names
    out = args.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_param_flags(sp):
    sp.add_argument("--config", help="JSON configuration document")
    sp.add_argument("--N", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--lambda2", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--h", help="h profile: constant:C or bump:P,Q")
    sp.add_argument("--grid", help="r_min,r_max,n_nodes")
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--small-nu", dest="small_nu", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hsvar",
        description="Variational toolkit for Hardy-potential coupled systems")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("constants", help="closed-form constants")
    sp.add_argument("--N", type=int)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--s", type=float)
    sp.set_defaults(fn=_cmd_constants)

    for name, fn, needs_profiles in (
            ("evaluate", _cmd_evaluate, True),
            ("project", _cmd_project, True),
            ("ground-state", _cmd_solve, False),
            ("mountain-pass", _cmd_solve, False),
            ("probe", _cmd_solve, False),
            ("classify", _cmd_classify, False)):
        sp = sub.add_parser(name)
        _add_param_flags(sp)
        if needs_profiles:
            sp.add_argument("--profiles", required=True, help="CSV with columns r,u,v")
        if name == "probe":
            sp.add_argument("--which", choices=("first", "second"), required=True)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("lemma", help="scaling-set infimum")
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--N", type=int)
    sp.add_argument("--s", type=float)
    sp.set_defaults(fn=_cmd_lemma)

    sp = sub.add_parser("sweep", help="parameter sweep to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_sweep)
    return ap


def run_command(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage()
        return EXIT_VALIDATION
    try:
        return args.fn(args)
    except (HsvarError, OSError, json.JSONDecodeError) as exc:
        # unreadable or malformed input files land here as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
