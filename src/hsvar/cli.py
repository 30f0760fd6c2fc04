"""Command-line interface: configuration ingestion, dispatch, persistence.

Subcommands::

    constants      print closed-form constants for (N, lambda, s)
    evaluate       energy breakdown for profiles loaded from CSV
    project        rescale CSV profiles onto the constraint set
    ground-state   run the constrained minimizer and persist a report
    mountain-pass  run the min-max path estimate and persist a report
    probe          classify a one-component couple and persist a report
    classify       print the existence-regime report
    lemma          print the scaling-set infimum
    sweep          iterate classify/lemma over a parameter grid into CSV

Exit codes: 0 success, 2 validation error, 3 solver non-convergence.
Configuration comes from a JSON document; command-line flags override
individual fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import io as hio
from .closed_forms import (best_constant, critical_exponent, critical_level,
                           hardy_constant, singular_exponent)
from .energy import StatePair, energy, project
from .errors import ConfigError, DegeneratePathError, HsvarError
from .grid import (REFERENCE_N_NODES, REFERENCE_R_MAX, REFERENCE_R_MIN,
                   RadialFunction, build_grid)
from .params import (HProfile, ProblemParams, is_required, read_field, read_fields,
                     json_object, real_number, whole_number)
from .regimes import LemmaInstance, RegimeReport, algebraic_inf, classify
from .solvers import (DescentOptions, PathOptions, ground_state, mountain_pass,
                      random_bump, semitrivial_probe, extremal_pair)

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
        raise ConfigError(f"missing {what} field: {exc}") from None
    except _MALFORMED as exc:
        raise ConfigError(f"malformed {what}: {exc}") from None


# the fields of each command's document: a sweep row may override them, and
# each classify field is a flag of the commands that load a config
_FIELDS = {"classify": [f.name for f in fields(ProblemParams)],
           "lemma": [f.name for f in fields(LemmaInstance)]}


# the options class whose field each key of a config's "solver" section sets
_SOLVER_KEYS = {"tol_grad": DescentOptions, "max_iter": DescentOptions,
                "n_path_nodes": PathOptions, "max_sweeps": PathOptions}


def _solver_fields(section: dict) -> dict:
    """The option fields a "solver" section sets, as {options class: {field: value}}."""
    out = {}
    for key, value in json_object(section, "solver").items():
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown solver key: {key!r}")
        cls = _SOLVER_KEYS[key]
        out.setdefault(cls, {})[key] = read_field(cls, key, value, "solver.")
    return out


def _small_nu(doc: dict) -> bool:
    """The "small_nu" flag of a config document, false when absent."""
    flag = doc.get("small_nu", False)
    if not isinstance(flag, bool):
        raise ConfigError(f"small_nu must be true or false, got {flag!r}")
    return flag


def _check_weight(report: RegimeReport, small_nu: bool) -> None:
    """A tuple outside the large-coupling statement's compactness gate
    (critical coupling, a weight that does not vanish at 0 and infinity)
    runs only when explicitly flagged as small-coupling."""
    if not (report.thm_large_nu["applicable"] or small_nu):
        raise ConfigError("critical coupling needs an h_profile that vanishes "
                          "at 0 and infinity, or small_nu: true")


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
            g = json_object(doc.get("grid", {}), "grid")
            cfg = cls(params=ProblemParams.from_dict(doc["params"]),
                      grid=(real_number(g.get("r_min", REFERENCE_R_MIN), "grid.r_min"),
                            real_number(g.get("r_max", REFERENCE_R_MAX), "grid.r_max"),
                            whole_number(g.get("n_nodes", REFERENCE_N_NODES),
                                         "grid.n_nodes")),
                      solver=_solver_fields(doc.get("solver", {})),
                      output_dir=read_field(cls, "output_dir",
                                            doc.get("output_dir", "runs")),
                      seed=whole_number(doc.get("seed", 0), "seed"),
                      small_nu=_small_nu(doc))
        if cfg.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
        _check_weight(classify(cfg.params), cfg.small_nu)
        return cfg

    def build_grid(self):
        return build_grid(self.params.N, *self.grid)

    def options(self, cls):
        """Options of type ``cls`` with the fields the solver section sets."""
        return cls(**self.solver.get(cls, {}))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def _load_config(args) -> RunConfig:
    doc = _read_json(args.config) if args.config else {}
    with _parsing("config"):
        params = json_object(doc.setdefault("params", {}), "params")
        for name in _FIELDS["classify"]:
            value = getattr(args, name)
            if value is not None:
                params[name] = _parse_h(value) if name == "h_profile" else value
    if args.grid:
        try:
            r_min, r_max, n = args.grid.split(",")
        except ValueError:
            raise ConfigError(f"--grid expects r_min,r_max,n_nodes, "
                              f"got {args.grid!r}") from None
        doc["grid"] = {"r_min": r_min, "r_max": r_max, "n_nodes": n}
    if args.output_dir:
        doc["output_dir"] = args.output_dir
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.small_nu:
        doc["small_nu"] = True
    return RunConfig.from_dict(doc)


def _parse_h(spec: str) -> dict:
    """The h_profile section of ``--h KIND[:VALUES]``; HProfile checks the kind."""
    kind, _, rest = spec.partition(":")
    keys = HProfile.KIND_PARAMS.get(kind, ())
    values = rest.split(",") if rest else ()
    if keys and len(values) not in (0, len(keys)):
        raise ConfigError(f"--h {spec!r}: expected {len(keys)} comma-separated values")
    return {"kind": kind, **dict(zip(keys, values))}


def _print(doc: dict) -> None:
    print(hio.dumps(doc))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    N = whole_number(args.N, "N")
    lam, s = real_number(args.lam, "lambda"), real_number(args.s, "s")
    _print({
        "hardy_const": hardy_constant(N),
        "crit_exp": critical_exponent(N, s),
        "a_lambda": singular_exponent(N, lam),
        "best_const": best_constant(N, lam, s),
        "crit_level": critical_level(N, lam, s),
    })
    return EXIT_OK


def _cmd_profiles(args) -> int:
    """evaluate and project: the energy breakdown of CSV profiles, or their
    scale onto the constraint set."""
    cfg = _load_config(args)
    pair = hio.pair_from_csv(args.profiles, cfg.build_grid())
    fn = energy if args.command == "evaluate" else project
    _print(fn(pair, cfg.params).to_dict())
    return EXIT_OK


def _initial_pair(cfg: RunConfig, grid) -> StatePair:
    """Perturbed extremal data; decoupled runs start from (z1 + noise, 0)."""
    rng = np.random.default_rng(cfg.seed)

    def perturbed(z):
        # a random bump, scaled to a tenth of z at r = 1
        bump = random_bump(grid, rng).values
        return RadialFunction(
            grid, np.abs(z + 0.1 * float(np.interp(1.0, grid.r, z)) * bump))

    u = perturbed(extremal_pair(cfg.params, grid, "first").u.values)
    if cfg.params.nu == 0.0:
        return StatePair(u, RadialFunction.zero(grid))
    return StatePair(u, perturbed(extremal_pair(cfg.params, grid, "second").v.values))


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
        report = semitrivial_probe(cfg.params, args.which, grid)
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
    with _parsing("lemma"):
        inst = read_fields(LemmaInstance, vars(args))
    _print({"inf": algebraic_inf(inst), "decoupled_inf": inst.decoupled_inf})
    return EXIT_OK


def _sweep_over(over, command: str) -> dict:
    """The "over" section, checked: an object that maps fields to arrays."""
    if not isinstance(over, dict):
        raise ConfigError("sweep.over must be an object that maps field names to arrays")
    for key, values in over.items():
        if key not in _FIELDS[command]:
            raise ConfigError(f"sweep.over.{key}: not a {command} field "
                              f"({', '.join(_FIELDS[command])})")
        if not isinstance(values, list):
            raise ConfigError(f"sweep.over.{key}: expected an array, "
                              f"got {type(values).__name__}")
    return over


def _csv_line(cells) -> str:
    """The line csv.writer writes for ``cells``, without its line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _cmd_sweep(args) -> int:
    doc = _read_json(args.config)
    sweep = doc.get("sweep")
    if not sweep:
        raise ConfigError("sweep config requires a 'sweep' section")
    # rows run serially and a "workers" key is ignored: classify is pure
    # Python and holds the GIL, so a thread pool only made the sweep slower
    with _parsing("sweep config"):
        command = json_object(sweep, "sweep").get("command", "classify")
        if command not in ("classify", "lemma"):
            raise ConfigError(f"unknown sweep command: {command!r}")
        over = _sweep_over(sweep.get("over", {}), command)
        what = "params" if command == "classify" else "lemma"
        section = json_object(doc["params"] if command == "classify"
                              else doc.get("lemma", {}), what)
    names = sorted(over)

    # each row is the CSV text of its report columns, made once per distinct
    # report; the swept values are added on writing
    if command == "lemma":
        cls, columns = LemmaInstance, ["inf", "decoupled_inf"]

        def one(combo):
            inst = LemmaInstance(**base, **dict(zip(names, combo)))
            return _csv_line((algebraic_inf(inst), inst.decoupled_inf))
    else:
        cls, small_nu = ProblemParams, _small_nu(doc)
        columns = ["subcritical", "critical", "thm_large_nu", "thm_mixed",
                   "thm_small_nu", "thm_minmax"]

        # classify does not read nu, and nu's rule (finite, >= 0) reads nu
        # alone: a row whose nu-free values and whose nu have each been built
        # before is valid, and its report is that of its nu-free values
        at = names.index("nu") if "nu" in names else len(names)
        reports, nus = {}, set()

        def one(combo):
            # nu is the 1-tuple of the row's nu, or () when nu is not swept
            key, nu = combo[:at] + combo[at + 1:], combo[at:at + 1]
            row = reports.get(key)
            if row is not None and nu in nus:
                return row
            params = ProblemParams(**base, **dict(zip(names, combo)))
            nus.add(nu)
            if row is None:
                rep = classify(params)
                _check_weight(rep, small_nu)
                row = reports[key] = _csv_line((
                    rep.subcritical, rep.critical, rep.thm_large_nu["applicable"],
                    rep.thm_mixed["case"], rep.thm_small_nu["case"],
                    rep.thm_minmax["case"]))
            return row

    # each value is read once, before the rows; a row puts its swept values over the base
    with _parsing(what):
        base = {k: read_field(cls, k, v) for k, v in section.items()
                if k in _FIELDS[command] and k not in over}
        swept = [[read_field(cls, n, x) for x in over[n]] for n in names]
        rows = [one(c) for c in product(*swept)]

    # the CSV text of each swept value is made once, as given: values that
    # compare equal (0.0 and -0.0, 1 and 1.0) keep their own text.  A line
    # joins the texts of its swept values and its report, and the file is
    # written in one call
    texts = [[_csv_line((str(x),)) for x in over[n]] for n in names]
    lines = [_csv_line(names + columns)]
    lines += [",".join(cells + (row,)) for cells, row in zip(product(*texts), rows)]
    out = args.out or "sweep.csv"
    with open(out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_param_flags(sp):
    sp.add_argument("--config", help="JSON configuration document")
    for f in fields(ProblemParams):
        if f.name != "h_profile":
            sp.add_argument(f"--{f.name}")
    sp.add_argument("--h", dest="h_profile", metavar="H",
                    help="h profile: constant:C or bump:P,Q")
    sp.add_argument("--grid", help="r_min,r_max,n_nodes")
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--seed")
    sp.add_argument("--small-nu", dest="small_nu", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hsvar",
        description="Variational toolkit for Hardy-potential coupled systems")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("constants", help="closed-form constants")
    sp.add_argument("--N", default=4)
    sp.add_argument("--lambda", dest="lam", default=0.0)
    sp.add_argument("--s", default=0.0)
    sp.set_defaults(fn=_cmd_constants)

    for name, fn in (("evaluate", _cmd_profiles), ("project", _cmd_profiles),
                     ("ground-state", _cmd_solve), ("mountain-pass", _cmd_solve),
                     ("probe", _cmd_solve), ("classify", _cmd_classify)):
        sp = sub.add_parser(name)
        _add_param_flags(sp)
        if fn is _cmd_profiles:
            sp.add_argument("--profiles", required=True, help="CSV with columns r,u,v")
        if name == "probe":
            sp.add_argument("--which", choices=("first", "second"), required=True)
        sp.set_defaults(fn=fn)

    # an absent flag sets no attribute, so the field keeps its default
    sp = sub.add_parser("lemma", help="scaling-set infimum",
                        argument_default=argparse.SUPPRESS)
    for f in fields(LemmaInstance):
        sp.add_argument(f"--{f.name}", required=is_required(f))
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
    except DegeneratePathError as exc:
        # valid input on which the path found no crest: a solver outcome
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (HsvarError, OSError, json.JSONDecodeError) as exc:
        # unreadable or malformed input files land here as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
