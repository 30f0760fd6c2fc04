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
individual fields.  A run builds the argument parser of the command it
names alone; no command, an unknown one or a top-level flag gets the
parser of all nine, whose refusal or help lists them.  A classify sweep
reads the cells of each distinct nu-free tuple once, from
``regimes.sweep_cells`` (two cached parts and a cached case table; no
report is built), renders the CSV text of each distinct cells tuple once,
and lays its rows out by index over the nu-free product, nu at its sorted
position.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import cycle, product

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
from .regimes import LemmaInstance, algebraic_inf, classify, sweep_cells
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


def _check_weight(large_nu_applicable: bool, small_nu: bool) -> None:
    """A tuple outside the large-coupling statement's compactness gate
    (critical coupling, a weight that does not vanish at 0 and infinity)
    runs only when explicitly flagged as small-coupling."""
    if not (large_nu_applicable or small_nu):
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
        _check_weight(classify(cfg.params).thm_large_nu["applicable"], cfg.small_nu)
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


def _classify_rows(base: dict, names: list, swept: list, at: int,
                   small_nu: bool) -> list:
    """The CSV text of the report cells of each nu-free tuple of a classify
    sweep, in the order of the nu-free product: the axes ``swept`` of
    ``names`` but nu, which is axis ``at`` (``len(names)`` when nu is not
    swept).

    classify does not read nu, and nu's rule (finite, >= 0) reads nu alone:
    a row is valid when its nu-free values and its nu are, and its cells are
    those of its nu-free values.  Each distinct nu-free tuple and each nu is
    built, and so checked, where product order first meets it: the tuples
    of the first block (the axes before nu at their first values) at the
    first nu, then each later nu with the first tuple, then the other
    tuples.  So the first failing row decides the error, as row by row.
    """
    free_names = names[:at] + names[at + 1:]
    nus = [{"nu": x} for x in swept[at]] if at < len(names) else [{}]
    free = list(product(*swept[:at], *swept[at + 1:])) if nus else []
    first_block = math.prod(map(len, swept[at + 1:]))

    def build(key, nu):
        return ProblemParams(**base, **dict(zip(free_names, key)), **nu)

    rows, by_key, by_cells = [], {}, {}
    for i, key in enumerate(free):
        row = by_key.get(key)
        if row is None:
            cells = sweep_cells(build(key, nus[0]))
            _check_weight(cells[2], small_nu)
            row = by_cells.get(cells)
            if row is None:
                row = by_cells[cells] = _csv_line(cells)
            by_key[key] = row
        rows.append(row)
        if i + 1 == first_block:
            for nu in nus[1:]:
                build(free[0], nu)
    return rows


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
    # a lemma row reads every swept value; a classify row does not read nu,
    # so its report is that of its nu-free values: nu is axis ``at``
    at = names.index("nu") if command == "classify" and "nu" in names else len(names)

    # each value is read once, before the rows; a row puts its swept values
    # over the base.  ``reports`` is the CSV text of the report columns of
    # each row (lemma) or of each nu-free tuple (classify), in product order
    if command == "lemma":
        cls, columns = LemmaInstance, ["inf", "decoupled_inf"]
    else:
        cls, small_nu = ProblemParams, _small_nu(doc)
        columns = ["subcritical", "critical", "thm_large_nu", "thm_mixed",
                   "thm_small_nu", "thm_minmax"]
    with _parsing(what):
        base = {k: read_field(cls, k, v) for k, v in section.items()
                if k in _FIELDS[command] and k not in over}
        swept = [[read_field(cls, n, x) for x in over[n]] for n in names]
        if command == "lemma":
            reports = []
            for combo in product(*swept):
                inst = LemmaInstance(**base, **dict(zip(names, combo)))
                reports.append(_csv_line((algebraic_inf(inst), inst.decoupled_inf)))
        else:
            reports = _classify_rows(base, names, swept, at, small_nu)

    # the CSV text of each swept value is made once, as given: values that
    # compare equal (0.0 and -0.0, 1 and 1.0) keep their own text.  The rows
    # are laid out by index: row (i, k, j) of the axes before nu, nu and the
    # axes after it joins head i, nu k and tail i * n_inner + j, a tail being
    # the text of the axes after nu and a report.  The file is written in
    # one call
    texts = [[_csv_line((str(x),)) for x in over[n]] for n in names]
    heads = [",".join(c + ("",)) for c in product(*texts[:at])]
    nu_cells = [t + "," for t in texts[at]] if at < len(names) else [""]
    n_inner = math.prod(map(len, texts[at + 1:]))
    tails = [",".join(c + (row,))
             for c, row in zip(cycle(product(*texts[at + 1:])), reports)]
    lines = [head + nu + tails[i * n_inner + j] for i, head in enumerate(heads)
             for nu in nu_cells for j in range(n_inner)]
    out = args.out or "sweep.csv"
    with open(out, "w", newline="") as fh:
        fh.write("\n".join([_csv_line(names + columns), *lines]) + "\n")
    print(f"wrote {len(lines)} rows to {out}")
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


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise ConfigError, so that they exit 2 with
    one ``error:`` line; its subparsers are of the same class."""

    def error(self, message):
        raise ConfigError(message)


# the handler of each command that loads a config and takes the param flags
_CONFIG_COMMANDS = {"evaluate": _cmd_profiles, "project": _cmd_profiles,
                    "ground-state": _cmd_solve, "mountain-pass": _cmd_solve,
                    "probe": _cmd_solve, "classify": _cmd_classify}

# every command, in the order of the module docstring and of --help
COMMANDS = ("constants", *_CONFIG_COMMANDS, "lemma", "sweep")


def _add_command(sub, name: str) -> None:
    """Add the subparser of command ``name`` to ``sub``."""
    if name == "constants":
        sp = sub.add_parser(name, help="closed-form constants")
        sp.add_argument("--N", default=4)
        sp.add_argument("--lambda", dest="lam", default=0.0)
        sp.add_argument("--s", default=0.0)
        sp.set_defaults(fn=_cmd_constants)
    elif name == "lemma":
        # an absent flag sets no attribute, so the field keeps its default
        sp = sub.add_parser(name, help="scaling-set infimum",
                            argument_default=argparse.SUPPRESS)
        for f in fields(LemmaInstance):
            sp.add_argument(f"--{f.name}", required=is_required(f))
        sp.set_defaults(fn=_cmd_lemma)
    elif name == "sweep":
        sp = sub.add_parser(name, help="parameter sweep to CSV")
        sp.add_argument("--config", required=True)
        sp.add_argument("--out")
        sp.set_defaults(fn=_cmd_sweep)
    else:
        fn = _CONFIG_COMMANDS[name]
        sp = sub.add_parser(name)
        _add_param_flags(sp)
        if fn is _cmd_profiles:
            sp.add_argument("--profiles", required=True, help="CSV with columns r,u,v")
        if name == "probe":
            sp.add_argument("--which", choices=("first", "second"), required=True)
        sp.set_defaults(fn=fn)


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The parser of ``commands``, by default of all of them."""
    ap = _Parser(
        prog="hsvar",
        description="Variational toolkit for Hardy-potential coupled systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in commands:
        _add_command(sub, name)
    return ap


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run parses one command, so it builds that command's parser alone; no
    # command, an unknown one or a top-level flag gets the whole tree, whose
    # refusal or help lists every command
    name = argv[0] if argv else None
    try:
        args = build_parser((name,) if name in COMMANDS else COMMANDS).parse_args(argv)
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
