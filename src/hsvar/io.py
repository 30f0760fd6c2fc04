"""CSV/JSON persistence for profiles, grids, and solver reports.

Profiles serialize to CSV with 17 significant digits so that reloading is
bit-exact for IEEE doubles.  Reports serialize to strict JSON with sorted
keys; reruns of an identical configuration produce identical bytes except
for the timestamp field.  Runs are persisted append-only under monotonically
numbered directories.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
import warnings

import numpy as np

from .energy import StatePair
from .errors import ConfigError
from .grid import RadialFunction, RadialGrid

SCHEMA_VERSION = 1
_FMT = "%.17g"


def pair_to_csv(path: str, pair: StatePair) -> None:
    with open(path, "w") as fh:
        fh.write("r,u,v\n")
        for r, u, v in zip(pair.grid.r, pair.u.values, pair.v.values):
            fh.write(f"{_FMT % r},{_FMT % u},{_FMT % v}\n")


def pair_from_csv(path: str, grid: RadialGrid) -> StatePair:
    try:
        with warnings.catch_warnings():
            # a file with no data rows is refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:       # a cell that is not a number, a ragged row
        raise ConfigError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"{path}: no data rows, grid has {grid.n}")
    if data.shape[1] != 3:
        raise ConfigError(f"{path}: expected columns r,u,v")
    if data.shape[0] != grid.n:
        raise ConfigError(f"{path}: {data.shape[0]} rows, grid has {grid.n}")
    if not np.allclose(data[:, 0], grid.r, rtol=1e-12, atol=0.0):
        raise ConfigError(f"{path}: radii do not match the configured grid")
    return StatePair(RadialFunction(grid, data[:, 1]), RadialFunction(grid, data[:, 2]))


def report_json(report_dict: dict, grid: RadialGrid) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "grid": grid.header(),
        "timestamp": time.time(),
        **report_dict,
    }
    return dumps(doc) + "\n"


def dumps(doc) -> str:
    """Strict JSON with sorted keys; non-finite floats are written as the
    strings "inf", "-inf" and "nan", since JSON has no token for them."""
    return json.dumps(_plain(doc), sort_keys=True, indent=2, allow_nan=False)


def _plain(obj):
    """Copy of ``obj`` in JSON's types: numpy scalars and arrays converted,
    non-finite floats as strings.  A walk, because ``json.dumps`` hands
    Python floats (numpy float64 included) to no ``default`` hook."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else "nan" if x != x else "inf" if x > 0 else "-inf"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


_RUN_RE = re.compile(r"^run-(\d{6})$")


def next_run_dir(output_dir: str) -> str:
    """Allocate the next run-NNNNNN directory under output_dir.

    A run racing this one may take the number first; the directory is then
    created under the next free number.
    """
    os.makedirs(output_dir, exist_ok=True)
    existing = [int(m.group(1)) for name in os.listdir(output_dir)
                if (m := _RUN_RE.match(name))]
    run_id = max(existing, default=0) + 1
    while True:
        path = os.path.join(output_dir, f"run-{run_id:06d}")
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            run_id += 1


def persist_run(output_dir: str, report, grid: RadialGrid) -> str:
    """Write report.json + profiles.csv into a fresh run directory."""
    run_dir = next_run_dir(output_dir)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        fh.write(report_json(report.to_dict(), grid))
    pair_to_csv(os.path.join(run_dir, "profiles.csv"), report.profiles)
    return run_dir
