"""The closed-form modules reach nothing of the discrete layer, and the
discrete layer reaches only the modules below it: grid, operators, energy,
solvers, then io and cli."""

import ast
from pathlib import Path

import pytest

import hsvar

PACKAGE = Path(hsvar.__file__).parent
DISCRETE = {"grid", "operators", "energy", "solvers", "io", "cli"}


def _imports(module: str) -> set:
    """The hsvar modules that ``module``'s source imports by name,
    relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("hsvar."))
        elif isinstance(node, ast.ImportFrom):
            path = ("hsvar." if node.level else "") + (node.module or "")
            if path.startswith("hsvar."):
                names.add(path.split(".")[1])
            elif path in ("hsvar", "hsvar."):
                names.update(a.name for a in node.names)
    return {n for n in names if (PACKAGE / f"{n}.py").is_file()}


def _reached(module: str) -> set:
    """Every hsvar module that importing ``module`` imports, transitively."""
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(_imports(m))
    return seen - {module}


@pytest.mark.parametrize("module", ["params", "closed_forms", "regimes"])
def test_closed_form_module_reaches_no_discrete_module(module):
    assert _reached(module) & DISCRETE == set()


def test_grid_reaches_only_errors():
    assert _reached("grid") == {"errors"}


@pytest.mark.parametrize("module,above", [
    # pair_dot and PairMetric sit below the solvers that pair couples
    ("operators", {"energy", "solvers", "io", "cli"}),
    ("energy", {"solvers", "io", "cli"}),
    ("solvers", {"io", "cli"}),
])
def test_discrete_module_reaches_nothing_above_it(module, above):
    assert _reached(module) & above == set()


WEIGHTS = {"w", "cell_w", "wr2", "cc"}


def _weight_reads(module: str) -> set:
    """The grid weight arrays (``w``, ``cell_w``, ``wr2``, ``cc``) that
    ``module``'s source reads as attributes, of a grid or of anything else."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in WEIGHTS
            and isinstance(node.ctx, ast.Load)}


def test_weight_arrays_are_read_only_where_the_discretization_lives():
    # the places a change of the quadratic form or the quadrature must port:
    # the grid builds the weights, operators and energy read the band, and
    # solvers reads w for the chain's segment norm; only the grid reads the
    # cell weights, which the band cc replaces everywhere else
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    reads = {m: _weight_reads(m) for m in modules}
    assert {m for m, r in reads.items() if r} == {"grid", "operators", "energy",
                                                 "solvers"}
    assert {m for m, r in reads.items() if "cell_w" in r} == {"grid"}
