"""The closed-form modules reach nothing of the discrete layer, and the
discrete layer reaches only the modules below it: grid, operators, energy,
solvers, then io and cli.  The discretization's arrays are read only in
grid, operators and energy, and the package's star import binds no
module."""

import ast
import inspect
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


WEIGHTS = {"w", "cell_w", "wr2", "cc", "wrs", "whrs"}


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _weight_reads(module: str) -> set:
    """The weight arrays (the grid's ``w``, ``cell_w``, ``wr2``, ``cc`` and
    the ``Weights``' ``wrs``, ``whrs``) that ``module``'s source reads as
    attributes, of a grid or of anything else."""
    return {node.attr for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and node.attr in WEIGHTS
            and isinstance(node.ctx, ast.Load)}


def test_weight_arrays_are_read_only_where_the_discretization_lives():
    # the places a change of the quadratic form or the quadrature must port:
    # the grid builds the weights, operators and energy read them; only the
    # grid reads the cell weights, which the band cc replaces everywhere else
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    reads = {m: _weight_reads(m) for m in modules}
    assert {m for m, r in reads.items() if r} == {"grid", "operators", "energy"}
    assert {m for m, r in reads.items() if "cell_w" in r} == {"grid"}


def test_solvers_take_no_interior_slice():
    # the Dirichlet collar is the operators' own: solvers pass node-length
    # states, gradients, directions and weights, and slice none of them to
    # the interior 1:-1.  A slice of a computed value, such as the arclength
    # targets of a resample, is not one of these arrays
    sliced = [ast.unparse(node) for node in ast.walk(_tree("solvers"))
              if isinstance(node, ast.Subscript) and not isinstance(node.value, ast.Call)
              and "1:-1" in ast.unparse(node.slice).split(", ")]
    assert sliced == []


def test_star_import_binds_no_module():
    # ``from hsvar import *`` binds the public names only; the submodules
    # that the package's own imports bind stay attributes of the package
    assert [n for n in hsvar.__all__ if inspect.ismodule(getattr(hsvar, n))] == []
    assert all(inspect.ismodule(getattr(hsvar, m)) for m in ("grid", "params", "solvers"))
