"""Every hsvar name that the benchmark's workloads and kernel table read
still resolves, so that removing one fails here and not only in a benchmark
run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the names, or state keys (``st["cli"]``), under which the benchmark
# scripts hold hsvar and its modules
ROOTS = {"hs": "hsvar", "energy_mod": "hsvar.energy",
         "operators": "hsvar.operators", "cli": "hsvar.cli"}


def _chain(node: ast.Attribute):
    """``(root, [attr, ...])`` of a dotted read such as ``hs.RadialFunction.zero``
    or ``st["cli"].run_command``, or None when it starts at neither a plain
    name nor a string key."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, attrs[::-1]
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return node.slice.value, attrs[::-1]
    return None


def _reads(script: str) -> set:
    """The dotted reads on the hsvar roots in one benchmark script; only the
    outermost attribute of each chain is kept."""
    tree = ast.parse((PERFBENCH / script).read_text())
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _chain(node)
            if chain and chain[0] in ROOTS:
                found.add((chain[0], tuple(chain[1])))
    return found


@pytest.mark.parametrize("script", ["workloads.py", "kernels.py"])
def test_benchmark_reads_resolve(script):
    reads = _reads(script)
    assert reads, f"no hsvar reads found in {script}"
    missing = []
    for root, attrs in sorted(reads):
        obj = importlib.import_module(ROOTS[root])
        for a in attrs:
            if not hasattr(obj, a):
                missing.append(f"{root}.{'.'.join(attrs)}")
                break
            obj = getattr(obj, a)
    assert missing == []


def test_reads_include_the_checked_results():
    # the result checks of the workloads, which fail the run when one is gone
    names = {attrs[0] for _, attrs in _reads("workloads.py")}
    assert {"energy", "energy_positive", "pair_norm_sq", "nehari_residual",
            "gradient_dual_norm", "weighted_lp"} <= names
    kernel = _reads("kernels.py")
    assert ("energy_mod", ("_terms",)) in kernel
    assert ("energy_mod", ("gradient_coefficients",)) in kernel
    assert ("cli", ("run_command",)) in _reads("workloads.py")
