"""The benchmark keeps working: every library name perfbench/*.py calls
resolves. A chain is `lib.<layer>.<name>[.<attr>...]` (the workloads get the
layers as a namespace `lib`) or, in a file that imports the layer from
ckbundle, `<layer>.<name>[.<attr>...]`."""

import ast
import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = {"abelian", "bundle", "ck", "cli", "intmat", "sft"}


def _chains(tree):
    """Every dotted chain Name.attr.attr... in tree, outermost only."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            yield [node.id, *reversed(path)]


def _library_chains():
    """(file, layer, attribute path) for every chain into a ckbundle layer."""
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "ckbundle"
            for alias in node.names
            if alias.name in LAYERS
        }
        for chain in _chains(tree):
            if chain[0] == "lib" and len(chain) > 2 and chain[1] in LAYERS:
                yield source.name, chain[1], chain[2:]
            elif chain[0] in imported and len(chain) > 1:
                yield source.name, chain[0], chain[1:]


def test_perfbench_library_names_resolve():
    chains = {(name, layer, ".".join(path)) for name, layer, path in _library_chains()}
    # the benchmark's entry points are among them, so the parse found the calls
    assert ("workloads.py", "cli", "build_report") in chains
    assert ("selftest.py", "abelian", "direct_sum") in chains
    for name, layer, path in sorted(chains):
        module = importlib.import_module(f"ckbundle.{layer}")
        try:
            functools.reduce(getattr, path.split("."), module)
        except AttributeError:
            raise AssertionError(f"{name} calls {layer}.{path}, which ckbundle lacks") from None
