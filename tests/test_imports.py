"""Every name a ckbundle module imports is used there or exported through
its __all__: a stdlib stand-in for a linter's unused-import rule. Only the
modules in DATACLASS_MODULES import dataclasses. Every source and test file
parses with Python 3.10's grammar."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ckbundle"


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == {"os", "b"}
    assert unused_imports("from a import b\n__all__ = ['b']\n") == set()
    assert unused_imports("from __future__ import annotations\nfrom a import *\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == set()


# Creating a dataclass generates and compiles its methods at import time, a
# cost every fresh import pays; the value records subclass intmat._Record.
DATACLASS_MODULES = {"bundle.py", "cli.py"}


def imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


def test_imported_modules_are_found():
    source = "import dataclasses as dc\nfrom os.path import join\nfrom . import ck\n"
    assert imported_modules(source) == {"dataclasses", "os"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_dataclasses_only_where_allowed(path):
    if path.name not in DATACLASS_MODULES:
        assert "dataclasses" not in imported_modules(path.read_text())


@pytest.mark.parametrize(
    "path",
    sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_parses_as_python_3_10(path):
    """pyproject.toml promises Python >= 3.10. This checks the grammar only
    (say, no `except*` or PEP 695 type parameters), not which library
    functions and arguments that version has."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
