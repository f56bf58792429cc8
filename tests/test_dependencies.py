"""The package imports only the standard library and numpy at runtime, and
every third-party module the tests import is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

import distpriv

PACKAGE_DIR = Path(distpriv.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def _bound_names(node) -> list:
    """The names an import statement binds; `from __future__` binds none."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


@pytest.mark.parametrize("path", sorted(set(PACKAGE_DIR.glob("*.py"))
                                        - {PACKAGE_DIR / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__ imports names to re-export them, so it is left out.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {name for node in ast.walk(tree) for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


TESTS_DIR = Path(__file__).resolve().parent


def _test_imports(path) -> set:
    """Top-level modules a test file imports, by statement or pytest.importorskip."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.split(".")[0] for name in names}


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    with open(TESTS_DIR.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    first_party = {"distpriv"} | {path.stem for path in TESTS_DIR.glob("*.py")}
    imported = set().union(*map(_test_imports, TESTS_DIR.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - first_party
    assert sorted(third_party - declared) == []
