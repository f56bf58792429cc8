"""The package imports only the standard library and numpy at runtime."""

import ast
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
