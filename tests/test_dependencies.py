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
