"""Lint checks on the package's ast: every import is used, and none is a third-party module.

The package's one runtime dependency is numpy; scipy and the test tools are
installed for the tests alone, so an import of them would pass the tests and
fail where only the package's dependencies are installed.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "miselect"
# the standard library (``__future__`` among it), the one dependency, and the package
IMPORTABLE = sys.stdlib_module_names | {"numpy", "miselect"}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, or re-exports through ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from numpy import array as arr, zeros\n__all__ = ['zeros']\nmath.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: arr"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """The modules ``source`` imports from outside ``IMPORTABLE``; relative ones are the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in IMPORTABLE]
    return found


def test_the_check_finds_a_third_party_import():
    source = ("from __future__ import annotations\nimport math, scipy\n"
              "import numpy as np\nfrom . import oracle\nfrom .xreal import XReal\n"
              "from hypothesis import given\n")
    assert foreign_imports(source) == ["line 2: scipy", "line 6: hypothesis"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
