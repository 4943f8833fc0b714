"""Every name a module of the package imports is used there, or marked a re-export.

No linter runs on this repository, and moving a helper from one module to
another easily leaves its old import behind.  A name imported on purpose
without being used (a re-export that ``bench/spans.py`` traces) carries
``# noqa: F401`` on its import statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ctident"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name ``source`` imports, never uses and does not mark."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_checker_finds_unused_and_honours_marker():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import (pi,\n"
              "                  tau)\n"
              "from sys import argv  # noqa: F401\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
