"""Every name that a ``catnet`` module imports is used in that module."""

import ast
import pathlib

import pytest

import catnet

MODULES = sorted(pathlib.Path(catnet.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name that the module's code never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_finds_dead_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as read\n"
              "def f(x) -> np.ndarray:\n    return read(x)  # math, dumps\n")
    assert unused_imports(source) == [(2, "math"), (3, "os"), (5, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
