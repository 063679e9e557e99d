"""Every name that a ``catnet`` module imports is used in that module, every private name
or method that a module defines is read somewhere in the package, and no module but
``autodiff`` writes a BLAS product."""

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


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree) -> list:
    """Private names that a module defines at its top level, and its classes' private methods."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
    return [name for name in names if private(name)]


def unread_private_names(sources: dict) -> list:
    """``(module, name)`` of each private definition that no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in read)


def test_unread_private_names_finds_dead_helpers():
    sources = {"a": "_DEAD, _USED = 1, 2\n_NOTE: str = 'x'\n"
                    "def _helper():\n    return _USED\n"
                    "class A:\n    def _gone(self):\n        pass\n"
                    "    def _kept(self):\n        pass\n"
                    "    def __repr__(self):\n        return self._kept()\n",
               "b": "from a import _helper\n_helper()\n"}
    assert unread_private_names(sources) == [("a", "_DEAD"), ("a", "_NOTE"), ("a", "_gone")]


def test_every_private_name_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in MODULES}) == []


BLAS_CALLS = {"matmul", "dot", "tensordot", "inner"}


def blas_products(source: str) -> list:
    """``(line, what)`` of each BLAS product a module writes: ``np.matmul``, ``np.dot``,
    ``np.tensordot``, ``np.inner``, ``np.linalg.*``, the ``@`` operator (also ``@=``), or an
    ``np.einsum`` given ``optimize``, which may hand the contraction to BLAS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy") \
                and (node.attr in BLAS_CALLS or node.attr == "linalg"):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and ("linalg" in node.module
                     or any(a.name in BLAS_CALLS | {"linalg"} for a in node.names)):
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "einsum" and any(k.arg == "optimize" for k in node.keywords):
            found.append((node.lineno, "einsum(optimize=...)"))
    return sorted(found)


def test_blas_products_finds_every_form():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import dot\n"
              "a = np.matmul(x, y) + np.dot(x, y)\nb = x @ y\nb @= y\n"
              "c = np.linalg.solve(x, y)\nd = np.einsum('ij,jk->ik', x, y, optimize=True)\n"
              "e = np.einsum('ij,jk->ik', x, y) * np.tensordot(x, y) + np.inner(x, y)\n")
    assert blas_products(source) == [
        (2, "from numpy.linalg import"), (3, "from numpy import"), (4, "np.dot"),
        (4, "np.matmul"), (5, "@"), (6, "@"), (7, "np.linalg"), (8, "einsum(optimize=...)"),
        (9, "np.inner"), (9, "np.tensordot")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "autodiff"],
                         ids=lambda path: path.stem)
def test_blas_products_only_in_autodiff(path):
    # autodiff runs every BLAS product in fixed ROW_BLOCK-row blocks on the calling thread,
    # and keeps the attention contractions on np.einsum without path optimisation
    assert blas_products(path.read_text()) == []
