"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "softnewt"
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx = np.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def undefined_exports(source: str) -> list[str]:
    """Names listed in a module's ``__all__`` that no top-level statement binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_undefined_exports_are_detected():
    source = "from os import sep\nX: int = 1\ndef f(): pass\n__all__ = ['sep', 'X', 'f', 'gone']\n"
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    assert undefined_exports(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """The package modules a module imports: relative imports and ``softnewt`` ones."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "softnewt":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "softnewt"]
    return found


def test_package_imports_are_detected():
    source = (
        "import numpy as np\nimport softnewt.model\nfrom softnewt import grad\n"
        "from . import bounds\nfrom .model import eval_forward\nfrom typing import Callable\n"
        "def f():\n    from ..softnewt import hessian\n"
    )
    assert package_imports(source) == ["softnewt.model", "softnewt", ".", ".model", "..softnewt"]
    assert package_imports("from __future__ import annotations\nimport numpy\n") == []


def test_oracle_imports_no_package_module():
    # the oracles check the closed forms, so they may not call them
    assert package_imports((PACKAGE_DIR / "oracle.py").read_text()) == []
