"""Checks over the package source, and over the modules a session of the package loads."""

import ast
import os
import subprocess
import sys
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


def imported_roots(source: str) -> set[str]:
    """The top-level names of every module a source imports, at any depth of its code; relative imports are skipped."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_are_detected():
    source = "import numpy as np\nfrom scipy.linalg import eigh\nfrom . import model\ndef f():\n    import scipy.sparse\n"
    assert imported_roots(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # every d x d factorization goes through numpy.linalg, so a session maps numpy's one LAPACK;
    # scipy is the tests' independent reference only
    assert "scipy" not in imported_roots(path.read_text())


def test_a_session_loads_no_scipy_module():
    # a sketched solve that draws rows (the leverage of its ridge distribution, the deviation and the
    # Cholesky solve), every verify check, and a full probe, in a fresh process without the test suite
    code = """
import sys
import numpy as np
import softnewt as sn
from softnewt import cli
from softnewt.bounds import probe_empirical

inst = sn.gen_instance(1200, 16, 2, "tanh", 1, noise=0.05)[0]
rep = sn.solve(inst, np.array([0.2, -0.1]), sn.NewtonConfig(mode="sketched", eps0=0.45, max_iters=20, seed=1))
assert rep.status == "converged" and min(rep.sketch_draws_per_iter) > 0, rep.sketch_draws_per_iter
small = sn.gen_instance(8, 4, 3, "tanh", 7)[0]
assert all(passed for _, passed, _, _ in cli._verify_checks(small, 1, 3))
probe_empirical(small, [np.zeros(3), np.full(3, 0.1), np.array([0.2, -0.1, 0.05])])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
