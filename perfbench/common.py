"""Process set-up shared by the benchmark's entry points.

``pin_blas`` must run before numpy is imported: OpenBLAS reads its thread
count once, when the library loads.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS_ENV = "SOFTNEWT_THREADS"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, or a failed set-up)."""


def pin_blas() -> None:
    """One BLAS thread, here and in every child process."""
    for key in BLAS_ENV:
        os.environ[key] = "1"


def import_softnewt():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / "softnewt" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no package sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("softnewt")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchSetupError(f"softnewt was imported from {pkg.__file__}, not from {init}")
    return pkg


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "softnewt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(lib_path).name] = int(fn())
                break
    return found


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        return None


def environment() -> dict:
    """The header recorded with every result."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "loop": "closed, one process, one caller",
    }
