"""Independent verification machinery.

Finite differences of scalar losses and vector gradients, plus a dense
symmetric eigensolver wrapper. Golden values for the closed-form modules are
certified against these routines, which never call the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["FdConfig", "fd_gradient", "fd_hessian", "spectral", "ProbeEvaluationError"]


class ProbeEvaluationError(ArithmeticError):
    """A finite-difference probe produced a non-finite value."""

    def __init__(self, message: str, coordinate: int, offset: float):
        super().__init__(message)
        self.coordinate = coordinate
        self.offset = offset


@dataclass(frozen=True)
class FdConfig:
    step_mode: str = "relative"  # "absolute" | "relative"
    base_step: float = 1e-5
    scheme: str = "central2"  # "central2" | "central4"

    def __post_init__(self):
        if self.step_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")
        if self.scheme not in ("central2", "central4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (1e-9 <= self.base_step <= 1e-2):
            raise ValueError("base_step must lie in [1e-9, 1e-2]")


def _steps(x: np.ndarray, cfg: FdConfig) -> np.ndarray:
    if cfg.step_mode == "absolute":
        return np.full(x.shape, cfg.base_step)
    return cfg.base_step * (1.0 + np.abs(x))


def _probe(func: Callable, x: np.ndarray, i: int, offset: float):
    xp = x.copy()
    xp[i] += offset
    val = func(xp)
    if not np.all(np.isfinite(val)):
        raise ProbeEvaluationError(
            f"non-finite probe at coordinate {i}, offset {offset:+.3e}", i, offset
        )
    return val


def _central(func: Callable, x: np.ndarray, i: int, h: float, scheme: str):
    """Central-difference derivative along coordinate i, probing in stencil order."""
    if scheme == "central2":
        return (_probe(func, x, i, h) - _probe(func, x, i, -h)) / (2.0 * h)
    return (
        -_probe(func, x, i, 2.0 * h)
        + 8.0 * _probe(func, x, i, h)
        - 8.0 * _probe(func, x, i, -h)
        + _probe(func, x, i, -2.0 * h)
    ) / (12.0 * h)


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    central2 has O(h^2) truncation; central4 uses the 4-point stencil with
    O(h^4) truncation for cross-checking.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, cfg)
    g = np.empty_like(x)
    for i in range(x.size):
        g[i] = _central(func, x, i, h[i], cfg.scheme)
    return g


def fd_hessian(
    grad_func: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    cfg: FdConfig = FdConfig(),
    *,
    return_asymmetry: bool = False,
):
    """Central differences of a vector gradient, symmetrized as (H + H^T)/2.

    The pre-symmetrization asymmetry flags closed-form bugs; request it with
    ``return_asymmetry``.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    h = _steps(x, cfg)
    H = np.empty((d, d))
    for j in range(d):
        H[:, j] = _central(grad_func, x, j, h[j], cfg.scheme)
    asym = float(np.max(np.abs(H - H.T))) if d > 0 else 0.0
    H_sym = 0.5 * (H + H.T)
    if return_asymmetry:
        return H_sym, asym
    return H_sym


def spectral(Msym: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(lambda_min, lambda_max, ascending spectrum) of a symmetric matrix.

    Symmetrizes first; inputs asymmetric beyond 1e-8 (relative to the largest
    entry) are rejected.
    """
    M = np.asarray(Msym, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if float(np.max(np.abs(M - M.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within 1e-8")
    vals = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(vals[0]), float(vals[-1]), vals
