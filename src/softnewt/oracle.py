"""Independent verification machinery.

Finite differences of scalar losses and vector gradients, plus a dense
symmetric eigensolver wrapper for one matrix or a stack of them. Golden
values for the closed-form modules are certified against these routines,
which never call the closed forms: they only difference values of the
function they are given.

That function takes a (k, d) stack of points and returns one value (or one
gradient row) per point. Each derivative evaluates its whole stencil in one
call, in probe order: coordinate by coordinate, and within a coordinate the
offsets (+h, -h) for central2 or (+2h, +h, -h, -2h) for central4.
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


# stencil offsets in units of each coordinate's step h, in probe order
_OFFSETS = {"central2": np.array([1.0, -1.0]), "central4": np.array([2.0, 1.0, -1.0, -2.0])}


def _stencil(func: Callable, x: np.ndarray, cfg: FdConfig):
    """``func`` over the whole stencil in one call, shaped (d, s, ...), and the steps h.

    Row i * s + j of the stack is x with x[i] moved by the j-th offset, so the
    stack runs coordinate by coordinate, offsets (+h, -h) or (+2h, +h, -h, -2h)
    within each. The first non-finite value in that order raises.
    """
    h = _steps(x, cfg)
    offsets = h[:, None] * _OFFSETS[cfg.scheme]
    d, s = offsets.shape
    stack = np.tile(x, (d * s, 1))
    rows = np.arange(d * s)
    stack[rows, rows // s] += offsets.ravel()
    vals = np.asarray(func(stack), dtype=float)
    if vals.shape[:1] != (d * s,):
        raise ValueError(f"func must map a ({d * s}, {d}) stack to {d * s} values, got shape {vals.shape}")
    bad = ~np.isfinite(vals).all(axis=tuple(range(1, vals.ndim)))
    if bad.any():
        r = int(bad.argmax())
        i, offset = r // s, float(offsets.flat[r])
        raise ProbeEvaluationError(f"non-finite probe at coordinate {i}, offset {offset:+.3e}", i, offset)
    return vals.reshape(d, s, *vals.shape[1:]), h


def _central(vals: np.ndarray, h: np.ndarray, scheme: str) -> np.ndarray:
    """Central differences along each coordinate from its stencil values; row i is d/dx_i."""
    if vals.ndim == 3:
        h = h[:, None]
    if scheme == "central2":
        return (vals[:, 0] - vals[:, 1]) / (2.0 * h)
    return (-vals[:, 0] + 8.0 * vals[:, 1] - 8.0 * vals[:, 2] + vals[:, 3]) / (12.0 * h)


def fd_gradient(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    ``func`` maps a (k, d) stack of points to their k values; it is called
    once, on the whole stencil (see ``_stencil`` for the row order). central2
    has O(h^2) truncation; central4 uses the 4-point stencil with O(h^4)
    truncation for cross-checking.
    """
    x = np.asarray(x, dtype=float)
    return _central(*_stencil(func, x, cfg), cfg.scheme)


def fd_hessian(
    grad_func: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    cfg: FdConfig = FdConfig(),
    *,
    return_asymmetry: bool = False,
):
    """Central differences of a vector gradient, symmetrized as (H + H^T)/2.

    ``grad_func`` maps a (k, d) stack of points to their k gradient rows; it
    is called once, on the whole stencil. The pre-symmetrization asymmetry
    flags closed-form bugs; request it with ``return_asymmetry``.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    H = _central(*_stencil(grad_func, x, cfg), cfg.scheme).T
    asym = float(np.max(np.abs(H - H.T))) if d > 0 else 0.0
    H_sym = 0.5 * (H + H.T)
    if return_asymmetry:
        return H_sym, asym
    return H_sym


def spectral(Msym: np.ndarray):
    """(lambda_min, lambda_max, ascending spectrum) of a symmetric matrix, or of each of a (k, n, n) stack.

    Symmetrizes first; a matrix asymmetric beyond 1e-8 (relative to its
    largest entry) is rejected. A stack takes one batched ``eigvalsh`` call
    and gives length-k arrays of extremes and a (k, n) array of spectra.
    """
    M = np.asarray(Msym, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("spectral expects a square matrix or a (k, n, n) stack of them")
    MT = np.swapaxes(M, -1, -2)
    # one scratch array serves |M|, |M - M^T| and (M + M^T) / 2, so a stack costs one copy of its size
    W = np.abs(M)
    scale = np.maximum(1.0, np.max(W, axis=(-2, -1), initial=0.0))
    np.abs(np.subtract(M, MT, out=W), out=W)
    if np.any(np.max(W, axis=(-2, -1), initial=0.0) > 1e-8 * scale):
        raise ValueError("matrix is not symmetric within 1e-8")
    np.add(M, MT, out=W)
    W *= 0.5
    vals = np.linalg.eigvalsh(W)
    if M.ndim == 2:
        return float(vals[0]), float(vals[-1]), vals
    return vals[:, 0], vals[:, -1], vals
