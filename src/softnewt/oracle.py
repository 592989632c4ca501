"""Independent verification machinery.

Finite differences of scalar losses and vector gradients, plus a dense
symmetric eigensolver wrapper for one matrix or a stack of them. Golden
values for the closed-form modules are certified against these routines,
which never call the closed forms: they only difference values of the
function they are given.

That function takes a (k, d) stack of points and returns one value (or one
gradient row) per point. Each derivative evaluates its whole central
stencil in one call, in probe order: coordinate by coordinate, and within a
coordinate the offsets (+h, -h), with h = 1e-5 (1 + |x_i|).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["fd_gradient", "fd_hessian", "spectral", "ProbeEvaluationError"]

# entries up to half the float64 maximum cannot overflow a sum of two
_HALF_MAX = np.finfo(float).max / 2


class ProbeEvaluationError(ArithmeticError):
    """A finite-difference probe produced a non-finite value."""

    def __init__(self, message: str, coordinate: int, offset: float):
        super().__init__(message)
        self.coordinate = coordinate
        self.offset = offset


def fd_gradient(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, with O(h^2) truncation; row i is d/dx_i.

    ``func`` maps a (k, d) stack of points to their k values (or k rows of a
    vector function, whose Jacobian rows come back); it is called once, on
    the whole stencil. Row 2 i + j of the stack is x with x[i] moved by +h_i
    (j = 0) or -h_i (j = 1), h_i = 1e-5 (1 + |x_i|). The first non-finite
    value in that order raises, and so does a quotient past float64.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    h = 1e-5 * (1.0 + np.abs(x))
    offsets = np.column_stack((h, -h)).ravel()
    stack = np.tile(x, (2 * d, 1))
    rows = np.arange(2 * d)
    stack[rows, rows // 2] += offsets
    vals = np.asarray(func(stack), dtype=float)
    if vals.shape[:1] != (2 * d,):
        raise ValueError(f"func must map a ({2 * d}, {d}) stack to {2 * d} values, got shape {vals.shape}")
    bad = ~np.isfinite(vals).all(axis=tuple(range(1, vals.ndim)))
    if bad.any():
        r = int(bad.argmax())
        i, offset = r // 2, float(offsets[r])
        raise ProbeEvaluationError(f"non-finite probe at coordinate {i}, offset {offset:+.3e}", i, offset)
    vals = vals.reshape(d, 2, *vals.shape[1:])
    with np.errstate(over="ignore"):  # finite values whose quotient overflows raise below
        quotient = (vals[:, 0] - vals[:, 1]) / (2.0 * h.reshape(d, *[1] * (vals.ndim - 2)))
    bad = ~np.isfinite(quotient).all(axis=tuple(range(1, quotient.ndim)))
    if bad.any():
        i = int(bad.argmax())
        raise ProbeEvaluationError(f"difference quotient past float64 at coordinate {i}", i, float(h[i]))
    return quotient


def fd_hessian(
    grad_func: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    *,
    return_asymmetry: bool = False,
):
    """Central differences of a vector gradient, symmetrized as (H + H^T)/2.

    ``grad_func`` maps a (k, d) stack of points to their k gradient rows; it
    is called once, on ``fd_gradient``'s stencil. The pre-symmetrization asymmetry
    flags closed-form bugs; request it with ``return_asymmetry``. Where H + H^T
    could pass float64 the halves are added instead, so a finite H gives a
    finite result.
    """
    H = fd_gradient(grad_func, x).T
    asym = float(np.max(np.abs(H - H.T), initial=0.0))
    H_sym = 0.5 * (H + H.T) if np.max(np.abs(H), initial=0.0) <= _HALF_MAX else 0.5 * H + 0.5 * H.T
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
