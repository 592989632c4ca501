"""Independent verification machinery.

Finite differences of scalar losses and vector gradients, plus a dense
symmetric eigensolver wrapper for one matrix or a stack of them. Golden
values for the closed-form modules are certified against these routines,
which never call the closed forms: they only difference values of the
function they are given.

That function takes a (k, d) stack of points and returns one value (or one
gradient row) per point. A derivative is taken at one point or at each
point of a stack, with the central stencils of all its points in one call,
in probe order: point by point, coordinate by coordinate, and within a
coordinate the offsets (+h, -h), with h = 1e-5 (1 + |x_i|). A caller whose
rows are large evaluates that stack in chunks inside the function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["fd_gradient", "fd_hessian", "spectral", "symmetric_part", "ProbeEvaluationError"]

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

    ``x`` is one point, or a (k, d) stack whose gradients come back stacked,
    each bitwise the one its point gives alone. ``func`` maps a stack of
    points to their values (or to rows of a vector function, whose Jacobian
    rows come back) and is called once, on every stencil: row 2 d p + 2 i + j
    is point p with x[i] moved by +h_i (j = 0) or -h_i (j = 1). A failure
    raises what a loop over the points would raise first: the first failing
    point's first non-finite value in stencil order, else its first quotient
    past float64.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"x must be a point or a (k, d) stack of points, got shape {x.shape}")
    X = np.atleast_2d(x)
    k, d = X.shape
    h = 1e-5 * (1.0 + np.abs(X))
    offsets = np.stack((h, -h), axis=-1).reshape(k, 2 * d)
    stack = np.repeat(X, 2 * d, axis=0)
    rows = np.arange(2 * d)
    stack.reshape(k, 2 * d, d)[:, rows, rows // 2] += offsets
    vals = np.asarray(func(stack), dtype=float)
    if vals.shape[:1] != (2 * d * k,):
        raise ValueError(f"func must map a ({2 * d * k}, {d}) stack to {2 * d * k} values, got shape {vals.shape}")
    vals = vals.reshape(k, d, 2, *vals.shape[1:])
    bad_val = ~np.isfinite(vals).all(axis=tuple(range(3, vals.ndim))).reshape(k, 2 * d)
    with np.errstate(over="ignore", invalid="ignore"):  # a failed point raises below
        quotient = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h.reshape(k, d, *[1] * (vals.ndim - 3)))
    bad_q = ~np.isfinite(quotient).all(axis=tuple(range(2, quotient.ndim)))
    failed = bad_val.any(axis=1) | bad_q.any(axis=1)
    if failed.any():
        p = int(failed.argmax())
        if bad_val[p].any():
            r = int(bad_val[p].argmax())
            i, offset = r // 2, float(offsets[p, r])
            raise ProbeEvaluationError(f"non-finite probe at coordinate {i}, offset {offset:+.3e}", i, offset)
        i = int(bad_q[p].argmax())
        raise ProbeEvaluationError(f"difference quotient past float64 at coordinate {i}", i, float(h[p, i]))
    return quotient if x.ndim == 2 else quotient[0]


def fd_hessian(grad_func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central differences of a vector gradient, symmetrized as (H + H^T)/2.

    ``grad_func`` maps a (k, d) stack of points to their k gradient rows; it
    is called once, on ``fd_gradient``'s stencil. A (k, d) stack of points
    gives k matrices, each bitwise the one its point gives alone. The
    unsymmetrized H is ``fd_gradient``'s Jacobian of ``grad_func``. Where
    H + H^T could pass float64 the halves are added instead, so a finite H
    gives a finite result.
    """
    H = np.swapaxes(fd_gradient(grad_func, x), -1, -2)
    HT = np.swapaxes(H, -1, -2)
    halves = np.max(np.abs(H), axis=(-2, -1), initial=0.0) > _HALF_MAX
    with np.errstate(over="ignore"):  # the sum is not read where it could overflow
        return np.where(halves[..., None, None], 0.5 * H + 0.5 * HT, 0.5 * (H + HT))


def symmetric_part(Msym: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of a square matrix, or of each of a (k, n, n) stack, after ``spectral``'s two checks.

    A matrix with a NaN or infinite entry raises ValueError, and so does one
    with max |M - M^T| > 1e-8 max(1, max |M|): relative to the largest entry
    above 1, absolute below it. The result is exactly symmetric. Where
    M + M^T could pass float64 the halves are added instead, as in
    ``fd_hessian``, so a finite M gives a finite result.
    """
    M = np.asarray(Msym, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("spectral expects a square matrix or a (k, n, n) stack of them")
    MT = np.swapaxes(M, -1, -2)
    # one scratch array serves |M|, |M - M^T| and (M + M^T) / 2, so a stack costs one copy of its size
    W = np.abs(M)
    # the maximum propagates NaN, so the scale is finite exactly where the matrix is
    scale = np.maximum(1.0, np.max(W, axis=(-2, -1), initial=0.0))
    if not np.isfinite(scale).all():
        raise ValueError("matrix has a non-finite entry")
    np.abs(np.subtract(M, MT, out=W), out=W)
    if np.any(np.max(W, axis=(-2, -1), initial=0.0) > 1e-8 * scale):
        raise ValueError("matrix is not symmetric within 1e-8")
    with np.errstate(over="ignore"):  # the sum is not read where it could overflow
        np.add(M, MT, out=W)
    W *= 0.5
    halves = scale > _HALF_MAX
    if halves.any():
        W[halves] = 0.5 * M[halves] + 0.5 * MT[halves]
    return W


def spectral(Msym: np.ndarray):
    """(lambda_min, lambda_max, ascending spectrum) of a symmetric matrix, or of each of a (k, n, n) stack.

    Takes the ``symmetric_part`` first, so a non-finite matrix, or one
    asymmetric beyond 1e-8 max(1, max |M|), raises ValueError. A stack takes
    one batched ``eigvalsh`` call and gives length-k arrays of extremes and a
    (k, n) array of spectra.
    """
    M = np.asarray(Msym, dtype=float)
    vals = np.linalg.eigvalsh(symmetric_part(M))
    if M.ndim == 2:
        return float(vals[0]), float(vals[-1]), vals
    return vals[:, 0], vals[:, -1], vals
