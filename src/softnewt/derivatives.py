"""Closed-form first derivatives of the two-layer loss.

Conventions: P has the softmax Jacobian columns (dF/dx_i in column i),
Q2 = diag(h'(A2 f)) @ A2 and q2 = Q2.T @ c = A2.T @ (h' o c). The forward
pass computes q2 (``ModelState.q2``) as matvecs, and the gradient of the data
term is assembled from it through the per-entry identity

    dL/dx_i = <A1[:, i], f o q2> - <f, A1[:, i]> <q2, f>,

equivalently grad_L = A1.T @ (diag(f) - f f.T) @ q2 = P.T @ q2. The solver's
gradient forms no n x d or m x n array; ``eval_p`` and ``eval_Q2`` build P and
Q2 for the callers that read them.

Stack contract: ``grad``, ``eval_p`` and ``eval_Q2`` accept the (k, d) stack
state that ``eval_forward`` returns and give one row (or one matrix) per
point, each bitwise equal to the call on that point's own state. A stack
takes one matrix-vector product per row (``model._matvec``) where a point
takes one, never a matrix-matrix product, and broadcasts its elementwise and
outer products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelState, ProblemInstance, ShapeError, _inner, _matvec, _outer

__all__ = ["GradientBundle", "eval_p", "eval_Q2", "grad"]


@dataclass
class GradientBundle:
    grad_L: np.ndarray  # d
    grad_reg: np.ndarray  # d
    grad_tot: np.ndarray  # d


def _leading_shape(state: ModelState, inst: ProblemInstance) -> tuple:
    """The state's leading shape: () for one point, (k,) for a stack of k."""
    lead = state.f.shape[:-1]
    if len(lead) > 1 or state.f.shape != lead + (inst.n,) or state.c.shape != lead + (inst.m,):
        raise ShapeError("state is inconsistent with instance dimensions")
    return lead


def _check(state: ModelState, inst: ProblemInstance) -> None:
    """One point's state, for the per-point oracles that take no stack."""
    if _leading_shape(state, inst):
        raise ShapeError("this route takes one point; a stacked state is not accepted")


def eval_p(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Softmax Jacobian columns: P = (diag(f) - f f^T) @ A1, shape n x d (k x n x d for a stack)."""
    _leading_shape(state, inst)
    f = state.f
    return f[..., :, None] * inst.A1 - _outer(f, _matvec(inst.A1.T, f))


def eval_Q2(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Q2 = diag(h'(A2 f)) @ A2, shape m x n (k x m x n for a stack)."""
    _leading_shape(state, inst)
    return state.hprime[..., :, None] * inst.A2


def grad(state: ModelState, inst: ProblemInstance) -> GradientBundle:
    """Gradient of the data term, the ridge term, and their sum (one row per point of a stack)."""
    _leading_shape(state, inst)
    f, q2 = state.f, state.q2
    A1t = inst.A1.T
    grad_L = _matvec(A1t, f * q2) - _inner(q2, f) * _matvec(A1t, f)
    # w^2 may overflow; the non-finite gradient is reported by the solver
    with np.errstate(over="ignore", invalid="ignore"):
        grad_reg = _matvec(A1t, (inst.w * inst.w) * state.a1x)
    return GradientBundle(grad_L=grad_L, grad_reg=grad_reg, grad_tot=grad_L + grad_reg)
