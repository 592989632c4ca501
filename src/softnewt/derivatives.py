"""Closed-form first derivatives of the two-layer loss.

Conventions: P has the softmax Jacobian columns (dF/dx_i in column i),
Q2 = diag(h'(A2 f)) @ A2 and q2 = Q2.T @ c = A2.T @ (h' o c). The forward
pass computes q2 (``ModelState.q2``) as matvecs, and the gradient of the data
term is assembled from it through the per-entry identity

    dL/dx_i = <A1[:, i], f o q2> - <f, A1[:, i]> <q2, f>,

equivalently grad_L = A1.T @ (diag(f) - f f.T) @ q2 = P.T @ q2. The solver's
gradient forms no n x d or m x n array; ``eval_p`` and ``eval_Q2`` build P and
Q2 for the callers that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelState, ProblemInstance, ShapeError

__all__ = ["GradientBundle", "eval_p", "eval_Q2", "grad"]


@dataclass
class GradientBundle:
    grad_L: np.ndarray  # d
    grad_reg: np.ndarray  # d
    grad_tot: np.ndarray  # d


def _check(state: ModelState, inst: ProblemInstance) -> None:
    if state.f.shape != (inst.n,) or state.c.shape != (inst.m,):
        raise ShapeError("state is inconsistent with instance dimensions")


def eval_p(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Softmax Jacobian columns: P = (diag(f) - f f^T) @ A1, shape n x d."""
    _check(state, inst)
    f = state.f
    return f[:, None] * inst.A1 - np.outer(f, f @ inst.A1)


def eval_Q2(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Q2 = diag(h'(A2 f)) @ A2, shape m x n."""
    _check(state, inst)
    return state.hprime[:, None] * inst.A2


def grad(state: ModelState, inst: ProblemInstance) -> GradientBundle:
    """Gradient of the data term, the ridge term, and their sum."""
    _check(state, inst)
    f, q2 = state.f, state.q2
    grad_L = inst.A1.T @ (f * q2) - (q2 @ f) * (inst.A1.T @ f)
    # w^2 may overflow; the non-finite gradient is reported by the solver
    with np.errstate(over="ignore", invalid="ignore"):
        grad_reg = inst.A1.T @ ((inst.w * inst.w) * state.a1x)
    return GradientBundle(grad_L=grad_L, grad_reg=grad_reg, grad_tot=grad_L + grad_reg)
