"""Closed-form second derivatives.

The data-term Hessian factors as H_L = A1^T B A1 with an n x n curvature
kernel. With J = diag(f) - f f^T, v = f o q2, s = <q2, f>, u = s f - v and
g = h'^2 + h'' o c,

    B = (A2 J)^T diag(g) (A2 J) + f u^T + u f^T - diag(u).

B has this one representation: the m x n factor A2 J, the m-vectors h'^2
and h'' o c, and f, v, s, all formed in O(n m) without J from the forward
pass (q2 is ``ModelState.q2``). Everything else is read from them:

- ``hess_L`` is the production route: O(n m d + n d^2) time, no n x n array
  at any n. From one factor pass it returns H_L, H_tot and ``B_diag`` =
  diag(B) (O(n m) more), the sketched step's surrogate.
- ``kernel`` returns the dense B in O(n^2 m) time and n^2 memory. It is for
  diagnostics (spectrum probes, route-agreement checks) and is never called
  by the solver.

``hess_L_entries`` (H_L summed entry by entry), ``b_terms`` and
``hess_f_pair`` keep the per-entry split form J Q2^T Q2 J + J S J + ..., with
Q2 = diag(h') A2 and S = A2^T diag(h'' o c) A2 (Q2 J = diag(h') A2 J folds its
two quadratic parts into the one above). They build P, Q2, q2 = Q2^T c and S
themselves, never from the factors or the forward pass's q2, and are the
references the routes above are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import _check, eval_Q2, eval_p
from .model import ModelState, ProblemInstance

__all__ = [
    "HessianBundle",
    "hess_f_pair",
    "hess_L",
    "hess_L_entries",
    "kernel",
    "b_terms",
    "B_TERM_NAMES",
    "g_terms",
]

B_TERM_NAMES = tuple(f"B{i}" for i in range(1, 13))


@dataclass
class HessianBundle:
    H_L: np.ndarray  # d x d
    H_tot: np.ndarray  # d x d
    B_diag: np.ndarray  # n, diag(B)


def hess_f_pair(state: ModelState, inst: ProblemInstance, i: int, j: int) -> np.ndarray:
    """Second derivative of the softmax vector along coordinates (i, j).

    Symmetric form: 2<f,a_i><f,a_j> f - <f,a_i o a_j> f - <f,a_j>(f o a_i)
    - <f,a_i>(f o a_j) + a_i o f o a_j, with a_k = A1[:, k].
    """
    if not (0 <= i < inst.d and 0 <= j < inst.d):
        raise IndexError(f"column indices must lie in [0, {inst.d}), got ({i}, {j})")
    f = state.f
    ai = inst.A1[:, i]
    aj = inst.A1[:, j]
    fi = float(f @ ai)
    fj = float(f @ aj)
    return (
        2.0 * fi * fj * f
        - float(f @ (ai * aj)) * f
        - fj * (f * ai)
        - fi * (f * aj)
        + ai * f * aj
    )


def _factors(state: ModelState, inst: ProblemInstance):
    """(A2 J, h'^2, h'' o c, f, v, s) in O(n m); J = diag(f) - f f^T is never formed."""
    _check(state, inst)
    f, q2 = state.f, state.q2
    AJ = inst.A2 * f - np.outer(state.a2f, f)
    return AJ, state.hprime**2, state.hdoubleprime * state.c, f, f * q2, float(q2 @ f)


def hess_L_entries(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Literal per-entry H_L, the reference for the factored route.

    P and Q2 are built once, then each entry is summed on its own as
    (Q2 p_j)^T (Q2 p_i) + sum(c o h'' o (A2 p_j) o (A2 p_i)) + c^T Q2 d2f/dx_i dx_j.
    """
    P = eval_p(state, inst)
    Q2 = eval_Q2(state, inst)
    d = inst.d
    QP = [Q2 @ P[:, i] for i in range(d)]
    AP = [inst.A2 @ P[:, i] for i in range(d)]
    H = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            term1 = float(QP[j] @ QP[i])
            term2 = float(np.sum(state.c * state.hdoubleprime * AP[j] * AP[i]))
            term3 = float(state.c @ (Q2 @ hess_f_pair(state, inst, i, j)))
            H[i, j] = term1 + term2 + term3
    return H


def hess_L(state: ModelState, inst: ProblemInstance) -> HessianBundle:
    """Hessian of the data term, the total Hessian and diag(B), in O(n m d + n d^2).

    H_L = A1^T B A1 = G^T diag(g) G + a w^T + w a^T - A1^T diag(u) A1, with
    G = (A2 J) A1, g = h'^2 + h'' o c, u = s f - v, a = A1^T f and
    w = A1^T u. Only m x n and d x d arrays are formed, so this is the
    solver's route at any n. It equals the sum of ``g_terms``; summed this way
    the terms that cancel (all of them at n = 1, where A2 J and u are 0)
    cancel exactly. diag(B) = g^T (A2 J)^2 + (2 f - 1) o u.
    """
    AJ, hp2, curv, f, v, s = _factors(state, inst)
    A1 = inst.A1
    g = hp2 + curv
    G = AJ @ A1
    u = s * f - v
    a = A1.T @ f
    w = A1.T @ u
    H_L = G.T @ (g[:, None] * G)
    H_L += np.outer(a, w) + np.outer(w, a) - A1.T @ (u[:, None] * A1)
    # w^2 may overflow; the non-finite Hessian is reported by the solver
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = inst.w * inst.w
        H_tot = H_L + A1.T @ (w2[:, None] * A1)
    B_diag = g @ (AJ * AJ) + (2.0 * f - 1.0) * u
    return HessianBundle(H_L=H_L, H_tot=H_tot, B_diag=B_diag)


def kernel(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """The dense n x n curvature kernel B, in O(n^2 m); for diagnostics only.

    B = (A2 J)^T diag(g) (A2 J) + f u^T + u f^T - diag(u) with
    g = h'^2 + h'' o c and u = s f - v: one n x n product.
    """
    AJ, hp2, curv, f, v, s = _factors(state, inst)
    u = s * f - v
    B = AJ.T @ ((hp2 + curv)[:, None] * AJ)
    B += np.outer(f, u)
    B += np.outer(u, f)
    B.flat[:: inst.n + 1] -= u
    return B


def b_terms(state: ModelState, inst: ProblemInstance) -> list[np.ndarray]:
    """The twelve addends of the curvature kernel, in corrected form.

    Signs and transposes follow the per-entry second derivative (the mixed
    term appears symmetrized, split across the two rank-one products of B6):

      B1  =  diag(f) Qt diag(f)          B7  =  diag(f o q2)
      B2  = -diag(f) Qt f f^T            B8  =  diag(f) S diag(f)
      B3  = -f f^T Qt diag(f)            B9  = -diag(f) S f f^T
      B4  =  (f^T Qt f) f f^T            B10 = -f f^T S diag(f)
      B5  =  2 <q2, f> f f^T             B11 =  (f^T S f) f f^T
      B6  = -f (f o q2)^T - (f o q2) f^T B12 = -<q2, f> diag(f)

    with Qt = Q2^T Q2 and S = A2^T diag(h''(A2 f) o c) A2. Their sum equals
    ``kernel`` to rounding.
    """
    Q2 = eval_Q2(state, inst)
    q2 = Q2.T @ state.c
    f = state.f
    v = f * q2
    s = float(q2 @ f)
    curv = state.hdoubleprime * state.c
    Qt = Q2.T @ Q2
    S = inst.A2.T @ (curv[:, None] * inst.A2)
    df = np.diag(f)
    ff = np.outer(f, f)
    return [
        df @ Qt @ df,
        -df @ Qt @ ff,
        -ff @ Qt @ df,
        float(f @ Qt @ f) * ff,
        2.0 * s * ff,
        -np.outer(f, v) - np.outer(v, f),
        np.diag(v),
        df @ S @ df,
        -df @ S @ ff,
        -ff @ S @ df,
        float(f @ S @ f) * ff,
        -s * np.diag(f),
    ]


def g_terms(state: ModelState, inst: ProblemInstance) -> dict[str, np.ndarray]:
    """The six d x d pieces of the per-entry Hessian, in literal form.

    H_L = G1 + G2 + G3 - G4 - G5 + G6 up to the symmetrization of G5 (the
    literal G5 = 2 a t^T is one-sided; the Hessian holds (a t^T + t a^T)).
    These feed the per-piece Lipschitz tightness probes. Q2 P = diag(h') G
    with G = (A2 J) A1 = A2 P, so G1 = G^T diag(h'^2) G and
    G2 = G^T diag(h'' o c) G share the one factor.
    """
    AJ, hp2, curv, f, v, s = _factors(state, inst)
    G = AJ @ inst.A1
    a = inst.A1.T @ f
    t = inst.A1.T @ v
    return {
        "G1": G.T @ (hp2[:, None] * G),
        "G2": G.T @ (curv[:, None] * G),
        "G3": 2.0 * s * np.outer(a, a),
        "G4": s * (inst.A1.T @ (f[:, None] * inst.A1)),
        "G5": 2.0 * np.outer(a, t),
        "G6": inst.A1.T @ (v[:, None] * inst.A1),
    }
