"""Closed-form second derivatives.

The data-term Hessian factors as H_L = A1^T B A1 with an n x n curvature
kernel

    B = J Qt J + J S J + 2 s f f^T - f v^T - v f^T + diag(v) - s diag(f),

where J = diag(f) - f f^T, Qt = Q2^T Q2, S = A2^T diag(h''(A2 f) o c) A2,
v = f o q2 and s = <q2, f>. B has one representation, the factored one: the
m x n factors Q2 J and A2 J, the m-vector h'' o c, and f, v, s, all formed in
O(n m) without J. Everything else is read from those factors:

- ``hess_L`` is the production route: O(n m d + n d^2) time, no n x n array
  at any n. From one factor pass it returns H_L, H_tot and ``B_diag`` =
  diag(B) (O(n m) more), the sketched step's surrogate.
- ``kernel`` returns the dense B in O(n^2 m) time and n^2 memory. It is for
  diagnostics (spectrum probes, route-agreement checks) and is never called
  by the solver.

``hess_L_entries`` (H_L summed entry by entry), ``b_terms`` and
``hess_f_pair`` build from P, Q2, q2, Qt and S on their own, never from the
factors, and are the references the factored route is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import eval_Q2_q2, eval_p
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
    """(Q2 J, A2 J, h'' o c, f, v, s) in O(n m); J = diag(f) - f f^T is never formed."""
    Q2, q2 = eval_Q2_q2(state, inst)
    f = state.f
    QJ = Q2 * f - np.outer(Q2 @ f, f)
    AJ = inst.A2 * f - np.outer(state.a2f, f)
    return QJ, AJ, state.hdoubleprime * state.c, f, f * q2, float(q2 @ f)


def hess_L_entries(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Literal per-entry H_L, the reference for the factored route.

    P and Q2 are built once, then each entry is summed on its own as
    (Q2 p_j)^T (Q2 p_i) + sum(c o h'' o (A2 p_j) o (A2 p_i)) + c^T Q2 d2f/dx_i dx_j.
    """
    P = eval_p(state, inst)
    Q2, _ = eval_Q2_q2(state, inst)
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

    H_L = A1^T B A1 = P2^T P2 + G^T diag(h'' o c) G + a w^T + w a^T
    - A1^T diag(u) A1, with P2 = (Q2 J) A1, G = (A2 J) A1, u = s f - v,
    a = A1^T f and w = A1^T u. Only m x n and d x d arrays are formed, so
    this is the solver's route at any n. It equals the sum of ``g_terms``;
    summed this way the terms that cancel (all of them at n = 1) cancel exactly.
    diag(B) = colsum((Q2 J)^2) + (h'' o c)^T (A2 J)^2 + (2 f - 1) o u.
    """
    QJ, AJ, curv, f, v, s = _factors(state, inst)
    A1 = inst.A1
    P2 = QJ @ A1
    G = AJ @ A1
    u = s * f - v
    a = A1.T @ f
    w = A1.T @ u
    H_L = P2.T @ P2 + G.T @ (curv[:, None] * G)
    H_L += np.outer(a, w) + np.outer(w, a) - A1.T @ (u[:, None] * A1)
    # w^2 may overflow; the non-finite Hessian is reported by the solver
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = inst.w * inst.w
        H_tot = H_L + A1.T @ (w2[:, None] * A1)
    B_diag = np.einsum("ki,ki->i", QJ, QJ) + curv @ (AJ * AJ) + (2.0 * f - 1.0) * u
    return HessianBundle(H_L=H_L, H_tot=H_tot, B_diag=B_diag)


def kernel(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """The dense n x n curvature kernel B, in O(n^2 m); for diagnostics only.

    B = (Q2 J)^T (Q2 J) + (A2 J)^T diag(h'' o c) (A2 J) + f u^T + u f^T - diag(u)
    with u = s f - v.
    """
    QJ, AJ, curv, f, v, s = _factors(state, inst)
    u = s * f - v
    B = QJ.T @ QJ
    B += AJ.T @ (curv[:, None] * AJ)
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
    Q2, q2 = eval_Q2_q2(state, inst)
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
    These feed the per-piece Lipschitz tightness probes. Q2 J A1 = Q2 P, so
    G1 and G2 come from the kernel factors times A1.
    """
    QJ, AJ, curv, f, v, s = _factors(state, inst)
    QP = QJ @ inst.A1
    G = AJ @ inst.A1
    a = inst.A1.T @ f
    t = inst.A1.T @ v
    return {
        "G1": QP.T @ QP,
        "G2": G.T @ (curv[:, None] * G),
        "G3": 2.0 * s * np.outer(a, a),
        "G4": s * (inst.A1.T @ (f[:, None] * inst.A1)),
        "G5": 2.0 * np.outer(a, t),
        "G6": inst.A1.T @ (v[:, None] * inst.A1),
    }
