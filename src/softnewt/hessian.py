"""Closed-form second derivatives.

The data-term Hessian factors as H_L = A1^T B A1 with an n x n curvature
kernel. With J = diag(f) - f f^T, the centred D = A2 - (A2 f) 1^T (so that
A2 J = D diag(f)), u = <q2, f> f - f o q2 and g = h'^2 + h'' o c,

    B = (D diag f)^T diag(g) (D diag f) + f u^T + u f^T - diag(u).

B has this one representation: the m x n factor D (``_centred_A2``), the
m-vector g and the n-vector u (``_g_u``), and f, all formed in O(n m)
without J from the forward pass (q2 is ``ModelState.q2``). With
F = D diag(f) and v = h' o c, q2 - <q2, f> 1 = D^T v, so u = -F^T v and B is
diagonal plus rank m + 1:

    B = Z C Z^T - diag(u),  Z = [F^T f],  C = [[diag(g), -v], [-v^T, 0]].

``bounds._certified`` reads the kernel spectrum through this factor (where
u and -F^T v differ by rounding, it bounds the gap). Everything else is read
from the factors:

- ``hess_L`` is the production route: H_L and H_tot in O(n m d + n d^2), no
  n x n array at any n. It never forms D: its m x d product
  G = (A2 J) A1 = (A2 o f) A1 - (A2 f)(f^T A1) takes one m x n temporary.
- ``kernel_diag`` is the one route for diag(B) = f o f o ((D o D)^T g) +
  (2 f - 1) o u, in O(n m) with D squared in place; the sketched step's
  surrogate. Only the sketched step and the checks that compare it read it.
- ``kernel`` returns the dense B in O(n^2 m) time and n^2 memory, with D
  scaled by f in place. It is for diagnostics (spectrum probes,
  route-agreement checks) and is never called by the solver.

``hess_L_entries`` (H_L summed entry by entry, through ``_d2f``) and
``b_terms`` keep the per-entry split form J Q2^T Q2 J + J S J + ..., with
Q2 = diag(h') A2 and S = A2^T diag(h'' o c) A2 (Q2 J = diag(h') A2 J folds its
two quadratic parts into the one above). They build P, Q2, q2 = Q2^T c and S
themselves, never from D, G or the forward pass's q2, and are the
references the routes above are checked against. ``hess_L_entries`` sums
its entries a chunk of rows at a time, each with the same float operations
as its own literal per-entry sum.

Stack contract: ``_centred_A2``, ``_g_u``, ``_G``, ``hess_L``,
``kernel_diag``, ``kernel`` and ``g_terms`` accept the (k, d) stack state
that ``eval_forward`` returns. Every field then gains a leading axis of
length k, and row r is bitwise equal to the call on point r's own state: a
stack takes one matrix-vector product per row (``model._matvec``) where a
point takes one, one matrix-matrix product per row where a point takes one,
and broadcasts its elementwise and outer products. ``kernel`` of a stack
holds k n x n matrices, so callers chunk their points. ``b_terms`` and
``hess_L_entries`` take one point and raise ShapeError on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import _check, _leading_shape, eval_Q2, eval_p
from .model import ModelState, ProblemInstance, _chunks, _inner, _matvec, _outer

__all__ = [
    "HessianBundle",
    "hess_L",
    "hess_L_entries",
    "kernel",
    "kernel_diag",
    "b_terms",
    "B_TERM_NAMES",
    "g_terms",
]

B_TERM_NAMES = tuple(f"B{i}" for i in range(1, 13))


@dataclass
class HessianBundle:
    """H_L = A1^T B A1 and H_tot = H_L + A1^T diag(w^2) A1; diag(B) is ``kernel_diag``'s."""

    H_L: np.ndarray  # d x d
    H_tot: np.ndarray  # d x d


def _d2f(f, ai, aj, fi, fj, fij):
    """Symmetric form d2f/dx_i dx_j = 2 fi fj f - fij f - fj f o ai - fi f o aj + ai o f o aj; broadcasts.

    ai = A1[:, i], fi = <f, ai> and fij = <f, ai o aj>.
    """
    return 2.0 * fi * fj * f - fij * f - fj * (f * ai) - fi * (f * aj) + ai * f * aj


def _centred_A2(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """D = A2 - (A2 f) 1^T, one m x n array per point, so that A2 J = D diag(f); callers may overwrite it."""
    _leading_shape(state, inst)
    return inst.A2 - state.a2f[..., :, None]


def _g_u(state: ModelState):
    """(g, u) = (h'^2 + h'' o c, <q2, f> f - f o q2): B's weights on D diag(f) and its rank-one parts."""
    f, q2 = state.f, state.q2
    return state.hprime**2 + state.hdoubleprime * state.c, _inner(q2, f) * f - f * q2


def _G(state: ModelState, inst: ProblemInstance):
    """(G, a) with G = (A2 J) A1 = (A2 o f) A1 - (A2 f) a^T and a = A1^T f.

    One m x n temporary (A2 o f) per point, a pass fewer than D diag(f).
    A stack gives each one row per point.
    """
    _leading_shape(state, inst)
    f = state.f
    a = _matvec(inst.A1.T, f)
    G = (inst.A2 * f[..., None, :]) @ inst.A1
    G -= _outer(state.a2f, a)
    return G, a


def hess_L_entries(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Literal per-entry H_L at one point, the reference for the factored route.

    P and Q2 are built once, then entry (i, j) is summed on its own as
    (Q2 p_j)^T (Q2 p_i) + sum(c o h'' o (A2 p_j) o (A2 p_i)) + c^T Q2 d2f/dx_i dx_j,
    with d2f/dx_i dx_j in ``_d2f``'s symmetric form. The rows i are evaluated
    in chunks whose (rows, d, n) arrays take at most ``_CHUNK_BYTES`` (one
    row at least): every dot product, matrix-vector product and sum is the
    one the entry takes alone, stacked over i and j.
    """
    _check(state, inst)
    P = eval_p(state, inst)
    Q2 = eval_Q2(state, inst)
    d = inst.d
    f, c = state.f, state.c
    A1t = inst.A1.T  # row j: a_j
    QP = _matvec(Q2, P.T)  # row j: Q2 p_j
    AP = _matvec(inst.A2, P.T)  # row j: A2 p_j
    cAP = c * state.hdoubleprime * AP
    fa = _inner(f, A1t)  # row j: <f, a_j>
    H = np.empty((d, d))
    for rows in _chunks(d, 8 * d * inst.n):
        ai = A1t[rows, None, :]
        # <f, a_i o a_j>; a_i o a_j is a fresh contiguous vector in the per-entry sum, and a
        # strided one takes a different dot kernel
        fij = _inner(f, np.multiply(ai, A1t, order="C"))
        F = _d2f(f, ai, A1t, fa[rows, None], fa, fij)  # [i, j]: d2f/dx_i dx_j
        term1 = _inner(QP, QP[rows, None, :])
        term2 = np.sum(cAP * AP[rows, None, :], axis=-1)
        term3 = _inner(c, np.matmul(Q2, F[..., None])[..., 0])
        H[rows] = term1[..., 0] + term2 + term3[..., 0]
    return H


def hess_L(state: ModelState, inst: ProblemInstance) -> HessianBundle:
    """Hessian of the data term and the total Hessian, in O(n m d + n d^2).

    H_L = A1^T B A1 = G^T diag(g) G + a w^T + w a^T - A1^T diag(u) A1, with
    G = (A2 J) A1 = (A2 o f) A1 - (A2 f) a^T (``_G``), g and u from
    ``_g_u``, a = A1^T f and w = A1^T u, and H_tot = H_L +
    ``inst.ridge_gram``, which is formed once per instance. Only one m x n
    temporary and m x d, n x d and d x d arrays are formed, so this is the
    solver's route at any n. It equals the sum of ``g_terms``; summed this way
    the terms that cancel (all of them at n = 1, where G and u are 0) cancel
    exactly. diag(B) is ``kernel_diag``'s. A stack gives each field one row
    per point.
    """
    G, a = _G(state, inst)
    g, u = _g_u(state)
    w = _matvec(inst.A1.T, u)
    H_L = np.swapaxes(G, -1, -2) @ (g[..., :, None] * G)
    H_L += _outer(a, w) + _outer(w, a) - inst.A1.T @ (u[..., :, None] * inst.A1)
    return HessianBundle(H_L=H_L, H_tot=H_L + inst.ridge_gram)


def kernel_diag(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """diag(B) = f o f o ((D o D)^T g) + (2 f - 1) o u in O(n m), without B; one row per point of a stack.

    D is squared in place: one m x n array per point. The one route for
    diag(B): the sketched step's surrogate and the checks against ``kernel``.
    """
    D = _centred_A2(state, inst)
    D *= D
    g, u = _g_u(state)
    f = state.f
    return f * f * _matvec(np.swapaxes(D, -1, -2), g) + (2.0 * f - 1.0) * u


def kernel(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """The dense n x n curvature kernel B, in O(n^2 m); for diagnostics only.

    B = (D diag f)^T diag(g) (D diag f) + f u^T + u f^T - diag(u) with
    D = ``_centred_A2`` scaled by f in place: one n x n product per point,
    so a stack of k points holds k n^2 floats.
    """
    AJ = _centred_A2(state, inst)
    AJ *= state.f[..., None, :]
    g, u = _g_u(state)
    B = np.swapaxes(AJ, -1, -2) @ (g[..., :, None] * AJ)
    B += _outer(state.f, u)
    B += _outer(u, state.f)
    n = inst.n
    B.reshape(B.shape[:-2] + (n * n,))[..., :: n + 1] -= u
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
    _check(state, inst)
    Q2 = eval_Q2(state, inst)
    q2 = Q2.T @ state.c
    f = state.f
    v = f * q2
    s = float(q2 @ f)
    curv = state.hdoubleprime * state.c
    Qt = Q2.T @ Q2
    S = inst.A2.T @ (curv[:, None] * inst.A2)
    # diag(f) products as row and column scalings: the entries diag(f) GEMMs give, for finite inputs
    fr, fc = f[:, None], f[None, :]
    ff = np.outer(f, f)
    return [
        fr * Qt * fc,
        -(fr * Qt) @ ff,
        -(ff @ Qt) * fc,
        float(f @ Qt @ f) * ff,
        2.0 * s * ff,
        -np.outer(f, v) - np.outer(v, f),
        np.diag(v),
        fr * S * fc,
        -(fr * S) @ ff,
        -(ff @ S) * fc,
        float(f @ S @ f) * ff,
        -s * np.diag(f),
    ]


def g_terms(state: ModelState, inst: ProblemInstance) -> dict[str, np.ndarray]:
    """The six d x d pieces of the per-entry Hessian, in literal form.

    H_L = G1 + G2 + G3 - G4 - G5 + G6 up to the symmetrization of G5 (the
    literal G5 = 2 a t^T is one-sided; the Hessian holds (a t^T + t a^T)).
    These feed the per-piece Lipschitz tightness probes. Q2 P = diag(h') G
    with G = (A2 J) A1 = A2 P, so G1 = G^T diag(h'^2) G and
    G2 = G^T diag(h'' o c) G share the one factor, formed as ``hess_L`` forms
    it. A stack gives each piece one matrix per point.
    """
    G, a = _G(state, inst)
    A1, f, q2 = inst.A1, state.f, state.q2
    hp2, curv, v = state.hprime**2, state.hdoubleprime * state.c, f * q2
    t = _matvec(A1.T, v)
    s = _inner(q2, f)
    s = s[..., None] if np.ndim(s) else s  # (k, 1, 1) against a stack of d x d pieces
    return {
        "G1": np.swapaxes(G, -1, -2) @ (hp2[..., :, None] * G),
        "G2": np.swapaxes(G, -1, -2) @ (curv[..., :, None] * G),
        "G3": 2.0 * s * _outer(a, a),
        "G4": s * (A1.T @ (f[..., :, None] * A1)),
        "G5": 2.0 * _outer(a, t),
        "G6": A1.T @ (v[..., :, None] * A1),
    }
