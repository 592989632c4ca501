"""Analytic bound constants and the empirical probes that measure them.

Every constant is carried in log space: already at R = 4 the formulas contain
exp(64), and the Hessian-Lipschitz constant overflows float64 long before the
measured quantities do. Tightness ratios (measured / bound) are therefore
formed by subtracting logs.

The empirical probe evaluates the points in one stacked forward pass and
each measured quantity in one stacked call (see the stack contract in
``hessian``), so every stack is built once over the admissible points. Norm
maxima come from the stacks. The kernel spectrum is eigen-solved only at the
points that can hold its extremes; B's rank-(m + 1) factor proves that each
other point's spectrum lies inside them, with no n x n array
(``_kernel_extremes``, ``_certified``). Every Lipschitz ratio takes one pass
over the pairs, in chunks of pairs whose differences take at most
``_CHUNK_BYTES``, so the probe never holds all differences at once. A ratio
whose norm needs no SVD or eigensolver is measured in that pass. The others
(M, Q2 and the six G pieces) are screened: the pass gives each pair an upper
bound, and only the pairs whose bound can still set the maximum are
measured. A caller may name the entries it reads (``keys``), and only those
are measured.

A spectral norm is measured by SVD and screened by min(Frobenius, Hoelder).
Q2 = diag(h') A2 is stacked by its rows h' instead and measured from the
m x m Gram of A2 (``_norms``), so no m x n matrix is formed for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .derivatives import eval_p, grad
from .hessian import _centred_A2, _g_u, g_terms, hess_L, kernel, kernel_diag
from .model import _LOG_MAX, L_H, DenominatorFloorWarning, ProblemInstance, _chunks, eval_forward
from .oracle import spectral
from .serialize import SCHEMA_VERSION

__all__ = ["LogConstant", "BoundReport", "compute_constants", "constants_from_params", "probe_empirical",
           "measured_radius", "vector_norm", "TooFewAdmissiblePointsError"]

_LN10 = math.log(10.0)

NORM_KEYS = ("f", "c", "Q2", "q2", "p")
_PIECE_KEYS = tuple(f"lip_G{i}" for i in range(1, 7))
# the Lipschitz ratios, and every entry of a report's ``empirical`` map, in report order
_LIP_KEYS = ("lip_u", "lip_alpha", "lip_alpha_inv", "lip_f", "lip_c", "lip_Q2", "lip_q2", "lip_g", "lip_p", "M",
             *_PIECE_KEYS)
_EMPIRICAL_KEYS = (*(f"norm_{k}" for k in NORM_KEYS), "psd_bound", *_LIP_KEYS)
# the ratios whose norm takes an SVD or an eigensolver, so that ``_bounds`` screens their pairs
_SCREENED_KEYS = ("lip_Q2", "M", *_PIECE_KEYS)

# pairs measured per _max_norm call in the screened Lipschitz pass
_SVD_BATCH = 8
# unit roundoff
_U = 2.0**-53
# the floor, as a fraction of the largest entry of Delta, below which ``_certified`` moves a row into the factor
_FLOOR = 0.05


@dataclass(frozen=True, order=True)
class LogConstant:
    """A nonnegative constant stored as its natural log: -inf encodes zero, +inf a log past float64."""

    log_value: float

    @property
    def value(self) -> float:
        """The plain float value; inf when it overflows float64."""
        if self.log_value == -math.inf:
            return 0.0
        if self.log_value > _LOG_MAX:
            return math.inf
        return math.exp(self.log_value)

    @property
    def log10(self) -> float:
        return self.log_value / _LN10

    def mantissa_exp10(self) -> tuple[float, int]:
        """(mantissa, exponent) with value = mantissa * 10**exponent; (0.0, 0) and (inf, 0) when not finite."""
        if math.isinf(self.log_value):
            return (0.0 if self.log_value < 0 else math.inf), 0
        e = math.floor(self.log10)
        return 10.0 ** (self.log10 - e), int(e)

    def holds(self, measured: float) -> bool:
        """measured <= this bound, compared in log space."""
        if measured <= 0.0:
            return True
        return math.log(measured) <= self.log_value

    def tightness(self, measured: float) -> float:
        """measured / bound, 0 for zero measurements, inf for a zero bound."""
        if measured <= 0.0:
            return 0.0
        if self.log_value == -math.inf:
            return math.inf
        r = math.log(measured) - self.log_value
        return math.exp(r) if r <= _LOG_MAX else math.inf

    def to_json(self) -> dict:
        m, e = self.mantissa_exp10()
        v = self.value
        return {
            "log10": None if self.log_value == -math.inf else self.log10,
            "mantissa": m,
            "exp10": e,
            "value": None if math.isinf(v) else v,
        }


def _lc(*logs: float) -> LogConstant:
    return LogConstant(sum(logs))


def _ln(v: float) -> float:
    return -math.inf if v == 0.0 else math.log(v)


def constants_from_params(n: int, R: float, beta: float, L_h: float, R_h: float) -> dict[str, LogConstant]:
    """All analytic constants as a flat name -> LogConstant map.

    ``R_f`` is 2 beta^-2 n R exp(2 R^2); the Hessian-Lipschitz constant is
    59 (R + R_h) n^2 exp(4 R^2) beta^-4 R^5 R_h^2 R_f L_h; the kernel spectrum
    bound is 12 R_h L_h R (R + R_h). Per-piece norms and Lipschitz constants
    follow the same derivations.
    """
    ln_n, ln_R, ln_b = math.log(n), _ln(R), math.log(beta)
    ln_Lh, ln_Rh, ln_RRh = _ln(L_h), _ln(R_h), _ln(R + R_h)
    R2 = R * R
    log_Rf = math.log(2.0) - 2.0 * ln_b + ln_n + ln_R + 2.0 * R2
    out: dict[str, LogConstant] = {}
    out["R_f"] = LogConstant(log_Rf)
    out["M"] = _lc(
        math.log(59.0), ln_RRh, 2.0 * ln_n, 4.0 * R2, -4.0 * ln_b, 5.0 * ln_R, 2.0 * ln_Rh, log_Rf, ln_Lh
    )
    out["psd_bound"] = _lc(math.log(12.0), ln_Rh, ln_Lh, ln_R, ln_RRh)
    # norms of the building blocks
    out["norm_f"] = _lc(-ln_b, 0.5 * ln_n, R2)
    out["norm_c"] = LogConstant(ln_RRh)
    out["norm_Q2"] = _lc(ln_R, ln_Rh)
    out["norm_q2"] = _lc(ln_R, ln_Rh, ln_RRh)
    out["norm_p"] = LogConstant(log_Rf)
    # Lipschitz constants of the building blocks
    out["lip_u"] = _lc(ln_R, R2)
    out["lip_alpha"] = _lc(0.5 * ln_n, ln_R, R2)
    out["lip_alpha_inv"] = _lc(-2.0 * ln_b, 0.5 * ln_n, ln_R, R2)
    out["lip_f"] = LogConstant(log_Rf)
    out["lip_c"] = _lc(ln_Lh, ln_R, log_Rf)
    out["lip_Q2"] = _lc(2.0 * ln_R, log_Rf, ln_Lh)
    out["lip_q2"] = _lc(math.log(2.0), 2.0 * ln_R, log_Rf, ln_Rh, ln_Lh, ln_RRh)
    out["lip_g"] = _lc(
        math.log(7.0), -2.0 * ln_b, ln_n, ln_Lh, ln_Rh, log_Rf, 2.0 * ln_R, ln_RRh, 5.0 * R2
    )
    out["lip_p"] = _lc(math.log(3.0), ln_R, log_Rf, -ln_b, 0.5 * ln_n, R2)
    # Lipschitz constants of the six Hessian pieces
    out["lip_G1"] = _lc(
        math.log(8.0), 2.0 * ln_Rh, log_Rf, 5.0 * ln_R, ln_Lh, ln_RRh, -4.0 * ln_b, 2.0 * ln_n, 4.0 * R2
    )
    out["lip_G2"] = _lc(
        math.log(24.0), ln_Rh, log_Rf, 4.0 * ln_R, ln_RRh, -4.0 * ln_b, 2.0 * ln_n, 4.0 * R2
    )
    g3 = _lc(math.log(10.0), ln_RRh, 4.0 * ln_R, log_Rf, ln_Lh, -3.0 * ln_b, 1.5 * ln_n, 3.0 * R2)
    out["lip_G3"] = g3
    out["lip_G4"] = _lc(math.log(4.0), ln_RRh, 4.0 * ln_R, log_Rf, ln_Lh, -ln_b, 0.5 * ln_n, R2)
    out["lip_G5"] = g3
    out["lip_G6"] = _lc(math.log(3.0), ln_RRh, 4.0 * ln_R, log_Rf, ln_Lh, -ln_b, 0.5 * ln_n, R2)
    return out


def vector_norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` over all entries; for a finite v whose squares overflow, max|v| * ||v / max|v|||.

    Bitwise ``np.linalg.norm``: the square root of the one dot product of the
    ravelled array with itself. The plain norm reads inf once an entry passes
    ~1.3e154; every finite one is returned unchanged.
    """
    v = np.asarray(v, dtype=float).ravel(order="K")
    with np.errstate(over="ignore"):
        r = math.sqrt(v @ v)
    if r == math.inf and np.isfinite(v).all():
        s = float(np.max(np.abs(v)))
        v = v / s
        r = s * math.sqrt(v @ v)
    return r


def measured_radius(inst: ProblemInstance, xs=()) -> float:
    """The norm budget actually exercised: the instance's matrix norms, probe ||x||, ||b||."""
    return max([inst.norm_A1, inst.norm_A2, vector_norm(inst.b), *(vector_norm(x) for x in xs)])


@dataclass
class BoundReport:
    n: int
    R_used: float
    beta_used: float
    L_h: float
    R_h: float
    analytic: dict[str, LogConstant]
    empirical: dict[str, float] = field(default_factory=dict)
    tightness: dict[str, float] = field(default_factory=dict)
    n_admissible: int = 0
    n_excluded: int = 0
    lambda_min_B: float | None = None
    lambda_max_B: float | None = None

    def to_json(self) -> dict:
        """Every field, each analytic constant in its own JSON form, and the schema version."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(schema_version=SCHEMA_VERSION, analytic={k: v.to_json() for k, v in self.analytic.items()})
        return doc


def compute_constants(inst: ProblemInstance, *, R: float | None = None, beta: float | None = None) -> BoundReport:
    """Analytic part of the report; no probe points are evaluated."""
    R_used = measured_radius(inst) if R is None else R
    beta_used = inst.beta if beta is None else beta
    analytic = constants_from_params(inst.n, R_used, beta_used, L_H, inst.R_h)
    return BoundReport(n=inst.n, R_used=R_used, beta_used=beta_used, L_h=L_H, R_h=inst.R_h, analytic=analytic)


class TooFewAdmissiblePointsError(ValueError):
    """Fewer than two probe points pass the denominator floor beta."""


def _admissible_states(inst: ProblemInstance, X: np.ndarray):
    """The stacked state of the points whose denominator clears beta, and the count of the rest.

    One stacked forward pass; fewer than two admissible points raise
    ``TooFewAdmissiblePointsError``.
    """
    count = 0
    if len(X):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DenominatorFloorWarning)
            every = eval_forward(inst, X)
        keep = every.log_alpha >= math.log(inst.beta)
        count = int(keep.sum())
    if count < 2:
        raise TooFewAdmissiblePointsError(
            f"need at least 2 admissible probe points for Lipschitz probes, got {count}"
        )
    return every.rows(keep), len(X) - count


def _pair_diffs(S: np.ndarray, first: np.ndarray, last: np.ndarray):
    """S[first] - S[last], in chunks of pairs under ``_CHUNK_BYTES``."""
    for c in _chunks(len(first), S[0].nbytes):
        D = S[first[c]]
        D -= S[last[c]]  # in place: two chunk-sized arrays live at once, not three
        yield D


def _scaled_gram(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, K): K is the Gram of the rows A[a] 2^-e[a], with 2^e[a] the power of two just above max|A[a]| (1 for 0).

    The scaling is exact, and a nonzero scaled row has its largest entry in
    [1/2, 1), so K neither overflows nor underflows where A A^T would.
    """
    _, e = np.frexp(np.max(np.abs(A), axis=1, initial=0.0))
    As = np.ldexp(A, -e[:, None])
    return e, As @ As.T


def _scaled_rows(V: np.ndarray, gram: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(S, t) with diag(v) A = 2^t diag(s) A_s for each row v of V and its row s of S.

    A_s holds the rows of ``_scaled_gram(A)``, and s_a = v_a 2^(e[a] - t) with
    2^t the power of two just above the largest |v_a| 2^e[a], so every
    |s_a| < 1 and the largest s_a^2 K_aa is at least 1/16. The scalings are
    exact; a row that is zero wherever A is nonzero gives s = 0 and t = 0.
    """
    e_A, K = gram
    live = (V != 0.0) & (np.diagonal(K) > 0.0)
    t = np.max(np.where(live, np.frexp(V)[1] + e_A, -4096), axis=-1, initial=-4096)
    t = np.where(live.any(axis=-1), t, 0)
    return np.ldexp(np.where(live, V, 0.0), e_A - t[:, None]), t


def _norms(key: str, D: np.ndarray, gram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The norm of each slice of a stack, summed as the single-array norm sums it.

    Rows of a 2-D stack get the l2 norm sqrt(v @ v) (np.linalg.norm's sum);
    a 3-D stack gets the spectral norm of each matrix, or for P (``lip_p``)
    its largest column norm. Q2 = diag(h') A2 (``lip_Q2``) is stacked by its
    rows v, and ||diag(v) A2||_2 = 2^t sqrt(lambda_max((s s^T) o K)), with
    ``gram`` = ``_scaled_gram(A2)`` and one batched ``eigvalsh`` over the rows.
    """
    if key == "lip_Q2":
        S, t = _scaled_rows(D, gram)
        lam = np.linalg.eigvalsh(S[:, :, None] * gram[1] * S[:, None, :])[:, -1]
        return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), t)
    if D.ndim == 2:
        return np.sqrt((D[:, None, :] @ D[:, :, None]).ravel())
    if key == "lip_p":
        return np.max(np.linalg.norm(D, axis=1), axis=1)
    return np.linalg.norm(D, 2, axis=(1, 2))


def _max_norm(key: str, D: np.ndarray, dx, gram: tuple[np.ndarray, np.ndarray]) -> float:
    """max(_norms(key, D) / dx), 0 if empty; a vector stack whose squares overflow is measured by ``vector_norm``."""
    r = float(np.max(_norms(key, D, gram) / dx, initial=0.0))
    if r == math.inf and D.ndim == 2 and key != "lip_Q2":
        r = float(np.max(np.array([vector_norm(v) for v in D]) / dx))
    return r


def _spectral_bounds(D: np.ndarray) -> np.ndarray:
    """An upper bound on the spectral norm of each matrix of a stack.

    The lesser of the Frobenius norm and Hoelder's sqrt(||D||_1 ||D||_inf),
    widened by 1e-8 to cover the SVD's rounding where a bound is attained
    (rank-1 matrices, a single nonzero entry). The two square roots are
    taken apart, so their product neither overflows nor underflows. Below
    1e-280 the sum of squares may have underflowed, and NaN bounds nothing:
    such a matrix gets 0 if it is all zeros and inf otherwise, so it is
    always measured.
    """
    with np.errstate(over="ignore"):
        sq = np.einsum("kij,kij->k", D, D)
        W = np.abs(D)
        holder = np.sqrt(np.max(W.sum(axis=1), axis=1)) * np.sqrt(np.max(W.sum(axis=2), axis=1))
    ub = np.minimum(np.sqrt(sq), holder) * (1.0 + 1e-8)
    unsure = ~(sq >= 1e-280)
    if unsure.any():
        ub[unsure] = np.where(D[unsure].any(axis=(1, 2)), np.inf, 0.0)
    return ub


def _bounds(key: str, D: np.ndarray, gram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """An upper bound on each ``_norms(key, D, gram)`` of a screened key, taken without an SVD or eigensolver.

    For Q2 it is the Frobenius norm 2^t sqrt(sum_a s_a K_aa s_a), in O(m), rounded
    as the diagonal of (s s^T) o K and widened by 1e-8 for the eigensolver's
    rounding where the two are equal (rank 1); for the d x d stacks (M and the
    G pieces) it is ``_spectral_bounds``.
    """
    if key == "lip_Q2":
        S, t = _scaled_rows(D, gram)
        return np.ldexp(np.sqrt(np.sum(S * np.diagonal(gram[1]) * S, axis=-1)) * (1.0 + 1e-8), t)
    return _spectral_bounds(D)


def _gamma(j: int) -> float:
    """gamma_j = j eps / (1 - j eps), eps = 2^-53: the relative error bound of a sum or dot product of j terms."""
    return j * _U / (1.0 - j * _U)


def _cholesky_each(S: np.ndarray) -> np.ndarray:
    """The Cholesky factor of each matrix of a stack, all NaN for a matrix that ``np.linalg.cholesky`` refuses.

    A stack that fails anywhere raises as a whole, so it is split in halves
    until each failure stands alone. A NaN pivot may pass, so callers read
    the factor's diagonal for finiteness.
    """
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        if len(S) == 1:
            return np.full_like(S, np.nan)
        half = len(S) // 2
        return np.concatenate([_cholesky_each(S[:half]), _cholesky_each(S[half:])])


def _slack(Zt: np.ndarray, g: np.ndarray, u: np.ndarray, v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``_certified``'s slack tau for each side (a row of ``lam``, (2, 1)) and point (a column).

    ``Zt`` stacks each point's Z^T = [F; f], and g, u and v = h' o c its
    other factors. A factor with a NaN or infinite entry gives a NaN or
    infinite tau: every factor's largest entry enters it.
    """
    n, m = Zt.shape[-1], Zt.shape[-2] - 1
    F, f = Zt[:, :m], Zt[:, m]
    with np.errstate(all="ignore"):
        e = u + (v[:, None, :] @ F)[:, 0]  # the gap
        F_max = np.maximum(np.max(F, axis=(1, 2)), -np.min(F, axis=(1, 2)))
        g_max, v_max, u_max, e_max = (np.max(np.abs(a), axis=1) for a in (g, v, u, e))
        f_max = np.max(np.abs(f), axis=1)
        N = np.sum(np.abs(g) * np.einsum("kai,kai->ka", F, F), axis=1) + (2 * n * f_max + 1) * u_max
        e_bar = math.sqrt(n) * (e_max + _gamma(m + 1) * (u_max + m * F_max * v_max))
        eta = (n + m) ** 2 * 2.0**-1000 * (1 + F_max) ** 2 * (1 + g_max + v_max)
        return 2 * (6 * _U * (np.abs(lam) + u_max) + (n + m + 6) * _U * N + 2 * math.sqrt(n) * f_max * e_bar + eta)


def _certified(states, inst: ProblemInstance, lam_min: float, lam_max: float) -> np.ndarray:
    """For each point of a stack, whether B's factors prove that ``spectral`` of its kernel stays inside
    [lam_min, lam_max]. No n x n array is formed: a point costs O(n (m + 1 + b)^2), b as below.

    B* is the kernel of the factors as ``kernel`` reads them, in exact
    arithmetic: F = D diag(f) (bitwise ``kernel``'s), and g and u from
    ``_g_u``. With v = h' o c, the ``hessian`` identity u = -F^T v gives
    B* = Z C Z^T - diag(u) + f e^T + e f^T, with Z = [F^T f],
    C = [[diag(g), -v], [-v^T, 0]], and the gap e = u + F^T v that the
    rounding of u leaves, ||f e^T + e f^T||_2 <= 2 ||f|| ||e||. The upper side
    (s = 1) proves lambda_max(B*) <= t + r with t = lam_max - tau; the lower
    side (s = -1) proves lambda_max(-B*) <= t + r with t = -lam_min - tau and
    -C in place of C. For one side, with eps = 2^-53 the unit roundoff:

    - Delta = t + s u, rounded. The rows where Delta falls below the floor
      phi = ``_FLOOR`` max Delta move into the factor as unit columns e_i of
      weight phi - Delta_i > 0: with Delta' = max(Delta, phi), Z' = [Z, e_i]
      and C' = diag(s C, phi - Delta_i), tI - sB* is Delta' - Z' C' Z'^T up to
      the gap and the roundings below.
    - With q = 1 / Delta', rounded, and Y = diag(q)^(1/2) Z',
      diag(1/q) - Z' C' Z'^T is positive semidefinite when I - Y C' Y^T is.
      That holds when I - L^T C' L is, for any L L^T = A with A >= Y^T Y
      positive definite (Sylvester: for each x, z = Y^T x has
      z^T C' z <= z^T A^-1 z <= x^T x).
    - A is the Gram Z'^T diag(q) Z' as rounded, with its diagonal raised by
      the factor 1 + s0, s0 = 4 k (gamma_(n+2) + 2 gamma_(k+1)) + 4 eps, k the
      width of Z'. The Gram's rounding is at most gamma_(n+2) sqrt(G_aa G_bb)
      in entry (a, b), and a Cholesky factorization that completes errs by
      at most gamma_(k+1) sqrt(A_aa A_bb) there (Higham 2002, "Accuracy and
      Stability of Numerical Algorithms", Thm 10.3). Each error matrix is
      then at most k times that in 2-norm relative to the diagonal, so
      L L^T >= Y^T Y at any conditioning of the Gram: nearly dependent
      columns only weaken the certificate. A diagonal entry below 2^-500 is
      refused, so that roundings below the normal range stay far inside s0.
    - K = L^T (C' L), with C' L formed from C''s structure, is rounded by
      at most e_K = gamma_(2k+2) || |L|^T |C'| |L| ||_2
      <= gamma_(2k+2) sum_ab |C'_ab| ||L_a|| ||L_b||, with rows L_a of L and
      ||L_a||^2 = A_aa to within the factorization's error, and a
      Cholesky factorization of M = (1 - mu) I - K that completes
      proves I - L^T C' L >= 0 for mu = 2 (e_K + (c_k + eps)(1 + ||K||) + eta_M),
      with c_k = k gamma_(k+1) / (1 - k gamma_(k+1)) the factorization's
      relative backward error (``tests/conftest.cholesky_error``) and eta_M
      covering roundings below the normal range. A norm here is bounded by
      k times the largest entry.

    Back in B, 1/q and the moved rows' rounded weights put the diagonal
    within 4.1 eps max|Delta| <= 4.1 eps (1 + eps)(|t| + max|u|) of t + s u, so
    lambda_max(sB*) <= t + r with r = 4.1 eps (1 + eps)(|t| + max|u|) + 2 ||f|| ||e||.

    The slack tau (``_slack``) then covers r and the kernel's and the
    eigensolver's roundings: W = symmetric_part(kernel) is B* within
    gamma_(m+5) N in 2-norm, with
    N = sum_a |g_a| ||F_a||^2 + (2 n max|f| + 1) max|u| bounding
    || |F|^T diag|g| |F| + |f||u|^T + |u||f|^T + diag|u| ||_2, and ``eigvalsh``
    returns each eigenvalue of W within n eps ||W||_2 (LAPACK's guide leaves
    the factor a modest function of the order; it is taken as the order, as
    the tests take it). So

        tau = 2 (6 eps (|lam| + max|u|) + (n + m + 6) eps N + 2 sqrt(n) max|f| e_bar + eta_B),

    lam the side's extreme, with e as rounded and
    e_bar = sqrt(n) (max|e| + gamma_(m+1) (max|u| + m max|F| max|v|)) >= ||e||.
    The factor 2 covers |t| <= |lam| + tau and the roundings of t, tau and
    these bounds. A vector norm is bounded by sqrt(n) times its largest
    entry, so no sum of squares can underflow, and
    eta_B = (n + m)^2 2^-1000 (1 + max|F|)^2 (1 + max|g| + max|v|) bounds the
    roundings below the normal range of the kernel and of N's sums. No
    certified point's ``eigvalsh`` can then pass lam.

    The route refuses a point with a non-finite factor or slack, a floor
    that is not positive, more than m + 1 moved rows or a factor as wide as
    B (n <= m + 1 + b), a Gram diagonal below 2^-500, or a Cholesky
    factorization that fails.
    """
    n, m = inst.n, inst.m
    k0 = m + 1
    certified = np.zeros(len(states.x), dtype=bool)
    if n <= k0 or not len(states.x):
        return certified
    f, v = states.f, states.hprime * states.c
    # Z^T = [F; f] in one array: D diag(f) row by row as ``kernel`` forms it, and 1 f = f
    Zt = np.concatenate([_centred_A2(states, inst), np.ones((len(f), 1, n))], axis=1)
    Zt *= f[:, None, :]
    g, u = _g_u(states)
    sign = np.array([[1.0], [-1.0]])  # the upper and the lower side, on a leading axis
    lam = np.array([[lam_max], [-lam_min]])
    tau = _slack(Zt, g, u, v, lam)
    with np.errstate(all="ignore"):  # a non-finite tau is refused below
        Delta = (lam - tau)[..., None] + sign[..., None] * u
        phi = _FLOOR * np.max(Delta, axis=-1)
    moved = Delta < phi[..., None]
    b = np.sum(moved, axis=-1)
    live = np.all(np.isfinite(tau) & (phi > 0) & (b <= min(k0, n - k0 - 1)), axis=0)
    if not live.all():
        if not live.any():
            return certified
        Zt, g, v = Zt[live], g[live], v[live]
        Delta, phi, moved, b = Delta[:, live], phi[:, live], moved[:, live], b[:, live]

    # the Gram of Y = diag(q)^(1/2) [Z, e_i], each moved row's unit column after Z's m + 1 columns;
    # a side with fewer moved rows than the widest pads with columns that stand apart (Gram 1, weight 0)
    width = int(b.max())
    k = k0 + width
    rows = np.argsort(~moved, axis=-1, kind="stable")[..., :width]
    has = np.arange(width) < b[..., None]
    ii = np.arange(k)
    A = np.zeros(Delta.shape[:2] + (k, k))
    with np.errstate(all="ignore"):  # a q or Gram past float64 is refused below
        q = 1.0 / np.maximum(Delta, phi[..., None])
        for side in (0, 1):  # one side's q Z^T at a time
            A[side, :, :k0, :k0] = (q[side, :, None, :] * Zt) @ np.swapaxes(Zt, -1, -2)
        q_rows = np.where(has, np.take_along_axis(q, rows, axis=-1), 0.0)
        A[..., :k0, k0:] = q_rows[..., None, :] * np.take_along_axis(Zt[None], rows[..., None, :], axis=-1)
        A[..., k0:, :k0] = np.swapaxes(A[..., :k0, k0:], -1, -2)
        A[..., ii[k0:], ii[k0:]] = np.where(has, q_rows, 1.0)
        fine = np.isfinite(A).all(axis=(-2, -1)) & np.all(np.diagonal(A, axis1=-2, axis2=-1) >= 2.0**-500, axis=-1)
        A[..., ii, ii] *= 1.0 + 4 * k * (_gamma(n + 2) + 2 * _gamma(k + 1)) + 4 * _U
        r = np.sqrt(np.diagonal(A, axis1=-2, axis2=-1))  # ||L_a|| ~ r_a for the rows L_a of L
        L = _cholesky_each(A.reshape(-1, k, k)).reshape(A.shape)
        del Zt, A  # each stack is freed as soon as it is read, so that the next reuses its memory

        # C' is diag(c) (s g, 0, the moved rows' weights, 0 for the padding) and -s v between the first m
        # rows and row m; C' L is formed from that structure, and K = L^T (C' L)
        sv = sign[..., None] * v
        weights = np.where(has, phi[..., None] - np.take_along_axis(Delta, rows, axis=-1), 0.0)
        c = np.concatenate([sign[..., None] * g, np.zeros(sv.shape[:-1] + (1,)), weights], axis=-1)
        CL = c[..., None] * L
        CL[..., :m, :] -= sv[..., None] * L[..., m, None, :]
        CL[..., m, :] -= np.einsum("...a,...ab->...b", sv, L[..., :m, :])
        M = np.swapaxes(L, -1, -2) @ CL
        del CL
        # || |L|^T |C'| |L| ||_2 <= sum_ab |C'_ab| ||L_a|| ||L_b||
        e_K = np.sum(np.abs(c) * r * r, axis=-1) + 2 * r[..., m] * np.sum(np.abs(sv) * r[..., :m], axis=-1)
        e_K *= _gamma(2 * k + 2)
        c_max = np.maximum(np.max(np.abs(c), axis=-1), np.max(np.abs(sv), axis=-1))
        eta = 2.0**-1000 * k * k * (1 + np.max(r, axis=-1)) * (1 + c_max)
        c_k = k * _gamma(k + 1) / (1.0 - k * _gamma(k + 1))
        mu = 2 * (e_K + (c_k + _U) * (1 + k * np.max(np.abs(M), axis=(-2, -1))) + eta)
        M *= -1.0  # M = (1 - mu) I - K, formed in K's place
        M[..., ii, ii] += (1.0 - mu)[..., None]
    # a matrix with a non-finite entry or a diagonal entry <= 0 has no finite factor, so it is not tried
    fine &= np.isfinite(M).all(axis=(-2, -1)) & np.all(np.diagonal(M, axis1=-2, axis2=-1) > 0, axis=-1)
    proved = fine.copy()
    M = M[fine] if not fine.all() else M.reshape(-1, k, k)  # all fine: no copy
    proved[fine] = np.isfinite(np.diagonal(_cholesky_each(M), axis1=-2, axis2=-1)).all(axis=-1)
    certified[live] = proved.all(axis=0)
    return certified


def _kernel_extremes(states, inst: ProblemInstance) -> tuple[float, float]:
    """The least and largest ``spectral`` extremes over the kernels B of a stack of points, bit for bit.

    The seeds, the points with the largest and the least entry of diag(B)
    (one stacked ``kernel_diag``), are eigen-solved first: lambda_max(B) >=
    max_i B_ii and lambda_min(B) <= min_i B_ii make them the likely
    extremes. The other points are taken in chunks whose factors Z (n x
    (m + 1) per point) take at most ``_CHUNK_BYTES``, and ``_certified``
    proves from the factors that ``spectral`` would keep most of them inside
    the running extremes. The points it refuses are formed and eigen-solved
    in chunks of kernels under ``_CHUNK_BYTES``, and update the extremes.
    Every kernel formed passes ``spectral``'s checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the diagonal only picks the seeds
        diag = kernel_diag(states, inst)
    seeds = np.unique([np.argmax(np.max(diag, axis=1)), np.argmin(np.min(diag, axis=1))])
    lam = _solved_extremes(states, inst, seeds, (math.inf, -math.inf))
    rest = np.delete(np.arange(len(diag)), seeds)
    for c in _chunks(len(rest), 8 * inst.n * (inst.m + 1)):
        points = rest[c]
        lam = _solved_extremes(states, inst, points[~_certified(states.rows(points), inst, *lam)], lam)
    return lam


def _solved_extremes(states, inst: ProblemInstance, points: np.ndarray, lam: tuple[float, float]):
    """``lam`` = (least, largest) widened by the ``spectral`` extremes of the kernels at ``points``, formed in
    chunks of kernels under ``_CHUNK_BYTES``."""
    lam_min, lam_max = lam
    for c in _chunks(len(points), 8 * inst.n * inst.n) if len(points) else ():
        lo, hi, _ = spectral(kernel(states.rows(points[c]), inst))
        lam_min, lam_max = min(lam_min, float(lo.min())), max(lam_max, float(hi.max()))
    return lam_min, lam_max


def probe_empirical(inst: ProblemInstance, sample_points, *, keys=None) -> BoundReport:
    """Measure the bounded quantities named by ``keys`` at the admissible probe points.

    ``keys`` names entries of ``_EMPIRICAL_KEYS``; None names every one, and
    an unknown name raises ValueError. Only the named entries are measured,
    and ``empirical`` and ``tightness`` hold them in ``_EMPIRICAL_KEYS``
    order, each equal to the full probe's. The kernel spectrum is taken only
    for ``psd_bound``; without it ``lambda_min_B`` and ``lambda_max_B`` stay
    None.

    Points whose softmax denominator falls below the declared beta are
    excluded and counted. Fewer than two admissible points cannot support the
    pairwise Lipschitz probes and raise ``TooFewAdmissiblePointsError``.

    The points are evaluated in one stacked ``eval_forward`` call, and each
    quantity in one stacked call over all of them. Only the kernel spectrum's
    stacks are chunked: the dense kernels (n^2 floats per point) and B's
    factors (n (m + 1) per point), a chunk under ``_CHUNK_BYTES`` or one
    point. ``lambda_min_B`` and ``lambda_max_B`` come from
    ``_kernel_extremes``: two seed points, picked from the stacked diag(B),
    are eigen-solved, and every other point only where ``_certified`` cannot
    prove from B's factors that its spectrum lies inside theirs (0 to 3 of
    the other 18 points at n = 64). Both equal, bit for bit, the least and
    largest ``spectral`` extremes over all points. The norm maxima are read
    from the stacks. Each Lipschitz ratio takes one pass over the pairs of distinct points, in chunks of
    differences, and one of two kinds:

    - exact: a ratio outside ``_SCREENED_KEYS`` takes its norm without an
      SVD or eigensolver, so the pass measures every pair. NaN ratios are
      ignored, and the pairs whose ratio reads inf are measured again by
      ``_max_norm``.
    - screened: the pass gives each pair the bound
      ``_bounds(key, D, gram) / ||x_i - x_j||``, and the pairs are measured
      ``_SVD_BATCH`` at a time in descending bound order until no bound
      exceeds the maximum so far.

    Memory holds the stacks (linear in the points), the m x m Gram of A2,
    one chunk of differences, and per pair its indices, distance and bound.
    """
    wanted = set(_EMPIRICAL_KEYS if keys is None else keys)
    unknown = sorted(wanted.difference(_EMPIRICAL_KEYS))
    if unknown:
        raise ValueError(f"unknown empirical keys {unknown}; known: {', '.join(_EMPIRICAL_KEYS)}")
    states, excluded = _admissible_states(inst, np.asarray(sample_points, dtype=float))
    X = states.x
    report = compute_constants(inst, R=measured_radius(inst, X), beta=float(np.min(states.alpha)))
    report.n_admissible = len(X)
    report.n_excluded = excluded

    # keyed by the report entry each quantity feeds; the costly ones only where named
    stacks = {
        "lip_u": states.u,
        "lip_alpha": states.alpha[:, None],
        "lip_alpha_inv": (1.0 / states.alpha)[:, None],
        "lip_f": states.f,
        "lip_c": states.c,
        "lip_Q2": states.hprime,  # Q2 = diag(h') A2, measured through the Gram of A2
        "lip_q2": states.q2,
    }
    if "lip_g" in wanted:
        stacks["lip_g"] = grad(states, inst).grad_L
    if wanted & {"lip_p", "norm_p"}:
        stacks["lip_p"] = eval_p(states, inst)
    if "M" in wanted:
        stacks["M"] = hess_L(states, inst).H_L
    if not wanted.isdisjoint(_PIECE_KEYS):
        stacks.update({f"lip_{k}": G for k, G in g_terms(states, inst).items()})

    emp = {}
    if "psd_bound" in wanted:
        report.lambda_min_B, report.lambda_max_B = _kernel_extremes(states, inst)
        emp["psd_bound"] = max(abs(report.lambda_min_B), abs(report.lambda_max_B))

    gram = _scaled_gram(inst.A2)
    # squares past float64 read inf here; _max_norm measures such vectors again
    with np.errstate(over="ignore"):
        for k in NORM_KEYS:
            if f"norm_{k}" in wanted:
                emp[f"norm_{k}"] = _max_norm(f"lip_{k}", stacks[f"lip_{k}"], 1.0, gram)
        ratios = [k for k in _LIP_KEYS if k in wanted]
        if ratios:
            # Lipschitz ratios ||q_i - q_j|| / ||x_i - x_j|| over pairs i < j at distinct points
            first, last = np.triu_indices(len(X), 1)
            dx = np.concatenate([_norms("x", D, gram) for D in _pair_diffs(X, first, last)])
            apart = dx != 0.0
            first, last, dx = first[apart], last[apart], dx[apart]
        for key in ratios:
            S = stacks[key]
            if key not in _SCREENED_KEYS:
                # the one pass measures every pair; NaN bounds nothing, and inf is measured again
                r = np.concatenate([_norms(key, D, gram) for D in _pair_diffs(S, first, last)]) / dx
                past = r == math.inf
                emp[key] = float(np.max(r, where=~(past | np.isnan(r)), initial=0.0))
                if past.any():
                    emp[key] = max(emp[key], _max_norm(key, S[first[past]] - S[last[past]], dx[past], gram))
                continue
            # measure the pairs in descending bound order until no bound can raise the maximum
            emp[key] = 0.0
            ub = np.concatenate([_bounds(key, D, gram) for D in _pair_diffs(S, first, last)]) / dx
            order = np.argsort(-ub)
            for start in range(0, len(order), _SVD_BATCH):
                batch = order[start : start + _SVD_BATCH]
                batch = batch[ub[batch] > emp[key]]
                if not len(batch):
                    break
                emp[key] = max(emp[key], _max_norm(key, S[first[batch]] - S[last[batch]], dx[batch], gram))

    report.empirical = {k: emp[k] for k in _EMPIRICAL_KEYS if k in wanted}
    report.tightness = {k: report.analytic[k].tightness(v) for k, v in report.empirical.items()}
    return report
