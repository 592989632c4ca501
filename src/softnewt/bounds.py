"""Analytic bound constants and the empirical probes that measure them.

Every constant is carried in log space: already at R = 4 the formulas contain
exp(64), and the Hessian-Lipschitz constant overflows float64 long before the
measured quantities do. Tightness ratios (measured / bound) are therefore
formed by subtracting logs.

The empirical probe evaluates the points in one stacked forward pass and
each measured quantity in one stacked call (see the stack contract in
``hessian``), so every stack is built once over the admissible points. Norm
maxima come from the stacks; each Lipschitz ratio compares every pair of
points, in chunks of pairs whose differences take at most ``_CHUNK_BYTES``.
A matrix quantity keeps only a Frobenius bound per pair and takes the
spectral norm only of the pairs whose bound can still set the maximum, so the
probe never holds all pair differences at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .derivatives import eval_p, eval_Q2, grad
from .hessian import g_terms, hess_L, kernel
from .model import _LOG_MAX, L_H, DenominatorFloorWarning, ProblemInstance, eval_forward
from .oracle import spectral
from .serialize import SCHEMA_VERSION

__all__ = ["LogConstant", "BoundReport", "compute_constants", "constants_from_params", "probe_empirical",
           "measured_radius", "vector_norm", "TooFewAdmissiblePointsError"]

_LN10 = math.log(10.0)

NORM_KEYS = ("f", "c", "Q2", "q2", "p")

# pairs per spectral-norm call in the screened Lipschitz pass
_SVD_BATCH = 8

# bytes of pair differences, or of stacked n x n kernels, that the probe holds at once
_CHUNK_BYTES = 2**18


@dataclass(frozen=True, order=True)
class LogConstant:
    """A nonnegative constant stored as its natural log: -inf encodes zero, +inf a log past float64."""

    log_value: float

    @classmethod
    def from_value(cls, v: float) -> "LogConstant":
        if v < 0:
            raise ValueError("LogConstant holds nonnegative values")
        return cls(_ln(v))

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

    @property
    def M(self) -> LogConstant:
        return self.analytic["M"]

    @property
    def psd_bound(self) -> LogConstant:
        return self.analytic["psd_bound"]

    @property
    def M_empirical(self) -> float | None:
        return self.empirical.get("M")

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "R_used": self.R_used,
            "beta_used": self.beta_used,
            "L_h": self.L_h,
            "R_h": self.R_h,
            "n_admissible": self.n_admissible,
            "n_excluded": self.n_excluded,
            "lambda_min_B": self.lambda_min_B,
            "lambda_max_B": self.lambda_max_B,
            "analytic": {k: v.to_json() for k, v in sorted(self.analytic.items())},
            "empirical": dict(sorted(self.empirical.items())),
            "tightness": dict(sorted(self.tightness.items())),
        }


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


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each over at most ``_CHUNK_BYTES`` of items.

    A slice holds one item at least, and a count of 0 gives one empty slice.
    """
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(start, start + step) for start in range(0, max(count, 1), step)]


def _pair_diffs(S: np.ndarray, first: np.ndarray, last: np.ndarray):
    """(chunk, S[first] - S[last] over the chunk) for chunks of pairs under ``_CHUNK_BYTES``."""
    for c in _chunks(len(first), S[0].nbytes):
        D = S[first[c]]
        D -= S[last[c]]  # in place: two chunk-sized arrays live at once, not three
        yield c, D


def _norms(key: str, D: np.ndarray) -> np.ndarray:
    """The norm of each slice of a stack, summed as the single-array norm sums it.

    Rows of a 2-D stack get the l2 norm sqrt(v @ v) (np.linalg.norm's sum);
    a 3-D stack gets the spectral norm of each matrix, or for P (``lip_p``)
    its largest column norm.
    """
    if D.ndim == 2:
        return np.sqrt((D[:, None, :] @ D[:, :, None]).ravel())
    if key == "lip_p":
        return np.max(np.linalg.norm(D, axis=1), axis=1)
    return np.linalg.norm(D, 2, axis=(1, 2))


def _max_norm(key: str, D: np.ndarray, dx) -> float:
    """max(_norms(key, D) / dx), 0 if empty; a 2-D stack whose squares overflow is measured by ``vector_norm``."""
    r = float(np.max(_norms(key, D) / dx, initial=0.0))
    if r == math.inf and D.ndim == 2:
        r = float(np.max(np.array([vector_norm(v) for v in D]) / dx))
    return r


def _spectral_bounds(D: np.ndarray) -> np.ndarray:
    """An upper bound on the spectral norm of each matrix of a stack.

    The Frobenius norm, widened by 1e-8 to cover the SVD's rounding where the
    two are equal (rank-1 matrices). Below 1e-280 the sum of squares may have
    underflowed, and NaN bounds nothing: such a matrix gets 0 if it is all
    zeros and inf otherwise, so it is always measured.
    """
    sq = np.einsum("kij,kij->k", D, D)
    ub = np.sqrt(sq) * (1.0 + 1e-8)
    unsure = ~(sq >= 1e-280)
    if unsure.any():
        ub[unsure] = np.where(D[unsure].any(axis=(1, 2)), np.inf, 0.0)
    return ub


def probe_empirical(inst: ProblemInstance, sample_points) -> BoundReport:
    """Measure every bounded quantity at the admissible probe points.

    Points whose softmax denominator falls below the declared beta are
    excluded and counted. Fewer than two admissible points cannot support the
    pairwise Lipschitz probes and raise ``TooFewAdmissiblePointsError``.

    The points are evaluated in one stacked ``eval_forward`` call, and each
    quantity in one stacked call per chunk of points; a chunk's dense kernels
    (n^2 floats per point) take at most ``_CHUNK_BYTES``, or one point, and
    their spectra one batched ``eigvalsh`` call. The norm maxima are read from
    the stacks, and each Lipschitz ratio compares every pair of distinct
    points, in pair order (i, j > i), in chunks whose differences take at most
    ``_CHUNK_BYTES``. A matrix quantity screens its pairs with the Frobenius
    bound on the spectral norm and takes the spectral norm only of pairs, in
    descending bound order, whose bound exceeds the maximum so far. Memory
    holds the stacks (linear in the points), one chunk of differences, and a
    few scalars per pair: its indices, its distance and a bound per matrix
    quantity.
    """
    states, excluded = _admissible_states(inst, np.asarray(sample_points, dtype=float))
    X = states.x
    report = compute_constants(inst, R=measured_radius(inst, X), beta=float(np.min(states.alpha)))
    report.n_admissible = len(X)
    report.n_excluded = excluded

    lam_min, lam_max = math.inf, -math.inf
    chunks = []
    for c in _chunks(len(X), 8 * inst.n * inst.n):
        st = states.rows(c)
        lo, hi, _ = spectral(kernel(st, inst))
        lam_min, lam_max = min(lam_min, float(lo.min())), max(lam_max, float(hi.max()))
        chunks.append({
            "lip_Q2": eval_Q2(st, inst),
            "lip_q2": st.q2,
            "lip_g": grad(st, inst).grad_L,
            "lip_p": eval_p(st, inst),
            "M": hess_L(st, inst).H_L,
            **{f"lip_{k}": G for k, G in g_terms(st, inst).items()},
        })
    # keyed by the report entry each quantity feeds
    stacks = {
        "lip_u": states.u,
        "lip_alpha": states.alpha[:, None],
        "lip_alpha_inv": (1.0 / states.alpha)[:, None],
        "lip_f": states.f,
        "lip_c": states.c,
        **{key: np.concatenate([q[key] for q in chunks]) for key in chunks[0]},
    }

    report.lambda_min_B = lam_min
    report.lambda_max_B = lam_max

    # squares past float64 read inf here; _max_norm measures such vectors again
    with np.errstate(over="ignore"):
        emp = {f"norm_{k}": _max_norm(f"lip_{k}", stacks[f"lip_{k}"], 1.0) for k in NORM_KEYS}
        emp["psd_bound"] = max(abs(lam_min), abs(lam_max))
        # Lipschitz ratios ||q_i - q_j|| / ||x_i - x_j|| over pairs i < j at distinct points;
        # a matrix key keeps each pair's bound ||D||_F / dx for the screened pass below
        emp.update(dict.fromkeys(stacks, 0.0))
        first, last = np.triu_indices(len(X), 1)
        dx = np.concatenate([_norms("x", D) for _, D in _pair_diffs(X, first, last)])
        apart = dx != 0.0
        first, last, dx = first[apart], last[apart], dx[apart]
        screened = {}
        for key, S in stacks.items():
            if S.ndim == 3 and key != "lip_p":
                screened[key] = np.concatenate([_spectral_bounds(D) for _, D in _pair_diffs(S, first, last)]) / dx
            else:
                for c, D in _pair_diffs(S, first, last):
                    emp[key] = max(emp[key], _max_norm(key, D, dx[c]))
    for key, ub in screened.items():
        order = np.argsort(-ub)
        S = stacks[key]
        for start in range(0, len(order), _SVD_BATCH):
            batch = order[start : start + _SVD_BATCH]
            batch = batch[ub[batch] > emp[key]]
            if not len(batch):
                break
            ratio = float(np.max(_norms(key, S[first[batch]] - S[last[batch]]) / dx[batch]))
            emp[key] = max(emp[key], ratio)

    report.empirical = emp
    report.tightness = {
        k: report.analytic[k].tightness(v) for k, v in emp.items() if k in report.analytic
    }
    return report
