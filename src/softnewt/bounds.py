"""Analytic bound constants and the empirical probes that measure them.

Every constant is carried in log space: already at R = 4 the formulas contain
exp(64), and the Hessian-Lipschitz constant overflows float64 long before the
measured quantities do. Tightness ratios (measured / bound) are therefore
formed by subtracting logs.

The empirical probe evaluates each measured quantity once per admissible
point and stacks it over the points. Norm maxima come from the stacks; each
Lipschitz ratio compares every point with all later points, one point's row
of differences at a time. A matrix quantity keeps only a Frobenius bound per
pair and takes the spectral norm only of the pairs whose bound can still set
the maximum, so the probe never holds all pair differences at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .derivatives import eval_p, eval_Q2, grad
from .hessian import g_terms, hess_L, kernel
from .model import _LOG_MAX, DenominatorFloorWarning, ProblemInstance, eval_forward
from .oracle import spectral
from .serialize import SCHEMA_VERSION

__all__ = ["LogConstant", "BoundReport", "compute_constants", "constants_from_params", "probe_empirical",
           "measured_radius", "TooFewAdmissiblePointsError"]

_LN10 = math.log(10.0)

NORM_KEYS = ("f", "c", "Q2", "q2", "p")

# pairs per spectral-norm call in the screened Lipschitz pass
_SVD_BATCH = 8


@dataclass(frozen=True, order=True)
class LogConstant:
    """A nonnegative constant stored as its natural log (-inf encodes zero)."""

    log_value: float

    @classmethod
    def from_value(cls, v: float) -> "LogConstant":
        if v < 0:
            raise ValueError("LogConstant holds nonnegative values")
        return cls(-math.inf if v == 0.0 else math.log(v))

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
        if self.log_value == -math.inf:
            return 0.0, 0
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


def measured_radius(inst: ProblemInstance, xs=()) -> float:
    """The norm budget actually exercised: matrix norms, probe ||x||, ||b||."""
    vals = [
        float(np.linalg.norm(inst.A1, 2)),
        float(np.linalg.norm(inst.A2, 2)),
        float(np.linalg.norm(inst.b)),
    ]
    vals.extend(float(np.linalg.norm(x)) for x in xs)
    return max(vals)


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
    act = inst.activation
    analytic = constants_from_params(inst.n, R_used, beta_used, act.L_h, act.R_h)
    return BoundReport(
        n=inst.n, R_used=R_used, beta_used=beta_used, L_h=act.L_h, R_h=act.R_h, analytic=analytic
    )


class TooFewAdmissiblePointsError(ValueError):
    """Fewer than two probe points pass the denominator floor beta."""


def _admissible_states(inst: ProblemInstance, sample_points):
    states, excluded = [], 0
    log_beta = math.log(inst.beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DenominatorFloorWarning)
        for x in sample_points:
            st = eval_forward(inst, np.asarray(x, dtype=float))
            if st.log_alpha >= log_beta:
                states.append(st)
            else:
                excluded += 1
    return states, excluded


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

    Each quantity is evaluated once per point and stacked over the points; the
    norm maxima are read from the stacks, and each Lipschitz ratio compares
    every point with all later points in one batched norm. A matrix quantity
    screens its pairs with the Frobenius bound on the spectral norm and takes
    the spectral norm only of pairs, in descending bound order, whose bound
    exceeds the maximum so far. Memory holds one point's row of differences
    plus a few scalars per pair: its indices, its distance and a bound per
    matrix quantity.
    """
    states, excluded = _admissible_states(inst, sample_points)
    if len(states) < 2:
        raise TooFewAdmissiblePointsError(
            f"need at least 2 admissible probe points for Lipschitz probes, got {len(states)}"
        )
    R_used = measured_radius(inst, [st.x for st in states])
    beta_used = min(st.alpha for st in states)
    report = compute_constants(inst, R=R_used, beta=beta_used)
    report.n_admissible = len(states)
    report.n_excluded = excluded

    # one row per point, keyed by the report entry each quantity feeds
    rows = []
    lam_min, lam_max = math.inf, -math.inf
    for st in states:
        lo, hi, _ = spectral(kernel(st, inst))
        lam_min, lam_max = min(lam_min, lo), max(lam_max, hi)
        rows.append(
            {
                "lip_u": st.u,
                "lip_alpha": [st.alpha],
                "lip_alpha_inv": [1.0 / st.alpha],
                "lip_f": st.f,
                "lip_c": st.c,
                "lip_Q2": eval_Q2(st, inst),
                "lip_q2": st.q2,
                "lip_g": grad(st, inst).grad_L,
                "lip_p": eval_p(st, inst),
                "M": hess_L(st, inst).H_L,
                **{f"lip_{k}": G for k, G in g_terms(st, inst).items()},
            }
        )
    stacks = {key: np.stack([row[key] for row in rows]) for key in rows[0]}
    X = np.stack([st.x for st in states])

    emp = {f"norm_{k}": float(np.max(_norms(f"lip_{k}", stacks[f"lip_{k}"]))) for k in NORM_KEYS}
    emp["psd_bound"] = max(abs(lam_min), abs(lam_max))
    report.lambda_min_B = lam_min
    report.lambda_max_B = lam_max

    # Lipschitz ratios ||q_i - q_j|| / ||x_i - x_j|| over pairs i < j at distinct points;
    # a matrix key keeps each pair's bound ||D||_F / dx for the screened pass below
    emp.update(dict.fromkeys(stacks, 0.0))
    screened = {key: [] for key, S in stacks.items() if S.ndim == 3 and key != "lip_p"}
    firsts, lasts, dxs = [], [], []
    for i in range(len(X) - 1):
        dx = _norms("x", X[i] - X[i + 1 :])
        later = i + 1 + np.flatnonzero(dx)
        dx = dx[dx != 0.0]
        firsts.append(np.full(len(later), i))
        lasts.append(later)
        dxs.append(dx)
        for key, S in stacks.items():
            if key in screened:
                screened[key].append(_spectral_bounds(S[i] - S[later]) / dx)
            else:
                ratio = float(np.max(_norms(key, S[i] - S[later]) / dx, initial=0.0))
                emp[key] = max(emp[key], ratio)
    first, last, dx = (np.concatenate(a) for a in (firsts, lasts, dxs))
    for key, ub in screened.items():
        ub = np.concatenate(ub)
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
