"""Row subsampling that spectrally preserves a weighted Gram matrix.

Given A (n x d) and a positive diagonal weight D, produce a sparse nonnegative
diagonal Dt with

    (1 - eps0) A^T D A  <=  A^T Dt A  <=  (1 + eps0) A^T D A

with probability >= 1 - delta, by sampling rows with replacement proportionally
to leverage scores (mixed with a uniform floor to cap the variance of
near-zero-leverage rows). The leverage scores are exact up to rounding: they
come from a symmetric eigendecomposition of the d x d Gram matrix, so no
n x d orthogonal factor is formed. ``sampling_distribution`` forms the floored,
normalized scores and their cdf, and ``subsample`` draws a given count from
a given pair through one route, ``_draw``.

The sampling policy has one route, ``surrogate_sketch``, which every sketched
Newton step and both of ``verify``'s sketch checks call: it draws by the
instance's leverage under the ridge weights w^2, formed once per instance,
with the count inflated for the gap kappa between w^2 and D', or takes the
exact fallback. The deviation of a pencil, here and in every sketched Newton
step, has one route, ``_deviation``: the generalized spectrum of its
symmetric parts (``_symmetric_part``, the package's one rule), reduced by
the Cholesky factor of the second matrix to one symmetric eigenproblem.
Every d x d factorization goes through ``numpy.linalg``.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, _rng

__all__ = [
    "SketchResult",
    "leverage_scores",
    "sampling_distribution",
    "subsample",
    "surrogate_sketch",
    "verify_sandwich",
    "sample_count",
    "SAMPLING_CONSTANT",
]

# multiplier in s = ceil(C d ln(n/delta) / eps0^2); generous enough that the
# sandwich holds in well over 1 - delta of runs
SAMPLING_CONSTANT = 8.0

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_HALF_MAX = float(np.finfo(float).max) / 2


@dataclass
class SketchResult:
    kept_indices: np.ndarray  # draws in order, with multiplicities
    dtilde: np.ndarray  # length n, zero off the kept set
    exact: bool  # fallback Dt = D engaged


def leverage_scores(A: np.ndarray, dweights: np.ndarray) -> np.ndarray:
    """Row leverage scores of M = diag(sqrt(dweights)) @ A: squared row norms of an orthonormal basis of its range.

    M is divided by max|M|, which leaves tau unchanged and keeps the Gram
    K = M^T M from overflowing or underflowing. ``np.linalg.eigh`` gives
    K = V diag(lam) V^T, and tau is read from one n x r product
    M V_r diag(lam_r)^-1/2 over the r eigenvalues above the rank cut
    (n + 1) d u lam_max (u the unit roundoff): K is formed within
    n u ||M||_F^2 <= n d u lam_max of M^T M, and ``eigh`` errs by a modest
    multiple of u lam_max (taken as d u lam_max), so an eigenvalue below the
    cut cannot be told from zero. r is the numerical rank. tau agrees with
    an SVD's scores within a multiple of kappa(M)^2 u; the scores sum to r
    and lie in [0, 1] up to rounding.

    An error in tau cannot bias a sketch: ``subsample`` divides each draw's
    weight by the probability it draws with, so tau moves only the variance.
    """
    A = np.asarray(A, dtype=float)
    dweights = np.asarray(dweights, dtype=float)
    if np.any(dweights <= 0.0):
        raise ValueError("dweights must be strictly positive")
    if A.ndim != 2 or dweights.shape != (A.shape[0],):
        raise ValueError("A must be n x d with dweights of length n")
    n, d = A.shape
    M = np.sqrt(dweights)[:, None] * A
    scale = max(M.max(initial=0.0), -M.min(initial=0.0))
    if not np.isfinite(scale):
        raise ValueError("A and dweights must be finite")
    if scale == 0.0:
        return np.zeros(n)
    M /= scale
    lam, V = np.linalg.eigh(M.T @ M)
    keep = lam > (n + 1) * d * _UNIT_ROUNDOFF * lam[-1]
    Q = M @ (V[:, keep] / np.sqrt(lam[keep]))
    return np.einsum("ij,ij->i", Q, Q)


def sample_count(n: int, d: int, eps0: float, delta: float, kappa: float = 0.0) -> int:
    """s = ceil(C d ln(n/delta) (1 + kappa) / ((1 - kappa) eps0^2)), for 0 <= kappa < 1.

    kappa = 0 is the count for draws by the exact leverage of the weights;
    a distribution whose probabilities are within (1 - kappa)/(1 + kappa) of
    those needs (1 + kappa)/(1 - kappa) times as many draws.
    """
    return math.ceil(SAMPLING_CONSTANT * d * math.log(n / delta) * (1.0 + kappa) / ((1.0 - kappa) * eps0 * eps0))


def sampling_distribution(A: np.ndarray, dweights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, cdf): p_i proportional to max(tau_i, d/n), tau the leverage scores of diag(sqrt(dweights)) A, and its cumulative sum scaled to end at 1."""
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    p = np.maximum(leverage_scores(A, dweights), d / n)
    p = p / p.sum()
    return p, _cdf(p)


def _ridge_ratio(kdiag: np.ndarray, w2: np.ndarray) -> float:
    """kappa = max_i |diag(B)_i| / w_i^2 while every ratio is below 1, else inf (a zero w_i or a nan diag(B)_i too).

    Below 1 every w_i^2 is positive and no ratio can overflow, so no numpy
    warning is possible; ``surrogate_sketch`` reads kappa only there.
    """
    r = np.abs(kdiag)
    return float(np.max(r / w2)) if np.all(r < w2) else math.inf


def surrogate_sketch(
    inst: ProblemInstance, kdiag: np.ndarray, count: Callable[[float], int], seed: int
) -> SketchResult:
    """The sketch of D' = diag(B) + w^2 that a sketched Newton step takes, from diag(B) = ``kdiag``.

    ``count(kappa)`` is the number of draws from probabilities within
    (1 - kappa)/(1 + kappa) of the leverage of D' (a Newton step passes
    ``sample_count`` at its eps0 and per-step delta). With
    kappa = max_i |diag(B)_i| / w_i^2 < 1 and count(kappa) < n, the sketch
    draws count(kappa) rows from ``inst.ridge_distribution``; otherwise
    (kappa >= 1, which any w_i = 0 gives) it is the exact fallback Dt = D',
    and no distribution is formed. kappa is read only where count(0) < n,
    since it can only raise the count.
    """
    w2 = inst.w * inst.w
    s = count(0.0)
    if s < inst.n:
        kappa = _ridge_ratio(kdiag, w2)
        s = count(kappa) if kappa < 1.0 else inst.n
    return subsample(kdiag + w2, inst.ridge_distribution if s < inst.n else None, s, seed)


def subsample(
    dweights: np.ndarray, distribution: tuple[np.ndarray, np.ndarray] | None, num_draws: int, seed: int
) -> SketchResult:
    """Sample a sparse diagonal reweighting Dt of the rows, from ``distribution`` = (p, cdf).

    Draws ``num_draws`` = s rows independently with probabilities p (a pair
    from ``sampling_distribution``), accumulating dweights_i / (s p_i) per
    draw, which keeps A^T Dt A unbiased for every A. When s >= n the exact
    fallback returns Dt = D and ``distribution`` is not read.

    The draw stream is produced by a counter-based generator keyed on
    ``seed``: identical inputs and seed give a bit-identical result.
    """
    dweights = np.asarray(dweights, dtype=float)
    n = dweights.size
    if num_draws >= n:
        return SketchResult(kept_indices=np.arange(n), dtilde=dweights.copy(), exact=True)
    p, cdf = distribution
    draws, dtilde = _draw(dweights, p, num_draws, seed, cdf)
    return SketchResult(kept_indices=draws, dtilde=dtilde, exact=False)


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _draw(dweights: np.ndarray, p: np.ndarray, s: int, seed: int, cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s rows drawn with replacement from the distribution p, and the sum of dweights_i / (s p_i) per row.

    The draws are bitwise ``_rng(seed).choice(p.size, size=s, replace=True,
    p=p)``: the same float operations (numpy 2.4) without choice's
    validation passes over a p that its caller formed. ``cdf`` is
    p's as ``sampling_distribution`` forms it.
    The uniform keys are searched in sorted order, which lets each search
    start from the last one's result, and the rows are put back in draw
    order: a key's row does not depend on the order. ``bincount`` sums each
    row's weights in draw order, as ``np.add.at`` does.
    """
    keys = _rng(seed).random(s)
    order = keys.argsort()
    draws = np.empty(s, dtype=np.intp)
    draws[order] = cdf.searchsorted(keys[order], side="right")
    with np.errstate(over="ignore"):  # a weight past float64 is inf
        weights = dweights[draws] / (s * p[draws])
    return draws, np.bincount(draws, weights=weights, minlength=p.size)


def verify_sandwich(A: np.ndarray, dweights: np.ndarray, result: SketchResult) -> float:
    """Largest deviation of the generalized spectrum of (A^T Dt A, A^T D A) from 1.

    A singular Gram matrix is projected onto its numerical range (eigenvalues
    above 1e-12 of the largest). A Gram that is not finite gives inf, as
    ``_deviation`` does.
    """
    A = np.asarray(A, dtype=float)
    dweights = np.asarray(dweights, dtype=float)
    H = A.T @ (dweights[:, None] * A)
    Ht = A.T @ (result.dtilde[:, None] * A)
    H_sym = _symmetric_part(H)
    if np.isfinite(H_sym).all():  # otherwise _deviation reads inf
        vals, vecs = np.linalg.eigh(H_sym)
        keep = vals > 1e-12 * max(vals[-1], 0.0)
        if not np.all(keep):
            vecs = vecs[:, keep]
            Ht = vecs.T @ Ht @ vecs
            H = np.diag(vals[keep])
    return _deviation(Ht, H) if H.size else 0.0


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |lambda - 1| over the generalized spectrum a v = lambda b v of the symmetric parts of (a, b).

    With L the Cholesky factor of b (``np.linalg.cholesky``, which reads its
    lower triangle), the spectrum is that of C = L^-1 a L^-T, the reduction
    LAPACK's ``dsygvd`` makes with itype 1: Y = L^-1 a and C = L^-1 Y^T by
    ``np.linalg.solve`` (Y^T = a L^-T, a being symmetric), then
    ``np.linalg.eigvalsh`` on C's lower triangle. A pencil it cannot read
    gives inf: a matrix that is not finite, a failed factorization (b not
    positive definite), a C past the float64 range, or an eigensolver that
    does not converge.
    """
    a = _symmetric_part(a)
    b = _symmetric_part(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    try:
        L = np.linalg.cholesky(b)
        C = np.linalg.solve(L, np.linalg.solve(L, a).T)
        if not np.isfinite(C).all():
            return math.inf
        w = np.linalg.eigvalsh(C)
    except np.linalg.LinAlgError:
        return math.inf
    return float(max(w[-1] - 1.0, 1.0 - w[0]))  # w ascends


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2, or the sum of the halves (the same number, but finite for a finite a) past half the float64 maximum."""
    if float(np.abs(a).max(initial=0.0)) <= _HALF_MAX:
        return 0.5 * (a + a.T)
    return 0.5 * a + 0.5 * a.T
