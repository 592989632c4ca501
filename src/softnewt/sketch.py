"""Row subsampling that spectrally preserves a weighted Gram matrix.

Given A (n x d) and a positive diagonal weight D, produce a sparse nonnegative
diagonal Dt with

    (1 - eps0) A^T D A  <=  A^T Dt A  <=  (1 + eps0) A^T D A

with probability >= 1 - delta, by sampling rows with replacement proportionally
to their leverage scores (mixed with a uniform floor to cap the variance of
near-zero-leverage rows). The leverage scores are exact up to rounding: they
come from a pivoted Cholesky factor of the d x d Gram matrix, so no n x d
orthogonal factor is formed. The generalized spectrum that measures the
deviation is read by LAPACK ``dsygvd`` directly, in ``_generalized_eigvals``,
which ``newton`` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpstrf, dsygvd, dtrtrs

from .model import _rng
from .serialize import SCHEMA_VERSION

__all__ = [
    "SketchResult",
    "leverage_scores",
    "subsample",
    "verify_sandwich",
    "sample_count",
    "SAMPLING_CONSTANT",
]

# multiplier in s = ceil(C d ln(n/delta) / eps0^2); generous enough that the
# sandwich holds in well over 1 - delta of runs
SAMPLING_CONSTANT = 8.0


@dataclass
class SketchResult:
    kept_indices: np.ndarray  # draws in order, with multiplicities
    dtilde: np.ndarray  # length n, zero off the kept set
    eps_target: float
    eps_measured: float | None
    seed: int
    exact: bool  # fallback Dt = D engaged
    num_draws: int

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kept_indices": self.kept_indices,
            "dtilde": self.dtilde,
            "eps_target": self.eps_target,
            "eps_measured": self.eps_measured,
            "seed": self.seed,
            "exact": self.exact,
            "num_draws": self.num_draws,
        }


def leverage_scores(A: np.ndarray, dweights: np.ndarray) -> np.ndarray:
    """Row leverage scores of M = diag(sqrt(dweights)) @ A: squared row norms of an orthonormal basis of its range.

    M is divided by max|M|, which leaves tau unchanged and keeps the Gram
    M^T M from overflowing or underflowing. LAPACK's pivoted Cholesky
    ``dpstrf`` factors P^T M^T M P = L L^T and stops at its default
    tolerance, d u max_j (M^T M)_jj (u the unit roundoff): a column whose
    part outside the span of the earlier pivots is below about sqrt(d u) of
    the largest counts as dependent, and the factor's rank r is the
    numerical rank. tau is read from one n x r product M K, K holding L11^-T
    (``dtrtrs``) on the pivot rows and zeros elsewhere. It agrees with an
    SVD's scores within a multiple of kappa(M)^2 u; the scores sum to r and
    lie in [0, 1] up to rounding.

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
    L, piv, r, _ = dpstrf(M.T @ M, lower=1)
    K = np.zeros((d, r))
    K[piv[:r] - 1] = dtrtrs(L[:r, :r], np.eye(r), lower=1)[0].T
    Q = M @ K
    return np.einsum("ij,ij->i", Q, Q)


def sample_count(n: int, d: int, eps0: float, delta: float) -> int:
    return math.ceil(SAMPLING_CONSTANT * d * math.log(n / delta) / (eps0 * eps0))


def subsample(
    A: np.ndarray,
    dweights: np.ndarray,
    eps0: float,
    delta: float,
    seed: int,
    *,
    num_draws: int | None = None,
) -> SketchResult:
    """Sample a sparse diagonal reweighting of the rows of A.

    Draws s = ceil(C d ln(n/delta) / eps0^2) rows independently with
    probability p_i proportional to max(tau_i, d/n), accumulating
    dweights_i / (s p_i) per draw, which keeps A^T Dt A unbiased. When s >= n
    the exact fallback returns Dt = D with measured deviation 0. ``num_draws``
    overrides the sample-count formula (the formula exceeds n for any desk-
    scale instance, so tests of the sampling path set it explicitly).

    The draw stream is produced by a counter-based generator keyed on
    ``seed``: identical inputs and seed give a bit-identical result.
    """
    A = np.asarray(A, dtype=float)
    dweights = np.asarray(dweights, dtype=float)
    if not (0.0 < eps0 < 0.5):
        raise ValueError("eps0 must lie in (0, 0.5)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    n, d = A.shape
    s = sample_count(n, d, eps0, delta) if num_draws is None else int(num_draws)
    if s >= n:
        return SketchResult(
            kept_indices=np.arange(n),
            dtilde=dweights.copy(),
            eps_target=eps0,
            eps_measured=0.0,
            seed=int(seed),
            exact=True,
            num_draws=n,
        )
    tau = leverage_scores(A, dweights)
    p = np.maximum(tau, d / n)
    p = p / p.sum()
    draws, dtilde = _draw(dweights, p, s, seed)
    return SketchResult(
        kept_indices=draws,
        dtilde=dtilde,
        eps_target=eps0,
        eps_measured=None,
        seed=int(seed),
        exact=False,
        num_draws=s,
    )


def _draw(dweights: np.ndarray, p: np.ndarray, s: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """s rows drawn with replacement from the distribution p, and the sum of dweights_i / (s p_i) per row.

    The draws are bitwise ``_rng(seed).choice(p.size, size=s, replace=True,
    p=p)``: the same float operations (numpy 2.4) without choice's
    validation passes over a p that ``subsample`` has just built. ``bincount``
    sums each row's weights in draw order, as ``np.add.at`` does.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    draws = cdf.searchsorted(_rng(seed).random(s), side="right")
    return draws, np.bincount(draws, weights=dweights[draws] / (s * p[draws]), minlength=p.size)


def verify_sandwich(A: np.ndarray, dweights: np.ndarray, result: SketchResult) -> float:
    """Largest deviation of the generalized spectrum of (A^T Dt A, A^T D A) from 1.

    A singular Gram matrix is projected onto its numerical range (eigenvalues
    above 1e-12 of the largest). Fills ``result.eps_measured``.
    """
    A = np.asarray(A, dtype=float)
    dweights = np.asarray(dweights, dtype=float)
    H = A.T @ (dweights[:, None] * A)
    Ht = A.T @ (result.dtilde[:, None] * A)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.T))
    tol = 1e-12 * max(vals[-1], 0.0)
    keep = vals > tol
    if not np.all(keep):
        vecs = vecs[:, keep]
        vals = vals[keep]
        Ht = vecs.T @ Ht @ vecs
        H = np.diag(vals)
    if vals.size == 0:
        eps = 0.0
    else:
        gen = _generalized_eigvals(0.5 * (Ht + Ht.T), H)
        eps = float(np.max(np.abs(gen - 1.0)))
    result.eps_measured = eps
    return eps


def _generalized_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a v = lambda b v, bitwise ``scipy.linalg.eigh(a, b, eigvals_only=True)``.

    The wrapper's default route, LAPACK ``dsygvd`` with itype 1 on the lower
    triangles, without its layers, and its outcome for every float64 square
    pair it rejects: ValueError for a non-finite entry, LinAlgError when
    LAPACK reports failure (b not positive definite, or no convergence).
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    w, _, info = dsygvd(a, b, jobz="N", uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(f"dsygvd failed with info {info}")
    return w
