"""Row subsampling that spectrally preserves a weighted Gram matrix.

Given A (n x d) and a positive diagonal weight D, produce a sparse nonnegative
diagonal Dt with

    (1 - eps0) A^T D A  <=  A^T Dt A  <=  (1 + eps0) A^T D A

with probability >= 1 - delta, by sampling rows with replacement proportionally
to their leverage scores (mixed with a uniform floor to cap the variance of
near-zero-leverage rows). Exact leverage scores are used; desk scale permits a
full orthogonal factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    """Row leverage scores of diag(sqrt(dweights)) @ A.

    tau_i is the squared row norm of an orthonormal column basis; rank
    deficiency is handled by truncating singular values below 1e-12 times the
    largest. Sum of scores equals the rank; each lies in [0, 1].
    """
    A = np.asarray(A, dtype=float)
    dweights = np.asarray(dweights, dtype=float)
    if np.any(dweights <= 0.0):
        raise ValueError("dweights must be strictly positive")
    if A.ndim != 2 or dweights.shape != (A.shape[0],):
        raise ValueError("A must be n x d with dweights of length n")
    M = np.sqrt(dweights)[:, None] * A
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(A.shape[0])
    rank = int(np.sum(s > 1e-12 * s[0]))
    return np.einsum("ij,ij->i", U[:, :rank], U[:, :rank])


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
    rng = _rng(seed)
    draws = rng.choice(n, size=s, replace=True, p=p)
    dtilde = np.zeros(n)
    np.add.at(dtilde, draws, dweights[draws] / (s * p[draws]))
    return SketchResult(
        kept_indices=draws,
        dtilde=dtilde,
        eps_target=eps0,
        eps_measured=None,
        seed=int(seed),
        exact=False,
        num_draws=s,
    )


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
        gen = scipy.linalg.eigh(0.5 * (Ht + Ht.T), H, eigvals_only=True)
        eps = float(np.max(np.abs(gen - 1.0)))
    result.eps_measured = eps
    return eps
