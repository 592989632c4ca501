"""Random instance generation with controlled conditioning.

Matrices are Gaussian rescaled to a target spectral norm, the target vector is
planted (b = h(A2 f(x_plant)) + noise), and the ridge weights default to the
strong-convexity recipe

    w_i^2 = 100 + 12 R_h L_H R (R + R_h) + l_target / sigma_min(A1)^2

with R the norm target, L_H = 1 and R_h = ``activation_bound`` of the
rescaled A2's spectral norm (the value the instance derives), which keeps
lambda_min of the total Hessian at or above l_target everywhere the kernel
bound holds.
"""

from __future__ import annotations

import math

import numpy as np

from .model import L_H, Activation, ProblemInstance, _rng, activation_bound, activation_eval

__all__ = ["gen_instance", "ridge_recipe", "softmax"]

_W2_CAP = 1e300


def softmax(z: np.ndarray) -> np.ndarray:
    s = np.exp(z - np.max(z))
    return s / s.sum()


def ridge_recipe(R: float, R_h: float, L_h: float, sigma_min: float, l_target: float) -> float:
    """The common w_i^2 from the strong-convexity recipe, clipped to float range."""
    if sigma_min <= 0.0:
        raise ValueError("A1 must have full column rank for the ridge recipe (need n >= d)")
    w2 = 100.0 + 12.0 * R_h * L_h * R * (R + R_h) + l_target / sigma_min**2
    return min(w2, _W2_CAP)


def gen_instance(
    n: int,
    m: int,
    d: int,
    activation: str,
    seed: int,
    *,
    noise: float = 0.0,
    r_target: float = 1.5,
    l_target: float = 1.0,
    beta: float = 0.05,
    w: np.ndarray | None = None,
) -> tuple[ProblemInstance, np.ndarray]:
    """Build a random instance; returns (instance, x_plant).

    The planted point controls conditioning only: b is exact at x_plant when
    noise = 0, but the ridge term moves the minimizer of the total loss away
    from it.
    """
    if min(n, m, d) < 1:
        raise ValueError("n, m, d must all be >= 1")
    rng = _rng(seed)
    A1 = rng.standard_normal((n, d))
    A1 *= r_target / max(float(np.linalg.norm(A1, 2)), 1e-300)
    A2 = rng.standard_normal((m, n))
    A2 *= r_target / max(float(np.linalg.norm(A2, 2)), 1e-300)
    x_plant = rng.standard_normal(d)
    x_plant *= 0.5 * r_target / max(float(np.linalg.norm(x_plant)), 1e-300)

    act = Activation(activation)
    hval, _, _ = activation_eval(act, A2 @ softmax(A1 @ x_plant))
    b = hval + noise * rng.standard_normal(m)

    if w is None:
        # the d-th singular value, which an n x d matrix with n < d lacks: it is 0
        sigma_min = float(np.linalg.svd(A1, compute_uv=False)[-1]) if n >= d else 0.0
        R_h = activation_bound(activation, float(np.linalg.norm(A2, 2)), m)
        w2 = ridge_recipe(r_target, R_h, L_H, sigma_min, l_target)
        w = np.full(n, math.sqrt(w2))
    else:
        w = np.asarray(w, dtype=float)

    inst = ProblemInstance(A1=A1, A2=A2, b=b, w=w, activation=act, R=r_target, beta=beta)
    return inst, x_plant
