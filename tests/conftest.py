import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

# When a property test fails, hypothesis's pytest plugin imports its patch
# writer, which imports libcst, whose import raises mypy_extensions'
# DeprecationWarning. Under pyproject's error::DeprecationWarning filter that
# warning would end the whole session in an INTERNALERROR, so the module is
# imported here, once, with that one warning silenced; the filter stays in
# force for everything else.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: hypothesis writes no patches
        pass

import softnewt as sn
from softnewt.generate import ridge_recipe, softmax
from softnewt.model import L_H

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "s1.json")

ALL_KINDS = ("identity", "tanh", "sigmoid", "softplus")


@pytest.fixture(scope="session")
def s1_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def s1_instance(s1_golden):
    gi = s1_golden["instance"]
    return sn.ProblemInstance(
        A1=np.array(gi["A1"]),
        A2=np.array(gi["A2"]),
        b=np.array(gi["b"]),
        w=np.array(gi["w"]),
        activation=sn.Activation(gi["activation"]),
        R=gi["R"],
        beta=gi["beta"],
    )


@pytest.fixture(scope="session")
def s1_state(s1_instance, s1_golden):
    return sn.eval_forward(s1_instance, np.array(s1_golden["x"]))


def random_instance(seed, *, n=None, m=None, d=None, kind=None, ridge="unit", noise=0.3):
    """Small random instance with entries U[-1,1] rescaled to the norm budget.

    ridge="unit" draws w ~ U[0.5, 1.5]; ridge="recipe" applies the
    strong-convexity recipe (requires n >= d).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11)) if n is None else n
    m = int(rng.integers(1, 11)) if m is None else m
    d = int(rng.integers(1, 11)) if d is None else d
    kind = ALL_KINDS[seed % 4] if kind is None else kind

    def scaled(shape):
        A = rng.uniform(-1.0, 1.0, size=shape)
        s = np.linalg.norm(A, 2)
        if s > 1.4:
            A *= 1.4 / s
        return A

    A1 = scaled((n, d))
    A2 = scaled((m, n))
    R = max(np.linalg.norm(A1, 2), np.linalg.norm(A2, 2), 0.5) * 1.000001
    act = sn.Activation(kind)
    x_plant = rng.standard_normal(d)
    x_plant *= 0.4 * R / max(np.linalg.norm(x_plant), 1e-12)
    hval, _, _ = sn.activation_eval(act, A2 @ softmax(A1 @ x_plant))
    b = hval + noise * rng.standard_normal(m)
    inst = sn.ProblemInstance(A1=A1, A2=A2, b=b, w=np.ones(n), activation=act, R=R, beta=0.05)
    if ridge == "unit":
        w = rng.uniform(0.5, 1.5, size=n)
    elif ridge == "recipe":
        sigma_min = float(np.linalg.svd(A1, compute_uv=False)[-1])
        w = np.full(n, np.sqrt(ridge_recipe(R, inst.R_h, L_H, sigma_min, 1.0)))
    else:
        raise ValueError(ridge)
    return dataclasses.replace(inst, w=w)


def random_points(inst, seed, count, radius_frac=0.5):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        g = rng.standard_normal(inst.d)
        g *= radius_frac * inst.R * rng.uniform(0.1, 1.0) / max(np.linalg.norm(g), 1e-12)
        pts.append(g)
    return pts


U = 2.0**-53  # unit roundoff


def cholesky_error(d):
    """c with ||dH||_2 <= c ||H||_2 for a Cholesky factorization of a d x d H that runs to completion.

    It gives L L^T = H + dH with |dH| <= g_(d+1) |L| |L^T|, g_k = k u / (1 - k u) (Higham 2002,
    "Accuracy and Stability of Numerical Algorithms", Thm 10.3). As || |L| ||_2^2 <= d ||L||_2^2 =
    d ||H + dH||_2, this is c = d g_(d+1) / (1 - d g_(d+1)).
    """
    g = (d + 1) * U / (1 - (d + 1) * U)
    return d * g / (1 - d * g)


def cholesky_verdict(H):
    """True where every Cholesky factorization of H's lower triangle runs to completion, False where none can, else None.

    - A completed factorization has L L^T = H + dH positive semidefinite, so lambda_min(H) >= -c ||H||_2
      (c from ``cholesky_error``): below that it fails.
    - It completes where lambda_min(D^-1/2 H D^-1/2) > c, D = diag(H) (Higham 2002, Thm 10.7, after
      Demmel), which lambda_min(H) > c max_i H_ii implies.
    The eigenvalues come from ``eigvalsh``, which reads the same lower triangle, each within d u ||H||_2
    (LAPACK's guide leaves the factor a modest function of the order; it is taken as the order). Between
    the two thresholds the outcome depends on the rounding of the LAPACK build: numpy's and scipy's
    OpenBLAS builds give factors that differ in the last bits from d = 5 on.
    """
    d = len(H)
    lam = np.linalg.eigvalsh(H)
    norm = max(abs(lam[0]), abs(lam[-1]))
    slack = d * U * norm
    c = cholesky_error(d)
    if lam[0] - slack > c * float(np.max(np.diag(H))):
        return True
    if lam[0] + slack < -c * (norm + slack):
        return False
    return None
