import dataclasses
import json
import os

import numpy as np
import pytest

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
