"""Problem data model, activation registry, and forward evaluation.

The objective is a two-layer regression: an inner softmax over ``A1 @ x``
feeding an outer coordinatewise activation through ``A2``, with a diagonal
ridge term::

    loss_tot(x) = 0.5 * ||h(A2 @ softmax(A1 @ x)) - b||^2 + 0.5 * ||diag(w) @ A1 @ x||^2
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .serialize import SCHEMA_VERSION

__all__ = [
    "Activation",
    "ProblemInstance",
    "ModelState",
    "ShapeError",
    "EvaluationOverflowError",
    "DenominatorFloorWarning",
    "activation_eval",
    "eval_forward",
    "estimate_activation_bound",
    "instance_to_json",
    "instance_from_json",
    "ACTIVATION_KINDS",
]

# log(DBL_MAX): exp(x) is finite up to here and overflows float64 above it
_LOG_MAX = math.log(sys.float_info.max)


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The package's random generator: counter-based Philox keyed on seed ^ (stream << 32).

    Stream 0 keys on the seed itself; identical seed and stream give an
    identical draw stream on every platform.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ np.uint64(stream) << np.uint64(32)))


class ShapeError(ValueError):
    """Dimension mismatch between instance pieces or inputs."""


class EvaluationOverflowError(ArithmeticError):
    """A coordinatewise exponential left the float64 range.

    ``coordinate`` names the offending entry of ``A1 @ x``.
    """

    def __init__(self, message: str, coordinate: int):
        super().__init__(message)
        self.coordinate = coordinate


class DenominatorFloorWarning(UserWarning):
    """The softmax denominator fell below the instance's declared floor."""


def _sigmoid(y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y, dtype=float)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


def _softplus(y: np.ndarray) -> np.ndarray:
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def _tanh_triple(y):
    t = np.tanh(y)
    d = 1.0 - t * t
    return t, d, -2.0 * t * d


def _sigmoid_triple(y):
    s = _sigmoid(y)
    d = s * (1.0 - s)
    return s, d, d * (1.0 - 2.0 * s)


def _softplus_triple(y):
    s = _sigmoid(y)
    return _softplus(y), s, s * (1.0 - s)


def _identity_triple(y):
    return y.copy(), np.ones_like(y), np.zeros_like(y)


# kind -> triple evaluator (h, h', h'')
_ACTIVATIONS: dict[str, Callable] = {
    "identity": _identity_triple,
    "tanh": _tanh_triple,
    "sigmoid": _sigmoid_triple,
    "softplus": _softplus_triple,
}

ACTIVATION_KINDS = tuple(_ACTIVATIONS)


@dataclass(frozen=True)
class Activation:
    """A twice-differentiable coordinatewise map with declared constants.

    ``L_h`` bounds sup|h'| and sup|h''| (so h and h' are L_h-Lipschitz as
    vector maps); both are at most 1 for every registered kind (tanh's
    sup|h''| is 4/(3 sqrt 3)), so the default 1.0 holds. ``R_h`` bounds
    ||h(A2 f)||_2 and ||h'(A2 f)||_2 for the instance this activation is
    attached to; it is instance dependent and is estimated at instance
    construction when not supplied.
    """

    kind: str
    L_h: float = 1.0
    R_h: float | None = None

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation kind {self.kind!r}; known: {ACTIVATION_KINDS}")
        if self.L_h < 0:
            raise ValueError("L_h must be nonnegative")
        if self.R_h is not None and self.R_h <= 0:
            raise ValueError("R_h must be positive")


def activation_eval(act: Activation, y: np.ndarray):
    """Coordinatewise (h, h', h'') of the chosen kind at ``y``."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("activation input must be finite")
    return _ACTIVATIONS[act.kind](y)


def _activation_cap(kind: str, a2_norm: float, m: int) -> float:
    """Analytic upper bound for max(||h(A2 f)||_2, ||h'(A2 f)||_2) over all x.

    Uses ||A2 f||_2 <= ||A2|| since ||f||_2 <= ||f||_1 = 1.
    """
    rm = math.sqrt(m)
    if kind == "identity":
        return max(a2_norm, rm)
    if kind in ("tanh", "sigmoid"):
        return rm
    if kind == "softplus":
        return max(a2_norm + math.log(2.0) * rm, rm)
    raise ValueError(kind)


def estimate_activation_bound(kind: str, A2: np.ndarray, probe_f: list[np.ndarray] | None = None) -> float:
    """Per-instance R_h: max of a probe-grid measurement and the analytic cap.

    The cap alone is sound for every x; probing guards against a future kind
    whose cap formula is forgotten.
    """
    A2 = np.asarray(A2, dtype=float)
    m, n = A2.shape
    a2_norm = float(np.linalg.norm(A2, 2))
    act = Activation(kind)
    measured = 0.0
    if probe_f is None:
        # deterministic simplex probes: uniform plus each vertex e_i, where A2 e_i = A2[:, i]
        probe_y = [A2 @ np.full(n, 1.0 / n)] + [A2[:, i] for i in range(min(n, 8))]
    else:
        probe_y = [A2 @ f for f in probe_f]
    for y in probe_y:
        h, hp, _ = activation_eval(act, y)
        measured = max(measured, float(np.linalg.norm(h)), float(np.linalg.norm(hp)))
    return max(measured, _activation_cap(kind, a2_norm, m))


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data: matrices, target, ridge weights, constants.

    ``R`` is the norm budget: spectral norms of A1 and A2 must not exceed it.
    ``beta`` is the declared floor on the softmax denominator, in (0, 0.1].
    """

    A1: np.ndarray
    A2: np.ndarray
    b: np.ndarray
    w: np.ndarray
    activation: Activation
    R: float
    beta: float = 0.05

    def __post_init__(self):
        A1 = np.asarray(self.A1, dtype=float)
        A2 = np.asarray(self.A2, dtype=float)
        b = np.asarray(self.b, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        if A1.ndim != 2 or A2.ndim != 2 or b.ndim != 1 or w.ndim != 1:
            raise ShapeError("A1, A2 must be matrices; b, w vectors")
        n, d = A1.shape
        m, n2 = A2.shape
        if n < 1 or m < 1 or d < 1:
            raise ShapeError("n, m, d must all be >= 1")
        if n2 != n:
            raise ShapeError(f"A2 has {n2} columns but A1 has {n} rows")
        if b.shape != (m,):
            raise ShapeError(f"b must have length {m}, got {b.shape}")
        if w.shape != (n,):
            raise ShapeError(f"w must have length {n}, got {w.shape}")
        for name, arr in (("A1", A1), ("A2", A2), ("b", b), ("w", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        # w_i = 0 is tolerated (unregularized coordinate); negatives are not.
        if np.any(w < 0):
            raise ValueError("w entries must be nonnegative")
        if not (self.R > 0):
            raise ValueError("R must be positive")
        if not (0.0 < self.beta <= 0.1):
            raise ValueError("beta must lie in (0, 0.1]")
        slack = 1.0 + 1e-9
        for name, arr in (("A1", A1), ("A2", A2)):
            s = float(np.linalg.norm(arr, 2))
            if s > self.R * slack:
                raise ValueError(f"spectral norm of {name} is {s:.6g}, exceeding R={self.R:.6g}")
        if self.activation.R_h is None:
            object.__setattr__(
                self,
                "activation",
                Activation(
                    self.activation.kind,
                    self.activation.L_h,
                    estimate_activation_bound(self.activation.kind, A2),
                ),
            )

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def d(self) -> int:
        return self.A1.shape[1]

    @property
    def m(self) -> int:
        return self.A2.shape[0]


@dataclass
class ModelState:
    """Cached forward pass at a point x.

    ``u`` holds the literal coordinatewise exponentials and ``alpha`` their
    sum; ``f`` is computed through the max-shifted form (shift invariant), and
    ``log_alpha`` carries the denominator in log space for bound reporting.
    ``q2 = A2^T (h' o c)`` is the outer layer's backward vector, the one the
    gradient and the Hessian factors read.
    """

    x: np.ndarray
    u: np.ndarray
    alpha: float
    log_alpha: float
    f: np.ndarray
    a1x: np.ndarray
    a2f: np.ndarray
    hval: np.ndarray
    hprime: np.ndarray
    hdoubleprime: np.ndarray
    c: np.ndarray
    q2: np.ndarray
    loss_L: float
    loss_reg: float
    loss_tot: float


def eval_forward(inst: ProblemInstance, x: np.ndarray) -> ModelState:
    """Evaluate the full forward pass at ``x``.

    Raises ShapeError on dimension mismatch and EvaluationOverflowError
    (naming the coordinate) if any entry of exp(A1 @ x) leaves float64 range.
    Warns, not errors, when the denominator falls below the declared beta.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.d,):
        raise ShapeError(f"x must have length {inst.d}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x has non-finite entries")
    z = inst.A1 @ x
    kmax = int(np.argmax(z))
    if z[kmax] > _LOG_MAX:
        raise EvaluationOverflowError(
            f"exp((A1 x)_{kmax}) = exp({z[kmax]:.6g}) overflows float64", coordinate=kmax
        )
    u = np.exp(z)
    # the sum may overflow; it is reported as the structured error below
    with np.errstate(over="ignore"):
        alpha = float(np.sum(u))
    if not math.isfinite(alpha):
        raise EvaluationOverflowError(
            f"sum of exp(A1 x) overflows float64 (max coordinate {kmax})", coordinate=kmax
        )
    shifted = np.exp(z - z[kmax])
    ssum = float(np.sum(shifted))
    f = shifted / ssum
    log_alpha = float(z[kmax] + math.log(ssum))
    if log_alpha < math.log(inst.beta):
        warnings.warn(
            f"softmax denominator {math.exp(log_alpha):.6g} below declared floor beta={inst.beta}",
            DenominatorFloorWarning,
            stacklevel=2,
        )
    a2f = inst.A2 @ f
    hval, hprime, hdp = activation_eval(inst.activation, a2f)
    c = hval - inst.b
    q2 = inst.A2.T @ (hprime * c)
    loss_L = 0.5 * float(c @ c)
    # w z may overflow; the non-finite loss is reported by its caller
    with np.errstate(over="ignore", invalid="ignore"):
        wz = inst.w * z
        loss_reg = 0.5 * float(wz @ wz)
    return ModelState(
        x=x,
        u=u,
        alpha=alpha,
        log_alpha=log_alpha,
        f=f,
        a1x=z,
        a2f=a2f,
        hval=hval,
        hprime=hprime,
        hdoubleprime=hdp,
        c=c,
        q2=q2,
        loss_L=loss_L,
        loss_reg=loss_reg,
        loss_tot=loss_L + loss_reg,
    )


def instance_to_json(inst: ProblemInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": inst.n,
        "m": inst.m,
        "d": inst.d,
        "A1": inst.A1,
        "A2": inst.A2,
        "b": inst.b,
        "w": inst.w,
        "activation": inst.activation.kind,
        "R": inst.R,
        "beta": inst.beta,
    }


def instance_from_json(doc: dict) -> ProblemInstance:
    A1 = np.asarray(doc["A1"], dtype=float)
    A2 = np.asarray(doc["A2"], dtype=float)
    inst = ProblemInstance(
        A1=A1,
        A2=A2,
        b=np.asarray(doc["b"], dtype=float),
        w=np.asarray(doc["w"], dtype=float),
        activation=Activation(doc["activation"]),
        R=float(doc["R"]),
        beta=float(doc["beta"]),
    )
    for key in ("n", "m", "d"):
        if key in doc and int(doc[key]) != getattr(inst, key):
            raise ShapeError(f"declared {key}={doc[key]} disagrees with array shapes")
    return inst
