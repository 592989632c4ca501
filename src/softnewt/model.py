"""Problem data model, activation registry, and forward evaluation.

The objective is a two-layer regression: an inner softmax over ``A1 @ x``
feeding an outer coordinatewise activation through ``A2``, with a diagonal
ridge term::

    loss_tot(x) = 0.5 * ||h(A2 @ softmax(A1 @ x)) - b||^2 + 0.5 * ||diag(w) @ A1 @ x||^2

A ``ProblemInstance`` keeps the constants the bounds are built from: ||A1||,
||A2|| and R_h = ``activation_bound`` at ||A2||; ``L_H`` bounds h' and h''.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
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
    "activation_bound",
    "activation_eval",
    "eval_forward",
    "instance_to_json",
    "instance_from_json",
    "ACTIVATION_KINDS",
    "L_H",
]

# log(DBL_MAX): exp(x) is finite up to here and overflows float64 above it
_LOG_MAX = math.log(sys.float_info.max)


def _check_seed(seed: int) -> int:
    """``seed`` itself; a seed outside [0, 2**64), the range of a Philox key, raises ValueError."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The package's random generator: counter-based Philox keyed on seed ^ (stream << 32).

    Stream 0 keys on the seed itself; identical seed and stream give an
    identical draw stream on every platform.
    """
    key = np.uint64(_check_seed(seed)) ^ np.uint64(stream) << np.uint64(32)
    return np.random.Generator(np.random.Philox(key=key))


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


# sup|h'| and sup|h''| over the reals are at most 1 for every registered kind
# (tanh's sup|h''| is 4/(3 sqrt 3)), so h and h' are L_H-Lipschitz as vector maps
L_H = 1.0


@dataclass(frozen=True)
class Activation:
    """A twice-differentiable coordinatewise map, named by its kind.

    Its derivatives are bounded by the module constant ``L_H``; the bound
    ``R_h`` depends on A2, so it belongs to the instance.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation kind {self.kind!r}; known: {ACTIVATION_KINDS}")


def activation_eval(act: Activation, y: np.ndarray):
    """Coordinatewise (h, h', h'') of the chosen kind at ``y``."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("activation input must be finite")
    return _ACTIVATIONS[act.kind](y)


def activation_bound(kind: str, a2_norm: float, m: int) -> float:
    """R_h: a bound on ||h(A2 f)||_2 and ||h'(A2 f)||_2 over the simplex, from ``a2_norm`` = ||A2||.

    ||A2 f|| <= ||A2|| as ||f||_2 <= ||f||_1 = 1; |h'| <= 1, so ||h'|| <= sqrt(m);
    |h| <= 1 for tanh and sigmoid, |y| for identity and |y| + log 2 for softplus,
    whose h' = sigmoid(y) <= softplus(y) <= |y| + log 2 needs no other cap.
    """
    rm = math.sqrt(m)
    if kind == "identity":
        return max(a2_norm, rm)
    if kind in ("tanh", "sigmoid"):
        return rm
    if kind == "softplus":
        return a2_norm + math.log(2.0) * rm
    raise ValueError(kind)


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data: matrices, target, ridge weights, constants.

    ``R`` is the norm budget: spectral norms of A1 and A2 must not exceed it.
    ``beta`` is the declared floor on the softmax denominator, in (0, 0.1].
    Construction takes each spectral norm once and keeps it as ``norm_A1`` and
    ``norm_A2``; ``R_h`` is ``activation_bound`` of the kept ``norm_A2``.
    """

    A1: np.ndarray
    A2: np.ndarray
    b: np.ndarray
    w: np.ndarray
    activation: Activation
    R: float
    beta: float = 0.05
    norm_A1: float = field(init=False)
    norm_A2: float = field(init=False)
    R_h: float = field(init=False)

    def __post_init__(self):
        for name in ("A1", "A2", "b", "w"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        A1, A2, b, w = self.A1, self.A2, self.b, self.w
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
        for name, arr in (("A1", A1), ("A2", A2)):
            s = float(np.linalg.norm(arr, 2))
            if s > self.R * (1.0 + 1e-9):
                raise ValueError(f"spectral norm of {name} is {s:.6g}, exceeding R={self.R:.6g}")
            object.__setattr__(self, f"norm_{name}", s)
        object.__setattr__(self, "R_h", activation_bound(self.activation.kind, self.norm_A2, m))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def d(self) -> int:
        return self.A1.shape[1]

    @property
    def m(self) -> int:
        return self.A2.shape[0]

    @functools.cached_property
    def ridge_gram(self) -> np.ndarray:
        """A1^T diag(w^2) A1, the ridge term's Hessian, formed on first use only."""
        # w^2 may overflow; the non-finite Hessian is reported by the solver
        with np.errstate(over="ignore", invalid="ignore"):
            w2 = self.w * self.w
            return self.A1.T @ (w2[:, None] * self.A1)

    @functools.cached_property
    def ridge_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, cdf) of ``sketch.sampling_distribution`` for A1 under the weights w^2, formed on first use only.

        ``sketch.surrogate_sketch`` draws its rows from it; it needs every w_i > 0.
        """
        from .sketch import sampling_distribution  # sketch imports this module

        return sampling_distribution(self.A1, self.w * self.w)


@dataclass
class ModelState:
    """Cached forward pass at a point x, or at each row of a (k, d) stack.

    ``u`` holds the literal coordinatewise exponentials and ``alpha`` their
    sum; ``f`` is computed through the max-shifted form (shift invariant), and
    ``log_alpha`` carries the denominator in log space for bound reporting.
    ``q2 = A2^T (h' o c)`` is the outer layer's backward vector, the one the
    gradient and the Hessian factors read. For a stack every field gains a
    leading axis of length k and the scalars are length-k arrays.
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

    def rows(self, idx) -> "ModelState":
        """The points of a stack that ``idx`` (an index, slice, mask or index array) selects."""
        return ModelState(**{name: value[idx] for name, value in vars(self).items()})


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a point, or A @ row for each row of a stack.

    A stack takes one matrix-vector product per row, so each row is bitwise
    equal to ``A @ row``; a matrix-matrix product would not be.
    """
    if x.ndim == 1:
        return A @ x
    return np.matmul(A, x[:, :, None])[:, :, 0]


def _inner(a: np.ndarray, b: np.ndarray):
    """a @ b for two vectors; otherwise the inner products over the last axis,
    broadcast over the leading ones, with a trailing axis of length 1 (a (k, 1)
    column for two stacks).

    Each takes one dot product, so it is bitwise equal to ``a[r] @ b[r]``.
    """
    if a.ndim == b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer(a, b) for two vectors, or for two stacks the outer product of each pair of rows."""
    return a[..., :, None] * b[..., None, :]


# bytes that a chunked stack (pair differences, kernels, stencil rows, oracle rows) holds at once
_CHUNK_BYTES = 2**18


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each over at most ``_CHUNK_BYTES`` of items.

    A slice holds one item at least, and a count of 0 gives one empty slice.
    """
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(start, start + step) for start in range(0, max(count, 1), step)]


def _overflow_error(z: np.ndarray) -> EvaluationOverflowError:
    """The error of one point whose exponentials, or their sum, overflow; ``z = A1 x``."""
    kmax = int(z.argmax())
    if z[kmax] > _LOG_MAX:
        return EvaluationOverflowError(
            f"exp((A1 x)_{kmax}) = exp({z[kmax]:.6g}) overflows float64", coordinate=kmax
        )
    return EvaluationOverflowError(
        f"sum of exp(A1 x) overflows float64 (max coordinate {kmax})", coordinate=kmax
    )


def eval_forward(inst: ProblemInstance, x: np.ndarray) -> ModelState:
    """Evaluate the full forward pass at ``x``, a point of length d or a (k, d) stack.

    A stack is evaluated row by row in one pass: each row of each field is
    bitwise equal to evaluating that row alone, and the scalars become
    length-k arrays. Raises ShapeError on dimension mismatch and
    EvaluationOverflowError (naming the coordinate) if any entry of
    exp(A1 @ x), or their sum, leaves float64 range; in a stack, the first
    such row raises the error it raises alone. Warns, not errors, for each
    point whose denominator falls below the declared beta.
    """
    x = np.asarray(x, dtype=float)
    single = x.shape == (inst.d,)
    if not (single or (x.ndim == 2 and len(x) and x.shape[1] == inst.d)):
        raise ShapeError(f"x must have length {inst.d} or shape (k, {inst.d}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x has non-finite entries")
    # A1 x, exp and the sums may overflow: an overflowing exponential raises the
    # structured error below, and a non-finite ridge loss is reported by its caller
    with np.errstate(over="ignore", invalid="ignore"):
        z = _matvec(inst.A1, x)
        u = np.exp(z)
        alpha = u.sum(axis=-1)
        wz = inst.w * z
        loss_reg = 0.5 * _inner(wz, wz)
    if single:
        if not math.isfinite(alpha):
            raise _overflow_error(z)
        zmax = z[z.argmax()]
    else:
        finite = np.isfinite(alpha)
        if not finite.all():
            raise _overflow_error(z[finite.argmin()])
        zmax = z.max(axis=1, keepdims=True)
    shifted = np.exp(z - zmax)
    ssum = shifted.sum(axis=-1, keepdims=not single)
    f = shifted / ssum
    # per point with math.log: np.log differs from it in the last bit on some inputs
    if single:
        log_alpha = float(zmax + math.log(ssum))
    else:
        log_alpha = zmax[:, 0] + np.array([math.log(sm) for sm in ssum[:, 0]])
    log_beta = math.log(inst.beta)
    for la in [log_alpha] if single else log_alpha:
        if la < log_beta:
            warnings.warn(
                f"softmax denominator {math.exp(la):.6g} below declared floor beta={inst.beta}",
                DenominatorFloorWarning,
                stacklevel=2,
            )
    a2f = _matvec(inst.A2, f)
    if not np.isfinite(a2f).all():
        raise ValueError("activation input must be finite")
    hval, hprime, hdp = _ACTIVATIONS[inst.activation.kind](a2f)
    c = hval - inst.b
    q2 = _matvec(inst.A2.T, hprime * c)
    # c.c overflows past ~1.3e154, like the ridge loss above: an infinite loss is the caller's to report
    with np.errstate(over="ignore"):
        loss_L = 0.5 * _inner(c, c)
    if single:
        alpha, loss_L, loss_reg = float(alpha), float(loss_L), float(loss_reg)
    else:
        loss_L, loss_reg = loss_L[:, 0], loss_reg[:, 0]
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
    inst = ProblemInstance(
        A1=doc["A1"],
        A2=doc["A2"],
        b=doc["b"],
        w=doc["w"],
        activation=Activation(doc["activation"]),
        R=float(doc["R"]),
        beta=float(doc["beta"]),
    )
    for key in ("n", "m", "d"):
        if key in doc and int(doc[key]) != getattr(inst, key):
            raise ShapeError(f"declared {key}={doc[key]} disagrees with array shapes")
    return inst
