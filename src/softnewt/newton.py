"""Newton iteration with exact or sketched Hessian, plus basin machinery.

The update is x_{t+1} = x_t - Ht^{-1} grad(loss_tot), the only sign consistent
with descent to a minimizer, and the gradient includes the ridge term so the
fixed point is a stationary point of the objective the Hessian belongs to.

Sketched mode subsamples the positive diagonal surrogate
D' = diag_part(B(x_t)) + w o w (the subsampling contract requires a positive
diagonal, which the full kernel is not); the end-to-end spectral deviation of
the resulting Ht from the true total Hessian is measured every iteration.

Each iterate is evaluated once: ``solve`` computes its forward pass and
gradient, and ``newton_step`` takes both and adds a single ``hess_L`` call,
which gives H_tot from the m x d product G = (A2 J) A1 without forming A2 J.
Only a sketched step forms A2 J, in its one ``kernel_diag`` call for diag(B).
The d x d system is factored by LAPACK's Cholesky (``dpotrf``/``dpotrs``, the
routines ``scipy.linalg.cho_factor``/``cho_solve`` call) without the wrappers'
checks.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .bounds import LogConstant, vector_norm
from .derivatives import grad
from .hessian import hess_L, kernel_diag
from .model import EvaluationOverflowError, ModelState, ProblemInstance, eval_forward
from .sketch import SketchResult, subsample

__all__ = [
    "NewtonConfig",
    "RunReport",
    "StepDiagnostics",
    "NotPositiveDefiniteError",
    "newton_step",
    "solve",
    "basin_check",
]


class NotPositiveDefiniteError(ArithmeticError):
    """The (approximate) Hessian failed its positive-definite factorization."""

    def __init__(self, message: str, lambda_min: float):
        super().__init__(message)
        self.lambda_min = lambda_min


@dataclass(frozen=True)
class NewtonConfig:
    mode: str = "exact"  # "exact" | "sketched"
    eps: float = 1e-6  # distance target when a reference optimum is known
    delta: float = 0.05  # failure budget, split uniformly across iterations
    eps0: float = 0.01  # sketch accuracy
    max_iters: int = 200
    seed: int = 0
    stationarity_tol: float = 1e-10
    damping: bool = False  # halve the step while loss_tot increases (<= 30 halvings)
    strict: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "sketched"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.eps <= 0 or self.max_iters < 0:
            raise ValueError("eps must be positive and max_iters nonnegative")
        if self.strict:
            if not (0.0 < self.eps < 0.1):
                raise ValueError("strict mode requires eps in (0, 0.1)")
            if not (0.0 < self.delta < 0.1):
                raise ValueError("strict mode requires delta in (0, 0.1)")
            if self.damping:
                raise ValueError("strict mode runs undamped steps")
        if not (0.0 < self.eps0 < 0.5):
            raise ValueError("eps0 must lie in (0, 0.5)")


@dataclass
class StepDiagnostics:
    sketch: SketchResult | None = None
    eps_end_to_end: float | None = None
    halvings: int = 0


def _spd_solve(H: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """H^-1 rhs for a d x d float64 H, bitwise ``cho_solve(cho_factor(H, lower=True), rhs)``.

    The same LAPACK calls without the wrappers' layers, and the same outcome
    for every input they reject: a non-finite H, then a failed factorization,
    then a non-finite rhs. The failed factorization raises
    NotPositiveDefiniteError with the least eigenvalue of H's symmetric part;
    the others raise the wrappers' ValueError. A factorization of a finite H
    that succeeds has a finite factor, so it needs no check.
    """
    if not np.isfinite(H).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(H, lower=True, clean=False)
    if info != 0:
        lam = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
        raise NotPositiveDefiniteError(f"{what} is not positive definite (lambda_min ~ {lam:.6g})", lam)
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    return dpotrs(c, rhs, lower=True)[0]


def _uphill(inst: ProblemInstance, x: np.ndarray, limit: float) -> bool:
    """True iff loss_tot(x) exceeds ``limit``; a point that overflows counts as uphill."""
    try:
        return eval_forward(inst, x).loss_tot > limit
    except EvaluationOverflowError:
        return True


def _step_seed(seed: int, t: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(t))).generate_state(1, np.uint64)[0])


def newton_step(
    inst: ProblemInstance,
    state: ModelState,
    grad_tot: np.ndarray,
    cfg: NewtonConfig,
    t: int = 0,
) -> tuple[np.ndarray, StepDiagnostics]:
    """One Newton step from an evaluated iterate; returns the new point and diagnostics.

    ``state`` is the forward pass at the iterate and ``grad_tot`` its total
    gradient, so the step evaluates nothing at the iterate itself: one
    ``hess_L`` call gives H_tot and, in sketched mode only, one
    ``kernel_diag`` call gives diag(B). A sketched step draws with the seed
    derived from (cfg.seed, t). A Hessian or a gradient with non-finite
    entries raises NotPositiveDefiniteError with lambda_min nan.
    """
    x_t = state.x
    hb = hess_L(state, inst)
    if not np.all(np.isfinite(hb.H_tot)):
        raise NotPositiveDefiniteError("the Hessian has non-finite entries", math.nan)
    if not np.all(np.isfinite(grad_tot)):
        raise NotPositiveDefiniteError("the gradient has non-finite entries", math.nan)
    sketch = None
    eps_e2e = None
    if cfg.mode == "exact":
        H = hb.H_tot
    else:
        dprime = kernel_diag(state, inst) + inst.w * inst.w
        if np.any(dprime <= 0.0):
            raise NotPositiveDefiniteError(
                "diagonal surrogate diag(B) + w^2 has nonpositive entries; raise w",
                float(dprime.min()),
            )
        sketch = subsample(
            inst.A1,
            dprime,
            cfg.eps0,
            cfg.delta / max(cfg.max_iters, 1),
            _step_seed(cfg.seed, t),
        )
        H = inst.A1.T @ (sketch.dtilde[:, None] * inst.A1)
        try:
            gen = scipy.linalg.eigh(0.5 * (H + H.T), 0.5 * (hb.H_tot + hb.H_tot.T), eigvals_only=True)
            eps_e2e = float(np.max(np.abs(gen - 1.0)))
        except np.linalg.LinAlgError:
            eps_e2e = math.inf
    delta_x = _spd_solve(H, grad_tot, "the Hessian" if cfg.mode == "exact" else "the sketched Hessian")
    x_next = x_t - delta_x
    halvings = 0
    if cfg.damping:
        # increases below rounding noise are not treated as uphill steps
        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(state.loss_tot))
        scale = 1.0
        while halvings < 30 and _uphill(inst, x_t - scale * delta_x, state.loss_tot + noise):
            scale *= 0.5
            halvings += 1
        x_next = x_t - scale * delta_x
    return x_next, StepDiagnostics(sketch=sketch, eps_end_to_end=eps_e2e, halvings=halvings)


@dataclass
class RunReport:
    status: str  # "converged" | "max_iters" | "diverged" | "error"
    iterates: list[np.ndarray]
    grad_norms: list[float]
    loss_tots: list[float]
    r_t: list[float] | None
    ratios: list[float] | None
    sketch_eps_per_iter: list[float | None]
    wall_times_ms: list[float]
    basin_certificate: dict[str, bool] = field(default_factory=dict)
    error_message: str | None = None

    @property
    def n_iters(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_x(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_grad_norm(self) -> float:
        """The last evaluated gradient norm; nan when the start point itself overflowed."""
        return self.grad_norms[-1] if self.grad_norms else math.nan

    def golden_json(self) -> dict:
        """The deterministic portion of the report (no wall-clock fields)."""
        return {
            "status": self.status,
            "n_iters": self.n_iters,
            "iterates": self.iterates,
            "grad_norms": self.grad_norms,
            "loss_tots": self.loss_tots,
            "r_t": self.r_t,
            "ratios": self.ratios,
            "sketch_eps_per_iter": self.sketch_eps_per_iter,
            "basin_certificate": self.basin_certificate,
            "error_message": self.error_message,
        }


def solve(
    inst: ProblemInstance,
    x0: np.ndarray,
    cfg: NewtonConfig,
    *,
    x_ref: np.ndarray | None = None,
) -> RunReport:
    """Iterate Newton steps to the distance or stationarity target.

    With a reference optimum, r_t and per-step contraction ratios are recorded
    and the run stops once r_t <= cfg.eps; without one it runs to the
    stationarity tolerance. Three consecutive doublings of r_t flag
    divergence. Sketched mode resamples each iteration with a fresh seed
    derived from (cfg.seed, t). A forward pass that overflows, or a Hessian
    that fails its factorization, ends the run with status "error" and the
    cause in ``error_message``.
    """
    x = np.asarray(x0, dtype=float)
    x0_norm = vector_norm(x)
    if x0_norm > inst.R:
        warnings.warn(f"||x0|| = {x0_norm:.4g} exceeds the norm budget R = {inst.R}", stacklevel=2)
    track_r = x_ref is not None
    report = RunReport(
        status="max_iters",
        iterates=[x.copy()],
        grad_norms=[],
        loss_tots=[],
        r_t=[] if track_r else None,
        ratios=[] if track_r else None,
        sketch_eps_per_iter=[],
        wall_times_ms=[],
    )

    def stop(status: str, message: str | None = None) -> RunReport:
        report.status = status
        report.error_message = message
        report.wall_times_ms.append((time.perf_counter() - t0) * 1e3)
        return report

    doublings = 0
    for t in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        try:
            state = eval_forward(inst, x)
        except EvaluationOverflowError as exc:
            return stop("error", str(exc))
        gb = grad(state, inst)
        # a norm past the float64 range is inf, which the tests below read as not converged
        gnorm = vector_norm(gb.grad_tot)
        with np.errstate(over="ignore"):
            r = vector_norm(x - x_ref) if track_r else math.nan
        report.grad_norms.append(gnorm)
        report.loss_tots.append(state.loss_tot)
        if track_r:
            report.r_t.append(r)
            if len(report.r_t) >= 2:
                prev = report.r_t[-2]
                report.ratios.append(r / prev if prev > 0 else 0.0)
                doublings = doublings + 1 if (prev > 0 and r >= 2.0 * prev) else 0
                if doublings >= 3:
                    return stop("diverged")
        if gnorm <= cfg.stationarity_tol or (track_r and report.r_t[-1] <= cfg.eps):
            return stop("converged")
        if t == cfg.max_iters:
            break
        try:
            x, diag = newton_step(inst, state, gb.grad_tot, cfg, t)
        except NotPositiveDefiniteError as exc:
            return stop("error", str(exc))
        report.iterates.append(x.copy())
        report.sketch_eps_per_iter.append(diag.eps_end_to_end)
        report.wall_times_ms.append((time.perf_counter() - t0) * 1e3)
    return stop("max_iters")


def basin_check(
    x0: np.ndarray,
    x_ref: np.ndarray,
    M: float | LogConstant,
    l: float,
) -> bool:
    """True iff M * ||x0 - x_ref||_2 <= 0.1 * l, compared in log space.

    The M from the analytic constants is astronomically large, so this
    certificate is typically false analytically and true with the measured
    Hessian-Lipschitz ratio; callers record both.
    """
    with np.errstate(over="ignore"):  # an overflowing distance is inf: no certificate
        r0 = vector_norm(np.asarray(x0, dtype=float) - np.asarray(x_ref, dtype=float))
    if r0 == 0.0:
        return True
    if l <= 0.0:
        return False
    log_M = M.log_value if isinstance(M, LogConstant) else (-math.inf if M == 0.0 else math.log(M))
    return log_M + math.log(r0) <= math.log(0.1 * l)
