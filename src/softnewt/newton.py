"""Newton iteration with exact or sketched Hessian, plus basin machinery.

The update is x_{t+1} = x_t - Ht^{-1} grad(loss_tot), the only sign consistent
with descent to a minimizer, and the gradient includes the ridge term so the
fixed point is a stationary point of the objective the Hessian belongs to.

Sketched mode subsamples the positive diagonal surrogate
D' = diag_part(B(x_t)) + w o w (the subsampling contract requires a positive
diagonal, which the full kernel is not); the end-to-end spectral deviation of
the resulting Ht from the true total Hessian is measured every iteration by
``sketch._deviation``, from the generalized spectrum of the pair (Ht, H_tot)
read by LAPACK ``dsygvd`` directly; a pair it cannot read measures inf.
A step's sketch comes from ``sketch.surrogate_sketch``, the package's one
sampling policy: rows drawn from one distribution per instance, the floored
leverage of diag(w) A1 (``ProblemInstance.ridge_distribution``), at
(1 + kappa)/(1 - kappa) times the count of exact-leverage draws
(``sketch.sample_count``), kappa = max_i |diag(B)_i| / w_i^2; at kappa >= 1
(any w_i = 0 gives inf), or when the count reaches n, the exact fallback
Dt = D'.

Each iterate is evaluated once: ``solve`` computes its forward pass and
gradient, and ``newton_step`` takes both and adds a single ``hess_L`` call,
which gives H_tot from the m x d product G = (A2 J) A1 without forming A2 J.
Only a sketched step forms an m x n factor of B, in its one ``kernel_diag`` call.
The d x d system is factored by LAPACK's Cholesky (``dpotrf``/``dpotrs``, the
routines ``scipy.linalg.cho_factor``/``cho_solve`` call) without the wrappers'
checks: ``newton_step`` checks once that every matrix it factors is finite.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .bounds import LogConstant, vector_norm
from .derivatives import grad
from .hessian import hess_L, kernel_diag
from .model import EvaluationOverflowError, ModelState, ProblemInstance, ShapeError, _check_seed, eval_forward
from .serialize import SCHEMA_VERSION
from .sketch import SketchResult, _deviation, _symmetric_part, sample_count, surrogate_sketch

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
    eps: float = 1e-6  # distance target when a reference optimum is known; finite, > 0 ((0, 0.1) if strict)
    delta: float = 0.05  # failure budget, split uniformly across iterations; in (0, 1) ((0, 0.1) if strict)
    eps0: float = 0.01  # sketch accuracy, in (0, 0.5)
    max_iters: int = 200
    seed: int = 0
    stationarity_tol: float = 1e-10  # finite, >= 0
    damping: bool = False  # halve the step while loss_tot increases (<= 30 halvings)
    strict: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "sketched"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # written so that a nan fails every range test
        if not 0.0 < self.eps < math.inf or self.max_iters < 0:
            raise ValueError("eps must be positive and finite, and max_iters nonnegative")
        if not 0.0 <= self.stationarity_tol < math.inf:
            raise ValueError("stationarity_tol must be nonnegative and finite")
        if self.strict:
            if not (0.0 < self.eps < 0.1):
                raise ValueError("strict mode requires eps in (0, 0.1)")
            if not (0.0 < self.delta < 0.1):
                raise ValueError("strict mode requires delta in (0, 0.1)")
            if self.damping:
                raise ValueError("strict mode runs undamped steps")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (0.0 < self.eps0 < 0.5):
            raise ValueError("eps0 must lie in (0, 0.5)")
        _check_seed(self.seed)


@dataclass
class StepDiagnostics:
    sketch: SketchResult | None = None
    eps_end_to_end: float | None = None
    halvings: int = 0


def _spd_solve(H: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """H^-1 rhs for a finite d x d float64 H and a finite rhs, bitwise ``cho_solve(cho_factor(H, lower=True), rhs)``.

    The same LAPACK calls without the wrappers' layers or their finiteness
    checks, which the caller makes. A failed factorization raises
    NotPositiveDefiniteError naming its leading minor, with the least eigenvalue
    of H's symmetric part (positive after rounding where kappa(H) passes 1/u).
    """
    c, info = dpotrf(H, lower=True, clean=False)
    if info != 0:
        lam = float(np.linalg.eigvalsh(_symmetric_part(H))[0])
        why = f"Cholesky failed at leading minor {info} (lambda_min ~ {lam:.6g})"
        raise NotPositiveDefiniteError(f"{what} is not numerically positive definite: {why}", lam)
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
    ``kernel_diag`` call gives diag(B). A sketched step takes
    ``surrogate_sketch`` at the count for cfg.eps0 and the per-step delta,
    with the seed derived from (cfg.seed, t) (module docstring). A Hessian,
    a sketched Hessian or a gradient with non-finite entries raises
    NotPositiveDefiniteError with lambda_min nan.
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
        kdiag = kernel_diag(state, inst)
        dprime = kdiag + inst.w * inst.w
        if np.any(dprime <= 0.0):
            raise NotPositiveDefiniteError(
                "diagonal surrogate diag(B) + w^2 has nonpositive entries; raise w",
                float(dprime.min()),
            )
        count = functools.partial(sample_count, inst.n, inst.d, cfg.eps0, cfg.delta / max(cfg.max_iters, 1))
        sketch = surrogate_sketch(inst, kdiag, count, _step_seed(cfg.seed, t))
        with np.errstate(over="ignore", invalid="ignore"):  # a drawn weight w_i^2 / (s p_i) may pass float64
            H = inst.A1.T @ (sketch.dtilde[:, None] * inst.A1)
        if not np.all(np.isfinite(H)):
            raise NotPositiveDefiniteError("the sketched Hessian has non-finite entries", math.nan)
        eps_e2e = _deviation(H, hb.H_tot)
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
    sketch_draws_per_iter: list[int | None]  # rows a step drew: 0 for the exact fallback, None in exact mode
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

    def to_json(self, cfg: NewtonConfig, instance_path: str, x_ref: np.ndarray | None) -> dict:
        """The report document of a run from ``iterates[0]`` under ``cfg``.

        Every field but the wall times goes in the deterministic ``golden``
        block, with ``n_iters``, the start point, the reference optimum, the
        config and the instance path; the wall times go in ``timing``.
        """
        golden = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_times_ms"}
        golden.update(n_iters=self.n_iters, x0=self.iterates[0], x_ref=x_ref, config=asdict(cfg),
                      instance_path=instance_path)
        return {
            "schema_version": SCHEMA_VERSION,
            "golden": golden,
            "timing": {"wall_times_ms": self.wall_times_ms, "written_at_unix": time.time()},
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
    cause in ``error_message``. An x0 other than a length-d vector raises ShapeError.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (inst.d,):
        raise ShapeError(f"x0 must be a vector of length {inst.d}, got shape {x.shape}")
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
        sketch_draws_per_iter=[],
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
        sk = diag.sketch
        report.sketch_draws_per_iter.append(None if sk is None else 0 if sk.exact else len(sk.kept_indices))
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
