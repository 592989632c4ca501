"""Two-layer softmax regression: closed-form derivatives, spectral bounds,
and an approximate (sketched) Newton solver with contraction monitoring.
"""

from .bounds import BoundReport, LogConstant, compute_constants, probe_empirical
from .derivatives import GradientBundle, eval_p, eval_Q2, grad
from .generate import gen_instance
from .hessian import HessianBundle, b_terms, hess_L, kernel, kernel_diag
from .model import (
    Activation,
    ModelState,
    ProblemInstance,
    activation_eval,
    eval_forward,
    instance_from_json,
    instance_to_json,
)
from .newton import NewtonConfig, RunReport, basin_check, newton_step, solve
from .oracle import fd_gradient, fd_hessian, spectral
from .sketch import SketchResult, leverage_scores, subsample, verify_sandwich

__all__ = [
    "Activation",
    "BoundReport",
    "GradientBundle",
    "HessianBundle",
    "LogConstant",
    "ModelState",
    "NewtonConfig",
    "ProblemInstance",
    "RunReport",
    "SketchResult",
    "activation_eval",
    "b_terms",
    "basin_check",
    "compute_constants",
    "eval_Q2",
    "eval_forward",
    "eval_p",
    "fd_gradient",
    "fd_hessian",
    "gen_instance",
    "grad",
    "hess_L",
    "instance_from_json",
    "instance_to_json",
    "kernel",
    "kernel_diag",
    "leverage_scores",
    "newton_step",
    "probe_empirical",
    "solve",
    "spectral",
    "subsample",
    "verify_sandwich",
]

__version__ = "0.1.0"
