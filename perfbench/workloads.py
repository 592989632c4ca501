"""The benchmark's workloads: instance set-up, one operation, and its check.

Every call into softnewt goes through a module attribute looked up at call
time (``sn.solve``, ``cli.main``), so the tracer's wrapped bindings are used.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

M = 16
ACTIVATION = "tanh"
NOISE = 0.05
X0_SCALE = 0.3
EPS = 1e-8
PROBES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    reference: str  # the reference loop that op times are measured against (reference.py)
    solve_kwargs: dict | None = None  # None: the op is a CLI session


WORKLOADS = {
    w.name: w
    for w in (
        # One exact solve: the O(n^3) kernel assembly in hessian is nearly all
        # the work, and no sketch, bounds or oracle function is called.
        Workload("exact-n1600", 1600, 8, "gemm", {"mode": "exact"}),
        # The smallest desk shape whose sample count (1034 at these settings)
        # is below n, so every sketched step draws rows instead of falling back.
        Workload("sketched-n1200", 1200, 2, "gemm", {"mode": "sketched", "eps0": 0.45, "max_iters": 20}),
        # run, verify and bounds in process: thousands of small calls, bounds,
        # oracle and model dominate, and serialize both reads and writes.
        Workload("cli-n64", 64, 8, "python"),
    )
}


def op_seed(seed: int, index: int) -> int:
    """The seed of operation ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def reference_config(sn):
    """The CLI's reference-optimum recipe: damped exact Newton to 1e-13."""
    return sn.NewtonConfig(mode="exact", eps=1e-13, stationarity_tol=1e-13, max_iters=200, damping=True, strict=False)


def set_up(sn, wl: Workload, seed: int, workdir: Path) -> float:
    """Generate, write and reload the instance, then find its optimum; returns seconds.

    Leaves ``instance.json`` and ``reference.json`` in ``workdir``.
    """
    from softnewt import model, serialize

    inst_path = workdir / "instance.json"
    t0 = time.perf_counter()
    inst, _ = sn.gen_instance(wl.n, M, wl.d, ACTIVATION, seed, noise=NOISE)
    serialize.dump_path(model.instance_to_json(inst), inst_path)
    inst = model.instance_from_json(serialize.load_path(inst_path))
    ref = sn.solve(inst, np.zeros(wl.d), reference_config(sn))
    elapsed = time.perf_counter() - t0
    if ref.final_grad_norm > 1e-10:
        raise RuntimeError(f"reference solve stalled at gradient norm {ref.final_grad_norm:.3e}")
    serialize.dump_path({"x_ref": ref.final_x}, workdir / "reference.json")
    return elapsed


@dataclass
class Context:
    sn: object
    wl: Workload
    workdir: Path
    inst: object
    x_ref: np.ndarray

    @property
    def inst_path(self) -> Path:
        return self.workdir / "instance.json"


def load(sn, wl: Workload, workdir: Path) -> Context:
    from softnewt import model, serialize

    inst = model.instance_from_json(serialize.load_path(workdir / "instance.json"))
    x_ref = np.asarray(serialize.load_path(workdir / "reference.json")["x_ref"], dtype=float)
    return Context(sn, wl, workdir, inst, x_ref)


def run_op(ctx: Context, index: int, seed: int, span=contextlib.nullcontext) -> tuple[dict[str, float], str | None]:
    """Run operation ``index`` inside ``span()``, then check its outputs outside it.

    Returns the phase times and a failure message, or None when the op passed.
    """
    s = op_seed(seed, index)
    if ctx.wl.solve_kwargs is None:
        return _cli_op(ctx, s, span)
    return _solve_op(ctx, s, span)


def _solve_op(ctx: Context, s: int, span):
    sn = ctx.sn
    x0 = X0_SCALE * np.random.Generator(np.random.Philox(key=s)).standard_normal(ctx.wl.d)
    cfg = sn.NewtonConfig(eps=EPS, seed=s, **ctx.wl.solve_kwargs)
    with span():
        t0 = time.perf_counter()
        rep = sn.solve(ctx.inst, x0, cfg, x_ref=ctx.x_ref)
        phases = {"solve": time.perf_counter() - t0}
    if rep.status != "converged":
        return phases, f"solve status {rep.status!r} after {rep.n_iters} iterations"
    if not rep.r_t[-1] <= EPS:
        return phases, f"final r_t {rep.r_t[-1]:.3e} > eps {EPS:g}"
    return phases, None


def _cli_op(ctx: Context, s: int, span):
    from softnewt import cli, serialize

    out = ctx.workdir / "out"
    inst = str(ctx.inst_path)
    sessions = {
        "run": [
            "run", "--instance", inst, "--x0", "gaussian", "--x0-scale", str(X0_SCALE), "--eps", str(EPS),
            "--seed", str(s), "--out-dir", str(out), "--emit", "report_json,trace_csv,bounds_json",
        ],
        "verify": ["verify", "--instance", inst, "--seed", str(s), "--trials", "20", "--out", str(out / "verify.json")],
        "bounds": [
            "bounds", "--instance", inst, "--seed", str(s), "--probes", str(PROBES), "--out", str(out / "bounds_table.json"),
        ],
    }
    phases, codes = {}, {}
    sink = io.StringIO()
    with span(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for phase, argv in sessions.items():
            t0 = time.perf_counter()
            codes[phase] = cli.main(argv)
            phases[phase] = time.perf_counter() - t0
            if codes[phase] != 0:
                break
    for phase, code in codes.items():
        if code != 0:
            return phases, f"{phase} exited {code}: {sink.getvalue().strip()[-300:]}"

    golden = serialize.load_path(out / "report.json")["golden"]
    if golden["status"] != "converged" or not golden["r_t"][-1] <= EPS:
        return phases, f"run report status {golden['status']!r}, final r_t {golden['r_t'][-1]:.3e}"
    gap = float(np.max(np.abs(np.asarray(golden["x_ref"]) - ctx.x_ref)))
    if gap > 1e-10:
        return phases, f"run reference optimum differs from the set-up one by {gap:.3e}"
    if not (out / "trace.csv").is_file() or not (out / "bounds.json").is_file():
        return phases, "run did not write trace.csv and bounds.json"
    verify = serialize.load_path(out / "verify.json")
    if verify["all_passed"] is not True:
        failing = [c["name"] for c in verify["checks"] if not c["passed"]]
        return phases, f"verify failed: {failing}"
    table = serialize.load_path(out / "bounds_table.json")
    if table["n_admissible"] + table["n_excluded"] != PROBES or table["n_admissible"] < 2:
        return phases, f"bounds probed {table['n_admissible']} admissible of {PROBES} points"
    return phases, None
