"""Command-line harness: gen, run, verify, bounds.

Exit codes: 0 success/converged, 1 verification failure, 2 non-converged run
(max_iters, diverged, or runtime error), 3 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .derivatives import eval_p, eval_Q2, grad
from .generate import gen_instance
from .hessian import B_TERM_NAMES, b_terms, hess_L, hess_L_entries, kernel, kernel_diag
from .model import EvaluationOverflowError, ProblemInstance, _rng, eval_forward, instance_from_json, instance_to_json
from .newton import NewtonConfig, RunReport, basin_check, solve
from .oracle import FdConfig, ProbeEvaluationError, fd_gradient, fd_hessian
from .serialize import SCHEMA_VERSION, dump_path, dumps, load_path
from .sketch import subsample, verify_sandwich

EMIT_NAMES = ("report_json", "trace_csv", "bounds_json", "grad_json", "bterms_json")


class ConfigError(ValueError):
    pass


def _load_instance(path: str) -> ProblemInstance:
    try:
        return instance_from_json(load_path(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"instance file not found: {path}") from exc
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad instance file {path}: {exc}") from exc


def _build_x0(args, inst: ProblemInstance) -> np.ndarray:
    if args.x0 == "zero":
        return np.zeros(inst.d)
    if args.x0 == "gaussian":
        g = _rng(args.seed, stream=0xA11CE).standard_normal(inst.d)
        return args.x0_scale * g
    if args.x0 == "values":
        if not args.x0_values:
            raise ConfigError("x0 rule 'values' requires --x0-values")
        x0 = np.asarray([float(v) for v in args.x0_values.split(",")], dtype=float)
        if x0.shape != (inst.d,):
            raise ConfigError(f"x0 needs {inst.d} components, got {x0.size}")
        return x0
    if args.x0 == "stored":
        if not args.x0_path:
            raise ConfigError("x0 rule 'stored' requires --x0-path")
        try:
            doc = load_path(args.x0_path)
        except FileNotFoundError as exc:
            raise ConfigError(f"x0 file not found: {args.x0_path}") from exc
        if isinstance(doc, dict):
            if "x0" in doc:
                doc = doc["x0"]
            elif "golden" in doc and "iterates" in doc["golden"]:
                doc = doc["golden"]["iterates"][-1]
            else:
                raise ConfigError(f"{args.x0_path} holds neither 'x0' nor a run report")
        return np.asarray(doc, dtype=float)
    raise ConfigError(f"unknown x0 rule {args.x0!r}")


def cmd_gen(args) -> int:
    w = np.asarray([float(v) for v in args.w.split(",")], dtype=float) if args.w else None
    inst, x_plant = gen_instance(
        args.n,
        args.m,
        args.d,
        args.activation,
        args.seed,
        noise=args.noise,
        r_target=args.r_target,
        l_target=args.l_target,
        beta=args.beta,
        w=w,
    )
    doc = instance_to_json(inst)
    doc["x_plant"] = x_plant
    doc["gen_seed"] = args.seed
    dump_path(doc, args.out)
    print(f"wrote {args.out} (n={inst.n}, m={inst.m}, d={inst.d}, {inst.activation.kind})")
    return 0


def _reference_optimum(inst: ProblemInstance) -> np.ndarray:
    cfg = NewtonConfig(
        mode="exact",
        eps=1e-13,
        stationarity_tol=1e-13,
        max_iters=200,
        damping=True,
        strict=False,
    )
    rep = solve(inst, np.zeros(inst.d), cfg)
    if not rep.final_grad_norm <= 1e-10:
        cause = f"status {rep.status}" + (f": {rep.error_message}" if rep.error_message else "")
        raise ConfigError(f"reference solve stalled at gradient norm {rep.final_grad_norm:.3e}, {cause}")
    return rep.final_x


def _write_trace_csv(path, report: RunReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r_t", "ratio", "grad_norm", "eps_sketch", "millis"])
        n = len(report.grad_norms)
        for t in range(n):
            r = report.r_t[t] if report.r_t is not None else None
            ratio = (
                report.ratios[t - 1]
                if (report.ratios is not None and 1 <= t <= len(report.ratios))
                else None
            )
            epss = report.sketch_eps_per_iter[t] if t < len(report.sketch_eps_per_iter) else None
            ms = report.wall_times_ms[t] if t < len(report.wall_times_ms) else None
            fmt = lambda v: "" if v is None else repr(float(v))
            writer.writerow([t, fmt(r), fmt(ratio), fmt(report.grad_norms[t]), fmt(epss), fmt(ms)])


def cmd_run(args) -> int:
    cfg = NewtonConfig(
        mode=args.mode,
        eps=args.eps,
        delta=args.delta,
        eps0=args.eps0,
        max_iters=args.max_iters,
        seed=args.seed,
        stationarity_tol=args.stationarity_tol,
        damping=args.damping,
        strict=not args.no_strict,
    )
    emit = frozenset(args.emit.split(","))
    unknown = sorted(emit.difference(EMIT_NAMES))
    if unknown:
        raise ConfigError(f"unknown --emit names {unknown}; known: {', '.join(EMIT_NAMES)}")
    inst = _load_instance(args.instance)
    x0 = _build_x0(args, inst)
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {outdir}: {exc}") from exc

    x_ref = None if args.no_reference else _reference_optimum(inst)
    report = solve(inst, x0, cfg, x_ref=x_ref)
    bounds_report = None
    if "bounds_json" in emit:
        # the points the solver evaluated; an overflowing last iterate is left out
        pts = [np.asarray(p, dtype=float) for p in report.iterates[: len(report.grad_norms)]]
        if x_ref is not None:
            pts.append(x_ref)
        try:
            bounds_report = bounds_mod.probe_empirical(inst, pts)
        except bounds_mod.TooFewAdmissiblePointsError:
            pass  # no Lipschitz pair to measure: no bounds.json, no empirical certificate
    if x_ref is not None:
        l_ref = args.l_estimate
        if l_ref is None:
            l_ref = float(np.linalg.eigvalsh(hess_L(eval_forward(inst, x_ref), inst).H_tot)[0])
        report.basin_certificate = {
            "analytic": basin_check(x0, x_ref, M=bounds_mod.compute_constants(inst).M, l=l_ref)
        }
        if bounds_report is not None:
            report.basin_certificate["empirical"] = basin_check(
                x0, x_ref, M=bounds_report.M_empirical, l=l_ref
            )

    doc = {
        "schema_version": SCHEMA_VERSION,
        "golden": {
            "instance_path": args.instance,
            "x0": x0,
            "x_ref": x_ref,
            "config": {
                "mode": cfg.mode,
                "eps": cfg.eps,
                "delta": cfg.delta,
                "eps0": cfg.eps0,
                "max_iters": cfg.max_iters,
                "seed": cfg.seed,
                "stationarity_tol": cfg.stationarity_tol,
            },
            **report.golden_json(),
        },
        "timing": {
            "wall_times_ms": report.wall_times_ms,
            "written_at_unix": time.time(),
        },
    }
    if "report_json" in emit:
        dump_path(doc, outdir / "report.json")
    if "trace_csv" in emit:
        _write_trace_csv(outdir / "trace.csv", report)
    if "bounds_json" in emit and bounds_report is not None:
        dump_path(bounds_report.to_json(), outdir / "bounds.json")
    if len(report.grad_norms) < len(report.iterates):
        # the last iterate overflowed (status error): no gradient or kernel terms to write
        emit -= {"grad_json", "bterms_json"}
    if emit & {"grad_json", "bterms_json"}:
        st_fin = eval_forward(inst, report.final_x)
    if "grad_json" in emit:
        gdoc = {"schema_version": SCHEMA_VERSION, "x": report.final_x, "P": eval_p(st_fin, inst),
                "Q2": eval_Q2(st_fin, inst), "q2": st_fin.q2, **vars(grad(st_fin, inst))}
        dump_path(gdoc, outdir / "gradient.json")
    if "bterms_json" in emit:
        terms = b_terms(st_fin, inst)
        tdoc = {
            "schema_version": SCHEMA_VERSION,
            "x": report.final_x,
            "frobenius_norms": {
                name: float(np.linalg.norm(t)) for name, t in zip(B_TERM_NAMES, terms)
            },
        }
        dump_path(tdoc, outdir / "b_terms.json")
    print(f"status={report.status} iters={report.n_iters} grad={report.final_grad_norm:.3e}")
    return 0 if report.status == "converged" else 2


def _rel_err(value: np.ndarray, ref: np.ndarray) -> float:
    """||value - ref|| / ||ref|| over all entries; a norm whose squares overflow is rescaled, not inf."""
    return bounds_mod.vector_norm(value - ref) / max(bounds_mod.vector_norm(ref), 1e-30)


def _verify_checks(inst: ProblemInstance, seed: int, trials: int):
    """Yield (name, passed, margin, detail) over every invariant suite.

    The sample points are evaluated in one stacked call, and their gradients
    and Hessians in one stacked call each; only the finite-difference oracles
    evaluate the perturbed points around them, one stacked call per stencil.
    """
    rng = _rng(seed)
    d = inst.d
    xs = [0.35 * inst.R * rng.standard_normal(d) / math.sqrt(d) for _ in range(max(trials, 2))]
    states = eval_forward(inst, np.array(xs))
    grads = grad(states, inst)
    hbs = hess_L(states.rows(slice(10)), inst)

    dev_norm = max(abs(float(np.sum(np.abs(f))) - 1.0) for f in states.f)
    yield "softmax_normalization", dev_norm <= 1e-12, dev_norm, "max |1 - ||f||_1|"

    # the oracles pass each stencil as one (k, d) stack
    def loss_at(X):
        return eval_forward(inst, X).loss_tot

    def grad_at(X):
        return grad(eval_forward(inst, X), inst).grad_tot

    cfg2 = FdConfig()
    worst = max(_rel_err(g, fd_gradient(loss_at, x, cfg2)) for x, g in zip(xs, grads.grad_tot))
    yield "gradient_vs_finite_difference", worst <= 1e-6, worst, "relative l2 error"

    worst = max(_rel_err(H, fd_hessian(grad_at, x, cfg2)) for x, H in zip(xs, hbs.H_tot))
    yield "hessian_vs_finite_difference", worst <= 1e-5, worst, "relative Frobenius error"

    worst = 0.0
    scale = 1.0
    for r in range(min(5, len(xs))):
        # one point at a time: a kernel holds n^2 floats, and b_terms twelve more
        st, H_L = states.rows(r), hbs.H_L[r]
        B = kernel(st, inst)
        scale = max(scale, float(np.max(np.abs(H_L))))
        gaps = (
            H_L - hess_L_entries(st, inst),
            H_L - inst.A1.T @ B @ inst.A1,
            sum(b_terms(st, inst)) - B,
            kernel_diag(st, inst) - np.diag(B),
        )
        worst = max(worst, *(float(np.max(np.abs(gap))) for gap in gaps))
    yield "hessian_route_agreement", worst <= 1e-10 * scale, worst, "max elementwise gap"

    P = eval_p(states, inst)
    worst = max(
        float(np.linalg.norm(g - P[r].T @ states.q2[r])) for r, g in enumerate(grads.grad_L)
    )
    yield "gradient_chain_consistency", worst <= 1e-12, worst, "||grad_L - P^T q2||"

    rep = bounds_mod.probe_empirical(inst, xs)
    sound_keys = [k for k in rep.empirical if k.startswith("norm_")] + ["psd_bound", "M"]
    worst_t = max(rep.tightness[k] for k in sound_keys)
    yield "bound_soundness", worst_t <= 1.0, worst_t, "max tightness over norm/psd/Lipschitz bounds"
    lo, hi = rep.lambda_min_B, rep.lambda_max_B
    psd = rep.psd_bound
    ok = psd.holds(abs(lo)) and psd.holds(abs(hi))
    yield "psd_sandwich", ok, psd.tightness(max(abs(lo), abs(hi))), "kernel spectrum inside +-bound"

    dw = kernel_diag(eval_forward(inst, np.zeros(d)), inst) + inst.w**2
    if np.all(dw > 0):
        hits = 0
        n_seeds = 20
        for k in range(n_seeds):
            sk = subsample(inst.A1, dw, 0.3, 0.1, seed=seed + k)
            if verify_sandwich(inst.A1, dw, sk) <= 0.3:
                hits += 1
        frac = hits / n_seeds
        yield "sketch_sandwich_rate", frac >= 0.9, frac, f"fraction of {n_seeds} seeds within eps0"
        # fewer draws than rows, so both go through the leverage sampler
        draws = max(1, inst.n // 2)
        a = subsample(inst.A1, dw, 0.3, 0.1, seed=seed, num_draws=draws)
        b = subsample(inst.A1, dw, 0.3, 0.1, seed=seed, num_draws=draws)
        same = bool(
            np.array_equal(a.kept_indices, b.kept_indices) and np.array_equal(a.dtilde, b.dtilde)
        )
        yield "sketch_determinism", same, 0.0 if same else 1.0, "same seed, bit-identical result"


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    results = [
        {"name": name, "passed": bool(passed), "margin": float(margin), "detail": detail}
        for name, passed, margin, detail in _verify_checks(inst, args.seed, args.trials)
    ]
    all_passed = all(r["passed"] for r in results)
    doc = {"schema_version": SCHEMA_VERSION, "all_passed": all_passed, "checks": results}
    if args.out:
        dump_path(doc, args.out)
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']}: {r['detail']} = {r['margin']:.3e}")
    if not all_passed:
        failing = ", ".join(r["name"] for r in results if not r["passed"])
        print(f"failing invariants: {failing}", file=sys.stderr)
    return 0 if all_passed else 1


def cmd_bounds(args) -> int:
    inst = _load_instance(args.instance)
    rng = _rng(args.seed)
    pts = []
    for _ in range(args.probes):
        g = rng.standard_normal(inst.d)
        g *= rng.uniform(0.1, 0.9) * inst.R / max(float(np.linalg.norm(g)), 1e-300)
        pts.append(g)
    rep = bounds_mod.probe_empirical(inst, pts)
    if args.out:
        dump_path(rep.to_json(), args.out)
    print(f"R_used={rep.R_used:.6g} beta_used={rep.beta_used:.6g} admissible={rep.n_admissible} excluded={rep.n_excluded}")
    print(f"{'quantity':<14} {'bound':>14} {'measured':>13} {'tightness':>11}")
    for key in sorted(rep.empirical):
        if key not in rep.analytic:
            continue
        m, e = rep.analytic[key].mantissa_exp10()
        bound = f"{m:.3f}e{e:+d}" if math.isfinite(m) else "inf"
        print(f"{key:<14} {bound:>14} {rep.empirical[key]:>13.4e} {rep.tightness[key]:>11.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="softnewt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random problem instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--activation", default="tanh")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--r-target", type=float, default=1.5)
    g.add_argument("--l-target", type=float, default=1.0)
    g.add_argument("--beta", type=float, default=0.05)
    g.add_argument("--w", default=None, help="comma-separated ridge weights (default: recipe)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the Newton solver on an instance")
    r.add_argument("--instance", required=True)
    r.add_argument("--mode", choices=["exact", "sketched"], default="exact")
    r.add_argument("--x0", choices=["zero", "gaussian", "stored", "values"], default="zero")
    r.add_argument("--x0-scale", type=float, default=0.1)
    r.add_argument("--x0-values", default=None, help="comma-separated coordinates")
    r.add_argument("--x0-path", default=None)
    r.add_argument("--eps", type=float, default=1e-6)
    r.add_argument("--delta", type=float, default=0.05)
    r.add_argument("--eps0", type=float, default=0.01)
    r.add_argument("--max-iters", type=int, default=200)
    r.add_argument("--l-estimate", type=float, default=None,
                   help="strong-convexity floor for the basin certificate (default: measured)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--stationarity-tol", type=float, default=1e-10)
    r.add_argument("--damping", action="store_true")
    r.add_argument("--no-strict", action="store_true", help="lift the eps/delta < 0.1 restriction")
    r.add_argument("--no-reference", action="store_true", help="skip the preliminary exact solve")
    r.add_argument("--out-dir", default=".")
    r.add_argument(
        "--emit",
        default="report_json",
        help=f"comma set from {','.join(EMIT_NAMES)}",
    )
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run every invariant suite against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="analytic constants and empirical tightness table")
    b.add_argument("--instance", required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--probes", type=int, default=20)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bounds)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(dumps({"error": "configuration", "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    except (EvaluationOverflowError, ProbeEvaluationError) as exc:
        print(dumps({"error": "runtime", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
