"""Command-line harness: gen, run, verify, bounds.

Exit codes: 0 success/converged, 1 verification failure, 2 non-converged run
(max_iters, diverged, or runtime error) or a runtime error in verify or bounds,
3 configuration error, a usage error on the command line included. A reader
that closes stdout early changes no exit code: the command writes its files,
drops the rest of stdout and exits as its results give.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .derivatives import eval_p, eval_Q2, grad
from .generate import gen_instance
from .hessian import B_TERM_NAMES, b_terms, hess_L, hess_L_entries, kernel, kernel_diag
from .model import EvaluationOverflowError, ProblemInstance, _chunks, _rng, eval_forward, instance_from_json, instance_to_json
from .newton import NewtonConfig, RunReport, _step_seed, basin_check, solve
from .oracle import ProbeEvaluationError, fd_gradient, fd_hessian
from .serialize import SCHEMA_VERSION, dump_path, dumps, load_path
from .sketch import sample_count, surrogate_sketch, verify_sandwich

EMIT_NAMES = ("report_json", "trace_csv", "bounds_json", "grad_json", "bterms_json")

# verify's sandwich-rate check draws the sketches of a solver's steps t < RATE_SEEDS
RATE_SEEDS = 20

# the probe entries verify's bound_soundness check reads, and that its probe measures; psd_bound
# also gives the kernel spectrum that the psd_sandwich check reads
SOUND_KEYS = ("norm_f", "norm_c", "norm_Q2", "norm_q2", "norm_p", "psd_bound", "M")


class ConfigError(ValueError):
    pass


def _say(line: str) -> None:
    """Print a line to stdout; once a reader has closed it, the line and the rest are dropped.

    A closed stdout is no failure of the command: stdout is pointed at
    ``os.devnull``, Python's documented recipe, so neither a later print nor
    the flush at exit raises again.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_instance(path: str) -> ProblemInstance:
    try:
        return instance_from_json(load_path(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"instance file not found: {path}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: JSON of the wrong structure
        raise ConfigError(f"bad instance file {path}: {exc}") from exc


def _floats(text: str) -> np.ndarray:
    """A comma-separated list of numbers, as ``--w`` and ``--x0-values`` take them."""
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _build_x0(args, inst: ProblemInstance, seed: int) -> np.ndarray:
    """The start point by ``--x0`` rule; every rule must give a length-d vector."""
    if args.x0 == "zero":
        x0 = np.zeros(inst.d)
    elif args.x0 == "gaussian":
        x0 = args.x0_scale * _rng(seed, stream=0xA11CE).standard_normal(inst.d)
    elif args.x0 == "values":
        if args.x0_values is None:
            raise ConfigError("x0 rule 'values' requires --x0-values")
        x0 = args.x0_values
    else:  # "stored"; argparse's choices admit no other rule
        if not args.x0_path:
            raise ConfigError("x0 rule 'stored' requires --x0-path")
        try:
            doc = load_path(args.x0_path)
            if isinstance(doc, dict):
                doc = doc["x0"] if "x0" in doc else doc["golden"]["iterates"][-1]
            x0 = np.asarray(doc, dtype=float)
        except FileNotFoundError as exc:
            raise ConfigError(f"x0 file not found: {args.x0_path}") from exc
        except KeyError as exc:
            raise ConfigError(f"{args.x0_path} holds neither 'x0' nor a run report") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad x0 file {args.x0_path}: {exc}") from exc
    if x0.shape != (inst.d,):
        raise ConfigError(f"x0 needs {inst.d} components, got an array of shape {x0.shape}")
    return x0


def cmd_gen(args) -> int:
    params = inspect.signature(gen_instance).parameters
    inst, x_plant = gen_instance(**{k: v for k, v in vars(args).items() if k in params})
    doc = instance_to_json(inst)
    doc["x_plant"] = x_plant
    doc["gen_seed"] = args.seed
    dump_path(doc, args.out)
    _say(f"wrote {args.out} (n={inst.n}, m={inst.m}, d={inst.d}, {inst.activation.kind})")
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
    fmt = lambda v: "" if v is None else repr(float(v))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r_t", "ratio", "grad_norm", "eps_sketch", "millis"])
        # every evaluated iterate has a wall time, and one ratio from t = 1 when r_t is tracked
        for t, gnorm in enumerate(report.grad_norms):
            r = report.r_t[t] if report.r_t is not None else None
            ratio = report.ratios[t - 1] if report.ratios is not None and t >= 1 else None
            epss = report.sketch_eps_per_iter[t] if t < len(report.sketch_eps_per_iter) else None
            writer.writerow([t, fmt(r), fmt(ratio), fmt(gnorm), fmt(epss), fmt(report.wall_times_ms[t])])


def cmd_run(args) -> int:
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(NewtonConfig) if hasattr(args, f.name)}
    cfg = NewtonConfig(**given, strict=not args.no_strict)
    emit = frozenset(args.emit.split(","))
    unknown = sorted(emit.difference(EMIT_NAMES))
    if unknown:
        raise ConfigError(f"unknown --emit names {unknown}; known: {', '.join(EMIT_NAMES)}")
    inst = _load_instance(args.instance)
    x0 = _build_x0(args, inst, cfg.seed)
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
        l_ref = float(np.linalg.eigvalsh(hess_L(eval_forward(inst, x_ref), inst).H_tot)[0])
        report.basin_certificate = {
            "analytic": basin_check(x0, x_ref, M=bounds_mod.compute_constants(inst).analytic["M"], l=l_ref)
        }
        if bounds_report is not None:
            report.basin_certificate["empirical"] = basin_check(
                x0, x_ref, M=bounds_report.empirical["M"], l=l_ref
            )

    if "report_json" in emit:
        dump_path(report.to_json(cfg, args.instance, x_ref), outdir / "report.json")
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
            "frobenius_norms": {name: bounds_mod.vector_norm(t) for name, t in zip(B_TERM_NAMES, terms)},
        }
        dump_path(tdoc, outdir / "b_terms.json")
    _say(f"status={report.status} iters={report.n_iters} grad={report.final_grad_norm:.3e}")
    return 0 if report.status == "converged" else 2


def _rel_err(value: np.ndarray, ref: np.ndarray) -> float:
    """||value - ref|| / ||ref|| over all entries; a norm whose squares overflow is rescaled, not inf."""
    return bounds_mod.vector_norm(value - ref) / max(bounds_mod.vector_norm(ref), 1e-30)


def _verify_checks(inst: ProblemInstance, seed: int, trials: int):
    """Yield (name, passed, margin, detail) over every invariant suite.

    The sample points are evaluated in one stacked call, and their gradients
    and Hessians in one stacked call each; only the finite-difference oracles
    evaluate the perturbed points around them, in one stacked call per check
    that holds every point's stencil.
    """
    rng = _rng(seed)
    d = inst.d
    xs = [0.35 * inst.R * rng.standard_normal(d) / math.sqrt(d) for _ in range(max(trials, 2))]
    X = np.array(xs)
    states = eval_forward(inst, X)
    grads = grad(states, inst)
    hbs = hess_L(states.rows(slice(10)), inst)

    dev_norm = max(abs(float(np.sum(np.abs(f))) - 1.0) for f in states.f)
    yield "softmax_normalization", dev_norm <= 1e-12, dev_norm, "max |1 - ||f||_1|"

    # the oracles pass every point's stencil in one (k, d) stack; it is evaluated in chunks
    # of rows whose n-length arrays take at most _CHUNK_BYTES, keeping only what is read
    def stencil(read):
        def at(S):
            return np.concatenate([read(eval_forward(inst, S[c])) for c in _chunks(len(S), 8 * inst.n)])

        return at

    loss_at = stencil(lambda st: st.loss_tot)
    grad_at = stencil(lambda st: grad(st, inst).grad_tot)

    fd = fd_gradient(loss_at, X)
    worst = max(_rel_err(g, g_fd) for g, g_fd in zip(grads.grad_tot, fd))
    yield "gradient_vs_finite_difference", worst <= 1e-6, worst, "relative l2 error"

    fd = fd_hessian(grad_at, X[:10])
    worst = max(_rel_err(H, H_fd) for H, H_fd in zip(hbs.H_tot, fd))
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

    rep = bounds_mod.probe_empirical(inst, xs, keys=SOUND_KEYS)
    worst_t = max(rep.tightness[k] for k in SOUND_KEYS)
    yield "bound_soundness", worst_t <= 1.0, worst_t, "max tightness over norm/psd/Lipschitz bounds"
    lo, hi = rep.lambda_min_B, rep.lambda_max_B
    psd = rep.analytic["psd_bound"]
    ok = psd.holds(abs(lo)) and psd.holds(abs(hi))
    yield "psd_sandwich", ok, psd.tightness(max(abs(lo), abs(hi))), "kernel spectrum inside +-bound"

    yield from _sketch_checks(inst, seed)


def _sketch_checks(inst: ProblemInstance, seed: int):
    """Yield verify's two sketch checks, which draw by the solver's route, ``surrogate_sketch``, at x = 0.

    The rate check draws at the seeds a solver with ``seed`` draws its steps
    t < RATE_SEEDS at, ``_step_seed(seed, t)``. A surrogate D' with an entry
    <= 0 fails both, as it ends a sketched run.
    """
    kdiag = kernel_diag(eval_forward(inst, np.zeros(inst.d)), inst)
    dw = kdiag + inst.w**2
    if not np.all(dw > 0):
        why = "diagonal surrogate diag(B) + w^2 at x = 0 has nonpositive entries; least entry"
        least = float(np.min(dw))
        yield "sketch_sandwich_rate", False, least, why
        yield "sketch_determinism", False, least, why
        return
    count = functools.partial(sample_count, inst.n, inst.d, 0.3, 0.1)
    hits = 0
    for k in range(RATE_SEEDS):
        sk = surrogate_sketch(inst, kdiag, count, _step_seed(seed, k))
        hit = verify_sandwich(inst.A1, dw, sk) <= 0.3
        if sk.exact:
            # the fallback Dt = D draws nothing, so every seed reaches this verdict
            hits = RATE_SEEDS * hit
            break
        hits += hit
    frac = hits / RATE_SEEDS
    yield "sketch_sandwich_rate", frac >= 0.9, frac, f"fraction of {RATE_SEEDS} seeds within eps0"
    # fewer draws than rows, so both go through the sampler unless kappa >= 1 takes the fallback
    half = lambda kappa: max(1, inst.n // 2)
    a, b = (surrogate_sketch(inst, kdiag, half, seed) for _ in range(2))
    same = bool(np.array_equal(a.kept_indices, b.kept_indices) and np.array_equal(a.dtilde, b.dtilde))
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
        _say(f"[{status}] {r['name']}: {r['detail']} = {r['margin']:.3e}")
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
    _say(f"R_used={rep.R_used:.6g} beta_used={rep.beta_used:.6g} admissible={rep.n_admissible} excluded={rep.n_excluded}")
    _say(f"{'quantity':<14} {'bound':>14} {'measured':>13} {'tightness':>11}")
    for key in sorted(rep.empirical):
        m, e = rep.analytic[key].mantissa_exp10()
        bound = f"{m:.3f}e{e:+d}" if math.isfinite(m) else "inf"
        _say(f"{key:<14} {bound:>14} {rep.empirical[key]:>13.4e} {rep.tightness[key]:>11.3e}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="softnewt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random problem instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--activation", default="tanh")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    # an option left off is not passed: gen_instance's own default applies
    recipe = g.add_argument_group("generator options (defaults: gen_instance)", argument_default=argparse.SUPPRESS)
    recipe.add_argument("--noise", type=float)
    recipe.add_argument("--r-target", type=float)
    recipe.add_argument("--l-target", type=float)
    recipe.add_argument("--beta", type=float)
    recipe.add_argument("--w", type=_floats, help="comma-separated ridge weights (default: recipe)")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the Newton solver on an instance")
    r.add_argument("--instance", required=True)
    r.add_argument("--x0", choices=["zero", "gaussian", "stored", "values"], default="zero")
    r.add_argument("--x0-scale", type=float, default=0.1)
    r.add_argument("--x0-values", type=_floats, help="comma-separated coordinates")
    r.add_argument("--x0-path")
    # an option left off is not passed: NewtonConfig's own default applies
    solver = r.add_argument_group("solver options (defaults: NewtonConfig)", argument_default=argparse.SUPPRESS)
    solver.add_argument("--mode", choices=["exact", "sketched"])
    solver.add_argument("--eps", type=float)
    solver.add_argument("--delta", type=float)
    solver.add_argument("--eps0", type=float)
    solver.add_argument("--max-iters", type=int)
    solver.add_argument("--seed", type=int)
    solver.add_argument("--stationarity-tol", type=float)
    solver.add_argument("--damping", action="store_true")
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
    try:
        args = _parser().parse_args(argv)
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
