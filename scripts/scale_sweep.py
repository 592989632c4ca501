#!/usr/bin/env python3
"""Time each layer of softnewt at fixed shapes and write ``BENCH_scale.json``.

    python scripts/scale_sweep.py --label change
    python scripts/scale_sweep.py --label parent --out /path/to/BENCH_scale.json
    python scripts/scale_sweep.py --label change --layers probe_empirical,verify

The script times the package of the checkout it lives in (``src/``), with
BLAS pinned to one thread. For each shape in ``SHAPES`` and each layer it
records the best-of-3 time of one call, that time divided by the best-of-3
time of one call of perfbench's reference gemm loop (``perfbench/reference.py``)
taken right after it, so that host drift cancels, and the ``tracemalloc``
peak of one call. The dense layers (``DENSE_LAYERS``: the n x n kernel and
its spectrum, the per-entry Hessian, the empirical probe and ``verify``'s
checks) run only at n <= ``DENSE_MAX_N``. ``--layers`` names the layers to
time (all by default), and a shape where none of them runs is skipped
without building its instance. Each invocation appends one run under ``runs[label]``
with perfbench's environment header and keeps every other run in the file,
so running a copy of this script from a checkout of the parent commit with
``--label parent`` and the same ``--out``, alternating with ``--label
change``, records both sides' runs. ``summary``
then holds, per label, layer and shape, the median, lowest and highest
relative time over that label's runs.
"""


from __future__ import annotations

import argparse
import math
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from common import environment, import_softnewt, pin_blas  # noqa: E402

pin_blas()

import numpy as np  # noqa: E402
from reference import gemm_loop  # noqa: E402

# (n, m, d)
SHAPES = ((64, 16, 8), (1600, 16, 8), (10_000, 16, 8), (100_000, 16, 8), (100_000, 16, 64), (1_000_000, 16, 8))
# the layers that form dense n x n kernels, and the per-entry Hessian oracle, run only up to this n
DENSE_LAYERS = ("kernel+spectral", "hess_L_entries", "probe_empirical", "verify")
DENSE_MAX_N = 1600
REPEATS = 3
MIN_REPEAT_S = 0.02  # a repeat runs the call enough times to take at least this long
PROBES = 20


def best_call_s(fn) -> float:
    """Best of ``REPEATS`` per-call times, each over enough calls to last ``MIN_REPEAT_S``."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= MIN_REPEAT_S or number >= 1 << 16:
            break
        number *= 2
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def peak_bytes(fn) -> int:
    """The ``tracemalloc`` peak of one call, above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def layers(sn, n: int, m: int, d: int) -> dict:
    """Each layer's call at one shape, on a seeded instance, start point and probe set.

    The start point is a seeded Gaussian scaled by 0.3 sqrt(8 / d), so its
    norm stays near 0.85 at every d. ``exact_step`` and ``sketched_step`` each
    take one ``newton_step`` from it, so a row pair reads the per-iteration
    cost of the two modes; the sketched step draws fewer rows than n from
    n = 10^4 up and takes the exact fallback below. Its instance forms its
    row distribution on the warm-up call and keeps it, so
    ``ridge_distribution`` times that one-time cost on its own. ``verify``
    runs every check of ``softnewt verify --trials 20 --seed 1`` and consumes
    them, as the command does.

    The caller leaves out ``DENSE_LAYERS`` above ``DENSE_MAX_N``.
    """
    from softnewt import cli, hessian, newton, sketch

    inst, _ = sn.gen_instance(n, m, d, "tanh", 1, noise=0.05)
    rng = np.random.Generator(np.random.Philox(key=1))
    # scaled so that ||x0|| ~ 0.3 sqrt(8) at every d, inside the norm budget R = 1.5
    x0 = 0.3 * math.sqrt(8 / d) * rng.standard_normal(d)
    probes = [g * rng.uniform(0.1, 0.9) * inst.R / np.linalg.norm(g) for g in rng.standard_normal((PROBES, d))]
    st = sn.eval_forward(inst, x0)
    hb = sn.hess_L(st, inst)
    g = sn.grad(st, inst).grad_tot
    dw = sn.kernel_diag(st, inst) + inst.w**2
    # fewer draws than rows, so the sampler runs at every shape (the formula's count exceeds n here)
    draws = max(1, n // 2)
    sk = sketch.subsample(dw, sketch.sampling_distribution(inst.A1, dw), draws, 1)
    exact = sn.NewtonConfig(mode="exact", eps=1e-8)
    sketched = sn.NewtonConfig(mode="sketched", eps=1e-8, eps0=0.45, max_iters=20, seed=1)
    calls = {
        "eval_forward": lambda: sn.eval_forward(inst, x0),
        "grad": lambda: sn.grad(st, inst),
        "hess_L": lambda: sn.hess_L(st, inst),
        "kernel_diag": lambda: sn.kernel_diag(st, inst),
        "kernel+spectral": lambda: sn.spectral(sn.kernel(st, inst)),
        "hess_L_entries": lambda: hessian.hess_L_entries(st, inst),
        "leverage_scores": lambda: sketch.leverage_scores(inst.A1, dw),
        "ridge_distribution": lambda: sketch.sampling_distribution(inst.A1, inst.w * inst.w),
        "subsample": lambda: sketch.subsample(dw, sketch.sampling_distribution(inst.A1, dw), draws, 1),
        "verify_sandwich": lambda: sketch.verify_sandwich(inst.A1, dw, sk),
        "cholesky_solve": lambda: newton._spd_solve(hb.H_tot, g, "H_tot"),
        "exact_step": lambda: sn.newton_step(inst, st, g, exact),
        "sketched_step": lambda: sn.newton_step(inst, st, g, sketched),
        "probe_empirical": lambda: sn.probe_empirical(inst, probes),
        "verify": lambda: list(cli._verify_checks(inst, 1, 20)),
        "solve_exact": lambda: sn.solve(inst, x0, exact),
        "solve_sketched": lambda: sn.solve(inst, x0, sketched),
    }
    return calls


def summarize(runs: list) -> list:
    """Per layer and shape: the median, lowest and highest ``rel`` over ``runs``."""
    rels = {}
    for run in runs:
        for row in run["rows"]:
            rels.setdefault((row["layer"], row["n"], row["m"], row["d"]), []).append(row["rel"])
    return [
        {"layer": layer, "n": n, "m": m, "d": d, "runs": len(v),
         "rel_median": float(np.median(v)), "rel_min": min(v), "rel_max": max(v)}
        for (layer, n, m, d), v in rels.items()
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the run's key in the file, e.g. parent or change")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    ap.add_argument("--layers", metavar="NAME[,NAME...]", help="the layers to time, in table order (default: all)")
    args = ap.parse_args(argv)

    sn = import_softnewt()
    from softnewt.serialize import dump_path, load_path

    known = list(layers(sn, *SHAPES[0]))
    wanted = known if args.layers is None else args.layers.split(",")
    unknown = [name for name in wanted if name not in known]
    if unknown:
        ap.error(f"unknown layers {unknown}; known: {', '.join(known)}")
    reference = gemm_loop()
    reference()  # warm-up
    rows = []
    for n, m, d in SHAPES:
        timed = [name for name in known if name in wanted and (n <= DENSE_MAX_N or name not in DENSE_LAYERS)]
        if not timed:
            continue
        calls = layers(sn, n, m, d)
        for layer in timed:
            fn = calls[layer]
            fn()  # warm-up
            best = best_call_s(fn)
            reference_s = best_call_s(reference)
            rows.append({
                "layer": layer, "n": n, "m": m, "d": d, "best_s": best, "reference_s": reference_s,
                "rel": best / reference_s, "peak_bytes": peak_bytes(fn),
            })
            print(f"n={n:<7} d={d:<2} {layer:<16} {best * 1e3:10.3f} ms {best / reference_s:9.4f} ref "
                  f"{rows[-1]['peak_bytes'] / 2**20:8.2f} MiB", flush=True)

    out = Path(args.out)
    doc = load_path(out) if out.is_file() else {}
    doc["unit"] = "rel: best-of-3 seconds per call / best-of-3 seconds of one perfbench gemm_loop call after it"
    runs = doc.setdefault("runs", {})
    runs.setdefault(args.label, []).append({"env": environment(), "rows": rows})
    doc["summary"] = {label: summarize(label_runs) for label, label_runs in runs.items()}
    dump_path(doc, out)
    print(f"wrote {out} [{args.label}, run {len(runs[args.label])}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
