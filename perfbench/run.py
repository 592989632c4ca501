"""softnewt benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload exact-n1600 --seed 1 --seconds 30 --trace 0

Set-up (instance generation, JSON write and reload, reference optimum) runs
repeatedly in a child process (``prepare.py``). Then one warm-up op runs, and
ops run until ``--seconds`` have passed, each followed by the workload's
reference loop (``reference.py``); each op's outputs are checked. ``--trace
0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced copies of each op and prints the per-layer metrics (see
``tracing.py``). The last line of stdout is the JSON result; the lines before
it are the environment header and the metrics for reading.

BLAS is pinned to one thread and ``SOFTNEWT_THREADS`` is unset unless
``--softnewt-threads`` sets it, for comparing the CLI's verify thread pool.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from common import HERE, ROOT, THREADS_ENV, BenchSetupError, environment, import_softnewt, pin_blas

SETUP_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {
    "setup_s": "s",
    "op_rel": "ref",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_units(layers) -> dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "frac"
    units.update(
        {
            "hessian.kernel_bytes": "B",
            "sketch.sampled_frac": "frac",
            "sketch.kept_frac": "frac",
            "sketch.eps_e2e.max": "ratio",
            "newton.iters_per_op": "count",
            "newton.halvings_per_op": "count",
            "bounds.probe_points_per_op": "count",
            "oracle.fd_evals_per_op": "count",
            "serialize.bytes_written_per_op": "B",
            "trace.coverage": "frac",
            "trace.overhead_frac": "frac",
        }
    )
    for layer in layers:
        units[f"setup.{layer}.self_s"] = "s"
    units["setup.newton.halvings"] = "count"
    return units


def tail(samples: list[float]) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return "n=0"
    fit = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    if not fit:
        return f"n={n}; p50={statistics.median(samples):.6g}; no percentile has >=10 samples beyond it"
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    p = fit[-1]
    return f"n={n}; p50={cuts[499]:.6g}; p{p:g}={cuts[int(p * 10) - 1]:.6g} is the highest percentile with >=10 samples beyond it"


def prepare(workload: str, seed: int, trace: int, workdir) -> dict:
    cmd = [
        sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--workdir", str(workdir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchSetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OpLog:
    """Attempted and failed ops, with the first failures kept for the report."""

    def __init__(self, run_op):
        self.run_op = run_op
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, ctx, index: int, seed: int, span=contextlib.nullcontext):
        """Run and check one op; returns its phase times, or None if it failed."""
        self.attempted += 1
        try:
            phases, error = self.run_op(ctx, index, seed, span)
        except Exception:
            error = traceback.format_exc()
        if error is None:
            return phases
        self.failed += 1
        if len(self.messages) < 3:
            self.messages.append(f"op {index}: {error}")
        return None


def timed_run(ctx, seed: int, seconds: int, log: OpLog):
    """Ops until ``seconds`` pass, each followed by the workload's reference loop.

    Returns the passed ops' phase times, the wall time and the ``Yardstick``.
    """
    from reference import Yardstick

    log.run(ctx, 0, seed)  # warm-up: checked, not timed
    yardstick = Yardstick(ctx.wl.reference)
    ops = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    index = 1
    while True:
        phases = log.run(ctx, index, seed)
        if phases is not None:
            ops.append(phases)
            yardstick.after_op(sum(phases.values()))
        index += 1
        if time.perf_counter() >= deadline:
            break
    return ops, time.perf_counter() - t0, yardstick


def traced_run(ctx, sn, seed: int, seconds: int, log: OpLog):
    """Each op runs twice, untraced and traced, in alternating order."""
    from tracing import LayerTracer

    tracer = LayerTracer(sn, ctx.wl.n)
    log.run(ctx, 0, seed)
    ratios = []
    deadline = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < deadline:
        times = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            phases = log.run(ctx, index, seed, tracer.op if traced else contextlib.nullcontext)
            if phases is not None:
                times[traced] = sum(phases.values())
        if len(times) == 2:
            ratios.append(times[True] / times[False])
        index += 1
    return tracer, ratios


def layer_metrics(tracer, ratios, setup: dict) -> dict[str, float]:
    from tracing import LAYERS

    ops = max(tracer.ops, 1)
    op_s = tracer.op_s
    st = tracer.stats
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = st[layer].calls / ops
        m[f"{layer}.self_s"] = st[layer].self_s / ops
        m[f"{layer}.share"] = st[layer].self_s / op_s if op_s > 0 else 0.0
    hc, sc, nc = st["hessian"].counters, st["sketch"].counters, st["newton"].counters
    draws = sc.get("results", 0)
    m["hessian.kernel_bytes"] = hc.get("kernel_bytes", 0) / ops
    m["sketch.sampled_frac"] = sc.get("sampled", 0) / draws if draws else 0.0
    m["sketch.kept_frac"] = sc.get("kept_frac_sum", 0.0) / draws if draws else 0.0
    m["sketch.eps_e2e.max"] = nc.get("eps_e2e_max", 0.0)
    m["newton.iters_per_op"] = nc.get("iters", 0) / ops
    m["newton.halvings_per_op"] = nc.get("halvings", 0) / ops
    m["bounds.probe_points_per_op"] = st["bounds"].counters.get("probe_points", 0) / ops
    m["oracle.fd_evals_per_op"] = st["oracle"].callbacks / ops
    m["serialize.bytes_written_per_op"] = st["serialize"].counters.get("bytes", 0) / ops
    m["trace.coverage"] = sum(s.self_s for s in st.values()) / op_s if op_s > 0 else 0.0
    m["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    for layer in LAYERS:
        m[f"setup.{layer}.self_s"] = setup["layers"].get(layer, 0.0)
    m["setup.newton.halvings"] = setup["halvings"]
    return m


def main(argv=None) -> int:
    pin_blas()  # before anything imports numpy
    from tracing import LAYERS
    from workloads import WORKLOADS, load, run_op

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--softnewt-threads", type=int, default=None, help=f"set {THREADS_ENV} (default: unset)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.softnewt_threads is None:
        os.environ.pop(THREADS_ENV, None)
    else:
        os.environ[THREADS_ENV] = str(args.softnewt_threads)
    try:
        sn = import_softnewt()
    except BenchSetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    log = OpLog(run_op)
    try:
        setup = prepare(wl.name, args.seed, args.trace, workdir)
        ctx = load(sn, wl, workdir)
        if args.trace:
            tracer, ratios = traced_run(ctx, sn, args.seed, args.seconds, log)
        else:
            ops, elapsed, yardstick = timed_run(ctx, args.seed, args.seconds, log)
    except (BenchSetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"failed_frac {log.failed / log.attempted:.6g} ({log.failed} of {log.attempted} ops, warm-up included)")
    for msg in log.messages:
        print(f"failure: {msg}")
    if args.trace:
        metrics = layer_metrics(tracer, ratios, setup)
        units = per_layer_units(LAYERS)
        for name, value in metrics.items():
            print(f"{name:<34} {value:.6g} {units[name]}")
        ops_traced = max(tracer.ops, 1)
        for layer in tracer.stats.keys() - set(LAYERS):
            st = tracer.stats[layer]
            print(f"(unnamed layer) {layer}.calls {st.calls / ops_traced:.6g} {layer}.self_s {st.self_s / ops_traced:.6g}")
    else:
        op_times = [sum(ph.values()) for ph in ops]
        op_mean = statistics.fmean(op_times) if op_times else elapsed  # no op passed: the whole loop
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "op_rel": op_mean / yardstick.call_s,
            "ok_frac": (log.attempted - log.failed) / log.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(
            f"setup_s      {metrics['setup_s']:.6g} s  median of {len(setup['setup_s'])} set-ups; "
            f"set-up process peak {setup['peak_rss_mb']:.1f} MB"
        )
        print(
            f"op_rel       {metrics['op_rel']:.6g} ref  mean op time / mean {wl.reference} reference call "
            f"({yardstick.call_s:.6g} s, {yardstick.calls} calls)"
        )
        print(f"op_s.mean    {op_mean:.6g} s  {tail(op_times)}")
        print(f"ops_per_s    {len(ops) / (elapsed - yardstick.seconds):.6g} 1/s over {elapsed - yardstick.seconds:.3f} s of ops")
        print(f"ok_frac      {metrics['ok_frac']:.6g}")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.6g} MB")
        phases = ops[0].keys() if ops and len(ops[0]) > 1 else ()
        for phase in phases:
            samples = [ph[phase] for ph in ops]
            print(f"{phase}_s.mean {statistics.fmean(samples):.6g} s  {tail(samples)}")

    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
