"""Set-up process: builds a workload's instance and reference optimum.

Run by ``run.py`` in a child process, so that the measuring process's peak
memory holds only the operations, not instance generation. Set-up repeats at
least ``MIN_REPEATS`` times and for at least ``MIN_SECONDS``, so that cheap
set-ups are timed over more than an instant. Prints one JSON line with the
set-up times, or with ``--trace 1`` the layer self times of one traced set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from common import BenchSetupError, import_softnewt, pin_blas

MIN_REPEATS = 5
MIN_SECONDS = 3.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    pin_blas()
    try:
        sn = import_softnewt()
    except BenchSetupError as exc:
        print(f"prepare: {exc}", file=sys.stderr)
        return 2

    from tracing import LayerTracer
    from workloads import WORKLOADS, set_up

    wl = WORKLOADS[args.workload]
    out = {}
    if args.trace:
        tracer = LayerTracer(sn, wl.n)
        with tracer.op():
            set_up(sn, wl, args.seed, args.workdir)
        out["layers"] = {layer: st.self_s for layer, st in tracer.stats.items()}
        out["halvings"] = tracer.stats["newton"].counters.get("halvings", 0)
    else:
        times = []
        while len(times) < MIN_REPEATS or sum(times) < MIN_SECONDS:
            times.append(set_up(sn, wl, args.seed, args.workdir))
        out["setup_s"] = times
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
