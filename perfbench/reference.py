"""Fixed reference loops that measure the machine's speed between ops.

On a shared VM the host's load can slow a single-threaded process by up to
1.7x for tens of seconds at a time, so two 30-s runs of the same code can
differ by more than any useful bound. The benchmark therefore times a fixed
reference loop after every op and reports op time in units of one reference
call (``op_rel``): both slow down together, and their ratio stays put.

The loops never touch softnewt, so no change to the package moves them. Each
workload names the loop that resembles its bottleneck: interpreter work for
the many small calls of ``cli-n64``, a dense single-thread product for the
n x n kernel assembly of the solve workloads.
"""

from __future__ import annotations

import time

import numpy as np

GEMM_N = 800
SHARE = 0.25  # reference time after each op, as a share of that op's time


def python_loop():
    """About 10 ms of dict and float work in the interpreter."""

    def run() -> float:
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(60000):
            acc += (i * 0.5) % 7.0
            table[i & 255] = acc
        return acc + len(table)

    return run


def gemm_loop():
    """One 800 x 800 matrix product, about 25 ms on one BLAS thread."""
    a = np.random.default_rng(0).standard_normal((GEMM_N, GEMM_N))
    b = np.random.default_rng(1).standard_normal((GEMM_N, GEMM_N))
    return lambda: float((a @ b)[0, 0])


LOOPS = {"python": python_loop, "gemm": gemm_loop}


class Yardstick:
    """Runs a reference loop after each op, for ``SHARE`` of the op's time."""

    def __init__(self, name: str):
        self.loop = LOOPS[name]()
        self.loop()  # warm-up
        self.calls = 0
        self.seconds = 0.0

    def after_op(self, op_s: float) -> None:
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            self.loop()
            spent += time.perf_counter() - t0
            self.calls += 1
            if spent >= SHARE * op_s:
                break
        self.seconds += spent

    @property
    def call_s(self) -> float:
        """Mean time of one reference call."""
        return self.seconds / self.calls
