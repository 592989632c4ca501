#!/usr/bin/env python3
"""End-to-end contraction experiment.

Generates a ridge-recipe instance, locates the reference optimum with damped
exact Newton, starts both solvers from a basin-certified point, and prints the
per-iteration contraction table plus the bound-tightness summary. Artifacts
(instance, reports, bounds) land in --out-dir.

Example:
    python scripts/run_experiment.py --n 8 --m 4 --d 3 --activation tanh --seed 7
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import softnewt as sn
from softnewt.bounds import probe_empirical
from softnewt.cli import _reference_optimum
from softnewt.model import _rng
from softnewt.oracle import spectral
from softnewt.serialize import dump_path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--activation", default="tanh")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--eps0", type=float, default=0.01)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    inst, x_plant = sn.gen_instance(args.n, args.m, args.d, args.activation, args.seed,
                                    noise=args.noise)
    instance_path = os.path.join(args.out_dir, "instance.json")
    dump_path(sn.instance_to_json(inst), instance_path)
    print(f"instance: n={inst.n} m={inst.m} d={inst.d} {inst.activation.kind} "
          f"R_h={inst.R_h:.3f} w_0={inst.w[0]:.2f}")

    x_ref = _reference_optimum(inst)
    l = spectral(sn.hess_L(sn.eval_forward(inst, x_ref), inst).H_tot)[0]

    rng = _rng(args.seed)
    pts = [x_ref + 0.15 * inst.R * rng.standard_normal(inst.d) for _ in range(10)]
    rep_bounds = probe_empirical(inst, pts)
    M_emp = rep_bounds.M_empirical
    r0 = min(0.05 * l / max(M_emp, 1e-12), 0.1 * inst.R)
    direction = rng.standard_normal(inst.d)
    x0 = x_ref + r0 * direction / np.linalg.norm(direction)
    print(f"reference optimum: l = {l:.3f}, empirical M = {M_emp:.3f}, r0 = {r0:.3e}")
    certificate = {"analytic": sn.basin_check(x0, x_ref, M=rep_bounds.M, l=l),
                   "empirical": sn.basin_check(x0, x_ref, M=M_emp, l=l)}
    print(f"basin certificate (empirical M): {certificate['empirical']}; (analytic M): {certificate['analytic']}")

    for mode in ("exact", "sketched"):
        cfg = sn.NewtonConfig(mode=mode, eps=1e-10, eps0=args.eps0, seed=args.seed,
                              max_iters=60, stationarity_tol=1e-13, strict=False)
        run = sn.solve(inst, x0, cfg, x_ref=x_ref)
        run.basin_certificate = certificate
        dump_path(run.to_json(cfg, instance_path, x_ref), os.path.join(args.out_dir, f"report_{mode}.json"))
        print(f"\n{mode} mode: status={run.status} after {run.n_iters} iterations")
        print(f"  {'t':>2} {'r_t':>12} {'ratio':>10} {'grad_norm':>12} {'eps_sketch':>10}")
        for t, r in enumerate(run.r_t):
            ratio = f"{run.ratios[t - 1]:.3e}" if 1 <= t <= len(run.ratios) else ""
            epss = run.sketch_eps_per_iter[t] if t < len(run.sketch_eps_per_iter) else None
            eps_str = f"{epss:.2e}" if epss is not None else ""
            print(f"  {t:>2} {r:>12.4e} {ratio:>10} {run.grad_norms[t]:>12.4e} {eps_str:>10}")
        if run.ratios:
            print(f"  max contraction ratio: {max(run.ratios):.3e} (0.4 is the certified rate)")

    dump_path(rep_bounds.to_json(), os.path.join(args.out_dir, "bounds.json"))
    print("\nbound tightness (measured / analytic bound):")
    for key in ("norm_f", "norm_c", "norm_Q2", "norm_q2", "psd_bound", "M"):
        print(f"  {key:<10} {rep_bounds.tightness[key]:.3e}")
    print(f"\nartifacts in {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
