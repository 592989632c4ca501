"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion. Numbered to match the project acceptance list.
"""

import math
import time

import numpy as np
import pytest
from conftest import ALL_KINDS, random_instance, random_points

import softnewt as sn
from softnewt.bounds import probe_empirical
from softnewt.cli import main
from softnewt.hessian import hess_L_entries
from softnewt.oracle import fd_gradient, fd_hessian, spectral
from softnewt.serialize import dumps, load_path
from softnewt.sketch import sample_count, sampling_distribution, subsample, verify_sandwich


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        inst = random_instance(seed, kind=ALL_KINDS[seed % 4])
        x = random_points(inst, seed + 40000, 1)[0]
        gb = sn.grad(sn.eval_forward(inst, x), inst)
        g_fd = fd_gradient(lambda y: sn.eval_forward(inst, y).loss_tot, x)
        err = np.linalg.norm(gb.grad_tot - g_fd) / max(np.linalg.norm(g_fd), 1e-30)
        assert err <= 1e-6, f"seed {seed}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, "gradient correctness", f"100 instances, worst rel l2 {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_hessian_correctness():
    t0 = time.perf_counter()
    worst_fd, worst_route = 0.0, 0.0
    for seed in range(50):
        inst = random_instance(seed + 200, kind=ALL_KINDS[seed % 4])
        x = random_points(inst, seed + 41000, 1)[0]
        st = sn.eval_forward(inst, x)
        hb = sn.hess_L(st, inst)
        H_fd = fd_hessian(lambda y: sn.grad(sn.eval_forward(inst, y), inst).grad_L, x)
        err = np.linalg.norm(hb.H_L - H_fd) / max(np.linalg.norm(H_fd), 1e-30)
        assert err <= 1e-5, f"seed {seed}: FD error {err:.3e}"
        worst_fd = max(worst_fd, err)
        scale = max(1.0, float(np.max(np.abs(hb.H_L))))
        gap = float(np.max(np.abs(hb.H_L - hess_L_entries(st, inst))))
        assert gap <= 1e-10 * scale, f"seed {seed}: route gap {gap:.3e}"
        worst_route = max(worst_route, gap / scale)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, "hessian correctness",
            f"50 instances, worst FD rel {worst_fd:.2e}, worst route gap {worst_route:.2e}, {elapsed:.1f}s")


def test_criterion_3_normalization(s1_instance):
    worst = 0.0
    count = 0
    families = [random_instance(seed) for seed in range(25)]
    families.append(s1_instance)
    for k, inst in enumerate(families):
        for x in random_points(inst, 42000 + k, 10, radius_frac=0.9):
            st = sn.eval_forward(inst, x)
            worst = max(worst, abs(float(np.sum(np.abs(st.f))) - 1.0))
            count += 1
    assert worst <= 1e-12
    _report(3, "softmax normalization", f"{count} forward evaluations, worst |1 - ||f||_1| = {worst:.2e}")


@pytest.fixture(scope="module")
def probe_reports(s1_instance):
    """probe_empirical over 20 instances x 10 admissible points each."""
    reports = []
    total_points, total_pairs = 0, 0
    for k in range(19):
        inst = random_instance(500 + k, n=2 + k % 7, m=1 + k % 5, d=1 + k % 6,
                               kind=ALL_KINDS[k % 4])
        pts = random_points(inst, 43000 + k, 10, radius_frac=0.85)
        rep = probe_empirical(inst, pts)
        reports.append(rep)
        total_points += rep.n_admissible
        total_pairs += rep.n_admissible * (rep.n_admissible - 1) // 2
    rep = probe_empirical(s1_instance, random_points(s1_instance, 43999, 10, radius_frac=0.85))
    reports.append(rep)
    total_points += rep.n_admissible
    total_pairs += rep.n_admissible * (rep.n_admissible - 1) // 2
    return reports, total_points, total_pairs


def test_criterion_4_psd_bound_soundness(probe_reports):
    reports, total_points, _ = probe_reports
    assert total_points >= 200
    violations = 0
    worst = 0.0
    for rep in reports:
        psd = rep.analytic["psd_bound"]
        measured = max(abs(rep.lambda_min_B), abs(rep.lambda_max_B))
        if not psd.holds(measured):
            violations += 1
        worst = max(worst, psd.tightness(measured))
    assert violations == 0
    _report(4, "kernel spectrum bound", f"{total_points} admissible points, 0 violations, max tightness {worst:.2e}")


def test_criterion_5_hessian_lipschitz_soundness(probe_reports):
    reports, _, total_pairs = probe_reports
    assert total_pairs >= 100
    violations = 0
    worst_log10 = -math.inf
    for rep in reports:
        M = rep.analytic["M"]
        if not M.holds(rep.empirical["M"]):
            violations += 1
        if rep.empirical["M"] > 0:
            worst_log10 = max(worst_log10, math.log10(rep.empirical["M"]) - M.log10)
    assert violations == 0
    assert worst_log10 < 0.0  # sound, with room; the bound is expected to be very loose
    _report(5, "hessian Lipschitz bound",
            f"{total_pairs} admissible pairs, 0 violations, max tightness 1e{worst_log10:.1f} (loose, as expected)")


def test_criterion_6_regularized_strong_convexity():
    checked = 0
    worst = math.inf
    for k in range(5):
        inst, _ = sn.gen_instance(5 + k, 3, 2 + k % 3, ALL_KINDS[k % 4], seed=900 + k,
                                  noise=0.05, l_target=1.0)
        for x in random_points(inst, 44000 + k, 10, radius_frac=0.9):
            st = sn.eval_forward(inst, x)
            lam = spectral(sn.hess_L(st, inst).H_tot)[0]
            assert lam >= 1.0, f"lambda_min {lam:.4f} < 1"
            worst = min(worst, lam)
            checked += 1
    assert checked == 50
    _report(6, "regularized strong convexity", f"50 points, min lambda_min(H_tot) = {worst:.3f} >= 1")


def test_criterion_7_sketch_sandwich():
    rng = np.random.default_rng(77)
    instances = []
    for k, (n, d) in enumerate([(2500, 2), (2800, 2), (3000, 2), (3000, 3), (2600, 2)]):
        A = rng.standard_normal((n, d))
        A[: n // 5] *= 6.0  # heterogeneous leverage
        dw = np.exp(rng.standard_normal(n))
        assert sample_count(n, d, 0.3, 0.1) < n
        instances.append((A, dw))
    hits, runs = 0, 0
    for k, (A, dw) in enumerate(instances):
        dist, s = sampling_distribution(A, dw), sample_count(*A.shape, 0.3, 0.1)
        for seed in range(40):
            sk = subsample(dw, dist, s, 1000 * k + seed)
            assert not sk.exact
            if verify_sandwich(A, dw, sk) <= 0.3:
                hits += 1
            runs += 1
    assert runs == 200
    rate = hits / runs
    assert rate >= 0.9, f"success rate {rate:.3f} < 0.9"

    small = subsample(np.ones(4), sampling_distribution(np.eye(4), np.ones(4)), sample_count(4, 4, 0.3, 0.1), 0)
    assert small.exact
    assert verify_sandwich(np.eye(4), np.ones(4), small) == 0.0
    _report(7, "sketch spectral sandwich", f"200 seeds on 5 instances, success rate {rate:.3f} >= 0.9; exact fallback deviation 0")


@pytest.fixture(scope="module")
def contraction_instances():
    setups = []
    dims = [(6, 3, 3), (5, 2, 2), (8, 4, 3), (6, 2, 4), (7, 3, 2)]
    for k, (n, m, d) in enumerate(dims):
        inst, _ = sn.gen_instance(n, m, d, ALL_KINDS[k % 4], seed=1300 + k, noise=0.05,
                                  l_target=1.0)
        cfg = sn.NewtonConfig(mode="exact", eps=1e-13, stationarity_tol=1e-13,
                              max_iters=100, strict=False)
        ref = sn.solve(inst, np.zeros(d), cfg)
        assert ref.status == "converged" and ref.final_grad_norm <= 1e-13
        x_ref = ref.final_x
        l = spectral(sn.hess_L(sn.eval_forward(inst, x_ref), inst).H_tot)[0]
        pts = [x_ref + dx for dx in random_points(inst, 45000 + k, 10, radius_frac=0.15)]
        M_emp = probe_empirical(inst, pts).empirical["M"]
        r0 = min(0.05 * l / max(M_emp, 1e-12), 0.1 * inst.R)
        setups.append((inst, x_ref, l, M_emp, r0))
    return setups


def test_criterion_8_contraction(contraction_instances):
    rng = np.random.default_rng(4242)
    exceptions, runs = 0, 0
    worst_ratio = 0.0
    for k, (inst, x_ref, l, M_emp, r0) in enumerate(contraction_instances):
        for seed in range(20):
            direction = rng.standard_normal(inst.d)
            x0 = x_ref + r0 * direction / np.linalg.norm(direction)
            assert sn.basin_check(x0, x_ref, M=M_emp, l=l)
            cfg = sn.NewtonConfig(mode="sketched", eps=1e-9, eps0=0.01, delta=0.05,
                                  seed=2000 * k + seed, max_iters=60,
                                  stationarity_tol=1e-13, strict=False)
            rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
            runs += 1
            bad = rep.status != "converged" or any(rho > 0.4 for rho in rep.ratios)
            if bad:
                exceptions += 1
            elif rep.ratios:
                worst_ratio = max(worst_ratio, max(rep.ratios))
    assert runs == 100
    assert exceptions <= 0.1 * runs, f"{exceptions} exceptions out of {runs}"

    # exact-mode iteration budget at the proven 0.4 rate
    eps = 1e-10
    for inst, x_ref, _, _, r0 in contraction_instances:
        x0 = x_ref + r0 * np.ones(inst.d) / math.sqrt(inst.d)
        cfg = sn.NewtonConfig(mode="exact", eps=eps, max_iters=100,
                              stationarity_tol=1e-14, strict=False)
        rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
        assert rep.status == "converged"
        budget = math.ceil(math.log(rep.r_t[0] / eps) / math.log(2.5)) + 1
        assert rep.n_iters <= budget, f"{rep.n_iters} iterations > budget {budget}"
    _report(8, "contraction", f"sketched: {exceptions}/100 seed exceptions, worst ratio {worst_ratio:.3f} <= 0.4; exact within the log budget")


def test_criterion_8_contraction_on_sampled_steps():
    # criterion 8's protocol where every sketched step draws rows: at n = 1200, d = 2 and
    # eps0 = 0.45 the sample count is below n, so no step takes the exact fallback
    rng = np.random.default_rng(4343)
    exceptions, runs = 0, 0
    worst_ratio = 0.0
    for seed in (1, 2, 3):
        inst, _ = sn.gen_instance(1200, 16, 2, "tanh", seed, noise=0.05)
        cfg = sn.NewtonConfig(mode="exact", eps=1e-13, stationarity_tol=1e-13,
                              max_iters=100, strict=False)
        ref = sn.solve(inst, np.zeros(inst.d), cfg)
        assert ref.status == "converged" and ref.final_grad_norm <= 1e-13
        x_ref = ref.final_x
        l = spectral(sn.hess_L(sn.eval_forward(inst, x_ref), inst).H_tot)[0]
        pts = [x_ref + dx for dx in random_points(inst, 46000 + seed, 10, radius_frac=0.15)]
        # the certificate reads M alone, so the probe forms none of the 1200 x 1200 kernels
        M_emp = probe_empirical(inst, pts, keys=("M",)).empirical["M"]
        r0 = min(0.05 * l / max(M_emp, 1e-12), 0.1 * inst.R)
        for k in range(20):
            direction = rng.standard_normal(inst.d)
            x0 = x_ref + r0 * direction / np.linalg.norm(direction)
            assert sn.basin_check(x0, x_ref, M=M_emp, l=l)
            cfg = sn.NewtonConfig(mode="sketched", eps=1e-9, eps0=0.45, delta=0.05,
                                  seed=2000 * seed + k, max_iters=60,
                                  stationarity_tol=1e-13, strict=False)
            rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
            runs += 1
            assert rep.sketch_draws_per_iter and all(draws > 0 for draws in rep.sketch_draws_per_iter)
            if rep.status != "converged" or any(rho > 0.4 for rho in rep.ratios):
                exceptions += 1
            elif rep.ratios:
                worst_ratio = max(worst_ratio, max(rep.ratios))
    assert runs == 60
    assert exceptions <= 0.1 * runs, f"{exceptions} exceptions out of {runs}"
    _report(8, "contraction on sampled steps", f"n=1200: {exceptions}/60 seed exceptions, worst ratio {worst_ratio:.3f} <= 0.4, every step drew rows")


def test_criterion_9_run_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--n", "5", "--m", "3", "--d", "2", "--activation", "tanh",
                 "--seed", "13", "--noise", "0.02", "--out", str(inst_path)]) == 0
    blobs = set()
    for rep in range(10):
        out = tmp_path / f"rep{rep}"
        rc = main(["run", "--instance", str(inst_path), "--mode", "sketched",
                   "--x0", "gaussian", "--x0-scale", "0.05", "--seed", "37",
                   "--eps", "1e-8", "--out-dir", str(out)])
        assert rc == 0
        blobs.add(dumps(load_path(out / "report.json")["golden"]))
    assert len(blobs) == 1
    _report(9, "run determinism", "10 repeats byte-identical golden report JSON")
