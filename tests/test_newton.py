import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import ALL_KINDS, random_instance, random_points
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import softnewt as sn
from softnewt.bounds import probe_empirical
from softnewt.model import DenominatorFloorWarning, EvaluationOverflowError, ShapeError
from softnewt.newton import NotPositiveDefiniteError, _spd_solve
from softnewt.oracle import spectral
from softnewt.sketch import sample_count


def exact_cfg(**kw):
    base = dict(mode="exact", eps=1e-12, stationarity_tol=1e-13, max_iters=100, strict=False)
    base.update(kw)
    return sn.NewtonConfig(**base)


def step_at(inst, x, cfg, t=0):
    """Evaluate the iterate x the way ``solve`` does, then take one Newton step from it."""
    state = sn.eval_forward(inst, x)
    return sn.newton_step(inst, state, sn.grad(state, inst).grad_tot, cfg, t)


@pytest.fixture(scope="module")
def s1_reference(s1_instance):
    rep = sn.solve(s1_instance, np.zeros(2), exact_cfg())
    assert rep.status == "converged" and rep.final_grad_norm <= 1e-13
    return rep.final_x


def test_step_fixed_point_at_optimum(s1_instance, s1_reference):
    state = sn.eval_forward(s1_instance, s1_reference)
    g = sn.grad(state, s1_instance).grad_tot
    x_next, _ = sn.newton_step(s1_instance, state, g, exact_cfg())
    assert np.linalg.norm(x_next - s1_reference) <= 1e-13
    assert np.linalg.norm(g) <= 1e-13


def test_quadratic_specialization_one_step():
    # A2 = 0 makes the data term constant; the objective is a pure ridge
    # quadratic and one exact Newton step lands on zero from anywhere
    rng = np.random.default_rng(2)
    A1 = rng.uniform(-0.5, 0.5, size=(4, 3))
    inst = sn.ProblemInstance(
        A1=A1, A2=np.zeros((2, 4)), b=np.array([0.3, -0.1]), w=np.full(4, 2.0),
        activation=sn.Activation("identity"), R=1.5,
    )
    x0 = np.array([0.9, -0.4, 0.2])
    x1, _ = step_at(inst, x0, exact_cfg())
    assert np.linalg.norm(x1) <= 1e-12
    rep = sn.solve(inst, x0, exact_cfg())
    assert rep.status == "converged" and rep.n_iters == 1


def test_solve_zero_iterations_at_reference(s1_instance, s1_reference):
    rep = sn.solve(s1_instance, s1_reference, exact_cfg(), x_ref=s1_reference)
    assert rep.status == "converged" and rep.n_iters == 0
    assert rep.r_t == [0.0]


def test_golden_trace(s1_instance, s1_golden):
    g = s1_golden["newton_trace"]
    cfg = exact_cfg(eps=1e-14, stationarity_tol=1e-14)
    rep = sn.solve(s1_instance, np.array(g["x0"]), cfg, x_ref=np.array(g["x_ref"]))
    assert rep.status == g["status"]
    assert len(rep.iterates) == len(g["iterates"])
    for ours, golden in zip(rep.iterates, g["iterates"]):
        np.testing.assert_allclose(ours, golden, atol=1e-10)
    np.testing.assert_allclose(rep.r_t, g["r_t"], atol=1e-10)


def test_max_iters_zero_reports_max_iters(s1_instance, s1_reference):
    x0 = s1_reference + 0.1
    rep = sn.solve(s1_instance, x0, exact_cfg(max_iters=0), x_ref=s1_reference)
    assert rep.status == "max_iters" and rep.n_iters == 0


def test_monotone_loss_exact_mode(s1_instance, s1_reference):
    rep = sn.solve(s1_instance, s1_reference + np.array([0.2, -0.15]), exact_cfg())
    assert rep.status == "converged"
    diffs = np.diff(rep.loss_tots)
    assert np.all(diffs <= 1e-14)


def test_exact_mode_iteration_bound_and_quadratic_tail(s1_instance, s1_reference):
    eps = 1e-10
    x0 = s1_reference + np.array([0.05, -0.03])
    rep = sn.solve(s1_instance, x0, exact_cfg(eps=eps), x_ref=s1_reference)
    assert rep.status == "converged"
    r0 = rep.r_t[0]
    budget = math.ceil(math.log(r0 / eps) / math.log(2.5)) + 1
    assert rep.n_iters <= budget
    # local quadratic behavior: r_{t+1} / r_t^2 stays sane near the optimum
    lam_min = spectral(sn.hess_L(sn.eval_forward(s1_instance, s1_reference), s1_instance).H_tot)[0]
    assert lam_min >= 0.1
    quad = [
        rep.r_t[t + 1] / rep.r_t[t] ** 2
        for t in range(len(rep.r_t) - 1)
        if rep.r_t[t] > 1e-12
    ]
    assert all(q < 1e6 for q in quad[-3:])


def test_non_positive_definite_error_carries_lambda_min():
    inst = sn.ProblemInstance(
        A1=np.array([[1.0], [-1.0]]), A2=np.array([[1.0, 0.0]]), b=np.array([0.9]),
        w=np.zeros(2), activation=sn.Activation("identity"), R=4.0,
    )
    with pytest.raises(NotPositiveDefiniteError) as exc:
        step_at(inst, np.array([-3.0]), exact_cfg())
    assert exc.value.lambda_min < 0

    rep = sn.solve(inst, np.array([-3.0]), exact_cfg())
    assert rep.status == "error"
    assert "positive definite" in rep.error_message


def test_sketched_step_reports_infinite_deviation_when_H_tot_is_indefinite():
    # at x = 3 the total Hessian is indefinite (-1.3e-4) while diag(B) + w^2 is
    # positive (1.7e-4 per row), so the sketched Hessian factors and the step is
    # taken; the generalized spectrum against H_tot does not exist
    inst = sn.ProblemInstance(
        A1=np.array([[1.0], [-1.0]]), A2=np.array([[1.0, 0.0]]), b=np.array([0.9]),
        w=np.full(2, 0.02), activation=sn.Activation("identity"), R=4.0,
    )
    state = sn.eval_forward(inst, np.array([3.0]))
    assert sn.hess_L(state, inst).H_tot[0, 0] < 0.0
    x_next, diag = step_at(inst, np.array([3.0]), exact_cfg(mode="sketched"))
    assert diag.sketch.exact and np.all(diag.sketch.dtilde > 0.0)
    assert diag.eps_end_to_end == math.inf and np.all(np.isfinite(x_next))


def test_overflow_ends_as_error_report(s1_instance, monkeypatch):
    # a start whose exp(A1 x) leaves float64 ends the run, naming the coordinate
    row = s1_instance.A1[1]
    with pytest.warns(UserWarning, match="norm budget"):
        rep = sn.solve(s1_instance, 2000.0 * row / (row @ row), exact_cfg())
    assert rep.status == "error"
    assert "exp((A1 x)_1)" in rep.error_message and "overflows" in rep.error_message
    assert rep.n_iters == 0 and rep.grad_norms == [] and math.isnan(rep.final_grad_norm)

    # the damped line search halves an overflowing trial step like an uphill one
    import softnewt.newton as newton_mod

    monkeypatch.setattr(newton_mod, "_spd_solve", lambda H, rhs, what: 1e6 * rhs)
    g0 = sn.grad(sn.eval_forward(s1_instance, np.zeros(2)), s1_instance).grad_tot
    with pytest.raises(EvaluationOverflowError):
        sn.eval_forward(s1_instance, -1e6 * g0)
    cfg = sn.NewtonConfig(mode="exact", damping=True, strict=False)
    x_next, diag = step_at(s1_instance, np.zeros(2), cfg)
    assert 0 < diag.halvings < 30
    loss0 = sn.eval_forward(s1_instance, np.zeros(2)).loss_tot
    assert sn.eval_forward(s1_instance, x_next).loss_tot <= loss0


def test_non_finite_hessian_ends_as_error_report(s1_instance):
    # w^2 overflows float64, so H_tot holds inf and nan: an error report in
    # both modes, not a scipy ValueError from the factorization
    inst = sn.ProblemInstance(
        A1=s1_instance.A1, A2=s1_instance.A2, b=s1_instance.b, w=np.full(s1_instance.n, 1e160),
        activation=s1_instance.activation, R=s1_instance.R,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            step_at(inst, np.zeros(2), exact_cfg())
        assert math.isnan(exc.value.lambda_min)
        for mode in ("exact", "sketched"):
            rep = sn.solve(inst, np.zeros(2), exact_cfg(mode=mode))
            assert rep.status == "error" and rep.n_iters == 0
            assert "Hessian has non-finite entries" in rep.error_message


@pytest.fixture(scope="module")
def tall_instance():
    """A ridge-recipe instance whose sketched steps at eps0 = 0.45 draw 1034 of its 1200 rows."""
    return sn.gen_instance(1200, 16, 2, "tanh", 1, noise=0.05)[0]


def with_heavy_row(inst, w0, a0=None):
    """``inst`` with ridge weight w0 on row 0, and that row of A1 set to a0 if given."""
    A1, w = inst.A1.copy(), inst.w.copy()
    w[0] = w0
    if a0 is not None:
        A1[0] = a0
    return sn.ProblemInstance(A1=A1, A2=inst.A2, b=inst.b, w=w, activation=inst.activation, R=inst.R, beta=inst.beta)


def test_non_finite_sketched_hessian_ends_as_error_report(tall_instance):
    # row 0 has w_0^2 = 1e308 and almost no leverage, so one draw of it weighs
    # w_0^2 / (s p_0) past float64: an error report without a numpy warning,
    # not the factorization's ValueError
    inst = with_heavy_row(tall_instance, 1e154, 1e-200)
    rep = sn.solve(inst, np.zeros(2), sn.NewtonConfig(mode="sketched", eps0=0.45, max_iters=5, seed=0))
    assert rep.status == "error" and rep.n_iters == 0
    assert rep.error_message == "the sketched Hessian has non-finite entries"


def test_failed_factorization_names_its_leading_minor(tall_instance):
    # one row with w_0 = 1e150 dominates the sketched Hessian: its condition
    # number passes 1/u, dpotrf fails, and the least eigenvalue rounds to a
    # positive number, so the message names the failed factorization
    inst = with_heavy_row(tall_instance, 1e150)
    rep = sn.solve(inst, np.zeros(2), sn.NewtonConfig(mode="sketched", eps0=0.45, max_iters=20, seed=1))
    assert rep.status == "error"
    prefix = "the sketched Hessian is not numerically positive definite: Cholesky failed at leading minor 2 (lambda_min ~ "
    assert rep.error_message.startswith(prefix)
    assert float(rep.error_message[len(prefix):-1]) > 0.0


def test_sketched_step_with_a_zero_ridge_weight_takes_the_exact_fallback(tall_instance):
    # w_i = 0 on a row where diag(B)_i > 0 gives kappa = inf: no count makes the instance's
    # ridge distribution sound, so the step takes Dt = D' although the base count 1034 is below n
    x = np.array([0.2, -0.1])
    kd = sn.kernel_diag(sn.eval_forward(tall_instance, x), tall_instance)
    i = int(kd.argmax())
    assert kd[i] > 0.0
    w = tall_instance.w.copy()
    w[i] = 0.0
    inst = dataclasses.replace(tall_instance, w=w)
    cfg = sn.NewtonConfig(mode="sketched", eps0=0.45, max_iters=20, seed=4)
    assert sample_count(inst.n, inst.d, cfg.eps0, cfg.delta / cfg.max_iters) == 1034
    _, diag = step_at(inst, x, cfg)
    assert diag.sketch.exact and len(diag.sketch.kept_indices) == inst.n
    assert np.array_equal(diag.sketch.dtilde, kd + w * w)
    assert "ridge_distribution" not in vars(inst)  # never formed


def test_sketched_solve_forms_its_distribution_once(tall_instance, monkeypatch):
    # every step of a sketched solve draws rows, from the one distribution the instance forms on the
    # first of them: one leverage_scores call and one cdf per instance, none per step
    import softnewt.sketch as sketch_mod

    calls = {"leverage_scores": 0, "_cdf": 0}
    for name in calls:
        def counted(*args, _fn=getattr(sketch_mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(sketch_mod, name, counted)
    inst = dataclasses.replace(tall_instance)  # a fresh instance: no distribution formed yet
    cfg = sn.NewtonConfig(mode="sketched", eps=1e-8, eps0=0.45, max_iters=20, seed=2)
    steps = 0
    for start in (np.array([0.3, -0.2]), np.array([-0.1, 0.4])):
        rep = sn.solve(inst, start, cfg)
        assert rep.status == "converged" and rep.n_iters >= 2
        assert all(eps is not None and eps > 0.0 for eps in rep.sketch_eps_per_iter)  # drawn, not exact
        steps += rep.n_iters
    assert steps >= 4 and calls == {"leverage_scores": 1, "_cdf": 1}


@pytest.mark.parametrize("mode, eps0, draws", [("exact", 0.01, None), ("sketched", 0.01, 0), ("sketched", 0.45, 1034)])
def test_report_records_the_rows_each_step_drew(tall_instance, mode, eps0, draws):
    # at the default eps0 the count passes n = 1200, so every sketched step is the exact fallback
    cfg = sn.NewtonConfig(mode=mode, eps=1e-8, eps0=eps0, max_iters=20, seed=2)
    rep = sn.solve(tall_instance, np.array([0.3, -0.2]), cfg)
    assert rep.status == "converged" and rep.n_iters >= 2
    assert rep.sketch_draws_per_iter == [draws] * rep.n_iters
    assert rep.to_json(cfg, "inst.json", None)["golden"]["sketch_draws_per_iter"] == rep.sketch_draws_per_iter


def test_sketched_steps_meet_the_sandwich_rate():
    # acceptance criterion 7's rate, at least 90% of 200 seeds within eps0 = 0.3, for the
    # step's own sketches of D' drawn from the instance's ridge distribution
    inst, _ = sn.gen_instance(5000, 16, 2, "tanh", 1, noise=0.05)
    x = np.array([0.3, -0.2])
    state = sn.eval_forward(inst, x)
    grad_tot = sn.grad(state, inst).grad_tot
    dprime = sn.kernel_diag(state, inst) + inst.w * inst.w
    hits = 0
    for seed in range(200):
        cfg = sn.NewtonConfig(mode="sketched", eps0=0.3, seed=seed)
        _, diag = sn.newton_step(inst, state, grad_tot, cfg)
        assert not diag.sketch.exact and len(diag.sketch.kept_indices) < inst.n
        hits += sn.verify_sandwich(inst.A1, dprime, diag.sketch) <= 0.3
    assert hits / 200 >= 0.9, hits


@pytest.mark.parametrize("mode", ["exact", "sketched"])
def test_one_evaluation_per_iterate(s1_instance, s1_reference, monkeypatch, mode):
    # a solve of k steps evaluates the gradient once per iterate (k + 1): the
    # step takes its gradient from solve. hess_L gives H_tot from G = (A2 J) A1
    # without the kernel factor, so an exact solve never forms the centred A2,
    # and a sketched one forms it once per step (k), in its one kernel_diag call. The
    # gradient reads q2 from the forward pass, so neither P nor Q2 is built.
    # The ridge Gram A1^T diag(w^2) A1 is formed once per instance
    import softnewt.derivatives as derivatives_mod
    import softnewt.hessian as hessian_mod
    import softnewt.newton as newton_mod

    calls = {"grad": 0, "_centred_A2": 0, "kernel_diag": 0, "eval_p": 0, "eval_Q2": 0, "ridge_gram": 0}
    for mod, name in (
        (newton_mod, "grad"), (hessian_mod, "_centred_A2"), (newton_mod, "kernel_diag"), (derivatives_mod, "eval_p"),
        (derivatives_mod, "eval_Q2"),
    ):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counted)
    form_gram = sn.ProblemInstance.ridge_gram.func

    def counted_gram(inst):
        calls["ridge_gram"] += 1
        return form_gram(inst)

    gram = functools.cached_property(counted_gram)
    gram.__set_name__(sn.ProblemInstance, "ridge_gram")
    monkeypatch.setattr(sn.ProblemInstance, "ridge_gram", gram)
    inst = dataclasses.replace(s1_instance)  # a fresh instance: no Gram formed yet
    cfg = sn.NewtonConfig(mode=mode, eps=1e-9, seed=3, stationarity_tol=1e-12, max_iters=50, strict=False)
    rep = sn.solve(inst, s1_reference + np.array([0.2, -0.1]), cfg)
    k = rep.n_iters
    assert rep.status == "converged" and k >= 2
    per_step = k if mode == "sketched" else 0
    assert calls == {
        "grad": k + 1, "_centred_A2": per_step, "kernel_diag": per_step, "eval_p": 0, "eval_Q2": 0, "ridge_gram": 1,
    }
    # the cached Gram gives the H_tot that forming it in place gave, bit for bit
    hb = sn.hess_L(sn.eval_forward(inst, rep.final_x), inst)
    w2 = inst.w * inst.w
    assert np.array_equal(hb.H_tot, hb.H_L + inst.A1.T @ (w2[:, None] * inst.A1))


@st.composite
def solver_cases(draw):
    """A random finite instance, a start, an optional reference point and a config."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0)
    A1 = draw(hnp.arrays(float, (n, d), elements=entries))
    A2 = draw(hnp.arrays(float, (m, n), elements=entries))
    inst = sn.ProblemInstance(
        A1=A1, A2=A2, b=draw(hnp.arrays(float, m, elements=entries)),
        w=draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0))),
        activation=sn.Activation(draw(st.sampled_from(ALL_KINDS))),
        R=max(float(np.linalg.norm(A1, 2)), float(np.linalg.norm(A2, 2)), 0.5),
    )
    x0 = draw(hnp.arrays(float, d, elements=st.floats(-5.0, 5.0)))
    x_ref = draw(st.none() | hnp.arrays(float, d, elements=st.floats(-5.0, 5.0)))
    cfg = sn.NewtonConfig(
        mode=draw(st.sampled_from(["exact", "sketched"])), eps=1e-8, eps0=draw(st.floats(0.05, 0.45)),
        max_iters=20, seed=draw(st.integers(0, 2**32)), damping=draw(st.booleans()), strict=False,
    )
    return inst, x0, x_ref, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=solver_cases())
def test_solve_never_raises_on_finite_inputs(case):
    inst, x0, x_ref, cfg = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
    assert rep.status in {"converged", "max_iters", "diverged", "error"}
    assert (rep.error_message is not None) == (rep.status == "error")


def test_sketched_solve_deterministic(s1_instance, s1_reference):
    cfg = sn.NewtonConfig(mode="sketched", eps=1e-9, eps0=0.01, seed=3,
                          stationarity_tol=1e-12, max_iters=50, strict=False)
    x0 = s1_reference + np.array([0.02, 0.01])
    a = sn.solve(s1_instance, x0, cfg, x_ref=s1_reference)
    b = sn.solve(s1_instance, x0, cfg, x_ref=s1_reference)
    assert a.status == b.status == "converged"
    for xa, xb in zip(a.iterates, b.iterates):
        assert np.array_equal(xa, xb)
    assert a.sketch_eps_per_iter == b.sketch_eps_per_iter


def test_basin_check_trivial_and_analytic_vs_empirical(s1_instance, s1_reference):
    assert sn.basin_check(s1_reference, s1_reference, M=1e300, l=1e-12)
    assert sn.basin_check(s1_reference + 1.0, s1_reference, M=0.0, l=1e-12)
    assert not sn.basin_check(s1_reference + 1.0, s1_reference, M=0.0, l=0.0)  # no floor, no certificate

    pts = [s1_reference + dx for dx in random_points(s1_instance, 31, 8, radius_frac=0.05)]
    rep = probe_empirical(s1_instance, pts)
    st_ref = sn.eval_forward(s1_instance, s1_reference)
    l = spectral(sn.hess_L(st_ref, s1_instance).H_tot)[0]
    x0 = s1_reference + np.array([0.01, -0.005])
    assert not sn.basin_check(x0, s1_reference, M=rep.analytic["M"], l=l)
    assert sn.basin_check(x0, s1_reference, M=rep.empirical["M"], l=l)
    assert sn.basin_check(x0, s1_reference, M=rep.analytic["M"], l=1e300)


@pytest.fixture(scope="module")
def basin_setup():
    """A recipe-ridge instance with reference optimum, l, and empirical M."""
    inst = random_instance(101, n=6, m=3, d=3, kind="tanh", ridge="recipe", noise=0.05)
    ref = sn.solve(inst, np.zeros(3), exact_cfg())
    assert ref.status == "converged"
    x_ref = ref.final_x
    l = spectral(sn.hess_L(sn.eval_forward(inst, x_ref), inst).H_tot)[0]
    pts = [x_ref + dx for dx in random_points(inst, 77, 10, radius_frac=0.2)]
    M_emp = probe_empirical(inst, pts).empirical["M"]
    return inst, x_ref, l, M_emp


def test_sketched_contraction_inside_basin(basin_setup):
    inst, x_ref, l, M_emp = basin_setup
    r0 = min(0.05 * l / max(M_emp, 1e-12), 0.1 * inst.R)
    rng = np.random.default_rng(55)
    failures = 0
    n_seeds = 10
    for seed in range(n_seeds):
        direction = rng.standard_normal(inst.d)
        x0 = x_ref + r0 * direction / np.linalg.norm(direction)
        assert sn.basin_check(x0, x_ref, M=M_emp, l=l)
        cfg = sn.NewtonConfig(mode="sketched", eps=1e-9, eps0=0.01, delta=0.05,
                              seed=seed, max_iters=50, stationarity_tol=1e-13,
                              strict=False)
        rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
        if rep.status != "converged" or any(rho > 0.4 for rho in rep.ratios):
            failures += 1
    assert failures <= max(1, int(0.1 * n_seeds))


def test_shrinking_bound_consistency(basin_setup):
    inst, x_ref, l, M_emp = basin_setup
    x0 = x_ref + min(0.05 * l / max(M_emp, 1e-12), 0.1 * inst.R) * np.ones(inst.d) / math.sqrt(inst.d)
    cfg = sn.NewtonConfig(mode="sketched", eps=1e-9, eps0=0.01, seed=9,
                          max_iters=50, stationarity_tol=1e-13, strict=False)
    rep = sn.solve(inst, x0, cfg, x_ref=x_ref)
    assert rep.status == "converged"
    for t in range(len(rep.r_t) - 1):
        r = rep.r_t[t]
        if r < 1e-9:
            continue
        eps_meas = rep.sketch_eps_per_iter[t] or 0.0
        rbar = M_emp * r
        assert l > rbar
        assert rep.r_t[t + 1] <= 2.0 * (eps_meas + rbar / (l - rbar)) * r + 1e-15


def test_divergence_detector(s1_instance, s1_reference, monkeypatch):
    # three consecutive doublings of the reference distance flag divergence
    import softnewt.newton as newton_mod

    def runaway_step(inst, state, grad_tot, cfg, t=0):
        x_next = s1_reference + 2.5 * (state.x - s1_reference)
        return x_next, newton_mod.StepDiagnostics()

    monkeypatch.setattr(newton_mod, "newton_step", runaway_step)
    rep = newton_mod.solve(
        s1_instance, s1_reference + np.array([0.01, 0.0]), exact_cfg(max_iters=20),
        x_ref=s1_reference,
    )
    assert rep.status == "diverged"
    assert len(rep.ratios) >= 3 and all(r >= 2.0 for r in rep.ratios[-3:])


def test_config_validation():
    with pytest.raises(ValueError, match="strict"):
        sn.NewtonConfig(eps=0.5)
    with pytest.raises(ValueError, match="strict"):
        sn.NewtonConfig(delta=0.5)
    with pytest.raises(ValueError, match="strict"):
        sn.NewtonConfig(damping=True)
    sn.NewtonConfig(eps=0.5, delta=0.5, damping=True, strict=False)
    with pytest.raises(ValueError, match="mode"):
        sn.NewtonConfig(mode="bfgs")
    with pytest.raises(ValueError, match="eps0"):
        sn.NewtonConfig(eps0=0.7)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        sn.NewtonConfig(delta=1.0, strict=False)  # in every mode, as eps0 is
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            sn.NewtonConfig(eps=eps, strict=False)
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="stationarity_tol must be nonnegative and finite"):
            sn.NewtonConfig(stationarity_tol=tol)
    sn.NewtonConfig(stationarity_tol=0.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            sn.NewtonConfig(seed=seed)
    sn.NewtonConfig(seed=2**64 - 1)


# every class of float a config range must sort: nan, +-inf, subnormals, signed zeros, negatives, the range ends
CONFIG_FLOATS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 0.5, 1.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(eps=CONFIG_FLOATS, delta=CONFIG_FLOATS, eps0=CONFIG_FLOATS, tol=CONFIG_FLOATS, strict=st.booleans())
def test_config_constructs_iff_every_float_lies_in_its_range(eps, delta, eps0, tol, strict):
    # eps finite and > 0, delta in (0, 1), both below 0.1 when strict; eps0 in (0, 0.5); stationarity_tol finite, >= 0
    valid = (
        math.isfinite(eps) and eps > 0 and (not strict or eps < 0.1)
        and 0 < delta < (0.1 if strict else 1)
        and 0 < eps0 < 0.5
        and math.isfinite(tol) and tol >= 0
    )
    build = functools.partial(sn.NewtonConfig, eps=eps, delta=delta, eps0=eps0, stationarity_tol=tol, strict=strict)
    if valid:
        build()
    else:
        with pytest.raises(ValueError):
            build()


def test_run_report_json_holds_every_field(s1_instance, s1_reference):
    # every field but the wall times is in the deterministic golden block; they are in timing
    cfg = exact_cfg(max_iters=3)
    rep = sn.solve(s1_instance, np.zeros(2), cfg, x_ref=s1_reference)
    doc = rep.to_json(cfg, "inst.json", s1_reference)
    assert set(doc) == {"schema_version", "golden", "timing"}
    names = {f.name for f in dataclasses.fields(sn.RunReport)} - {"wall_times_ms"}
    assert names <= set(doc["golden"]) and "wall_times_ms" not in doc["golden"]
    assert doc["timing"]["wall_times_ms"] is rep.wall_times_ms
    assert doc["golden"]["x0"] is rep.iterates[0] and doc["golden"]["n_iters"] == rep.n_iters
    assert doc["golden"]["config"] == dataclasses.asdict(cfg) and doc["golden"]["instance_path"] == "inst.json"


def test_damping_counts_halvings(s1_instance, s1_reference):
    # force an uphill full step by feeding a gradient from a far point; the
    # damped step must not increase the loss
    cfg = sn.NewtonConfig(mode="exact", eps=1e-9, damping=True, strict=False,
                          max_iters=50, stationarity_tol=1e-12)
    rep = sn.solve(s1_instance, s1_reference + np.array([0.4, 0.4]), cfg)
    assert rep.status == "converged"
    assert np.all(np.diff(rep.loss_tots) <= 1e-14)


def test_norm_budget_warning(s1_instance):
    with pytest.warns(UserWarning, match="norm budget"):
        sn.solve(s1_instance, np.full(2, 5.0), exact_cfg(max_iters=1))


def test_norms_past_square_overflow_are_reported():
    # A1 = [[-1], [-2]]: at x = 1e200 the squares of x and of the gradient overflow, their norms do not
    inst = sn.ProblemInstance(
        A1=np.array([[-1.0], [-2.0]]), A2=np.array([[0.5, -0.5]]), b=np.array([0.1]), w=np.array([1.0, 1.0]),
        activation=sn.Activation("tanh"), R=3.0,
    )
    with pytest.warns(UserWarning, match=r"\|\|x0\|\| = 1e\+308 exceeds"), pytest.warns(DenominatorFloorWarning):
        sn.solve(inst, np.array([1e308]), exact_cfg(max_iters=0))
    with pytest.warns(UserWarning, match=r"\|\|x0\|\| = 1e\+200 exceeds"), pytest.warns(DenominatorFloorWarning):
        rep = sn.solve(inst, np.array([1e200]), exact_cfg(eps=1e-8), x_ref=np.zeros(1))
    assert rep.r_t[0] == 1e200 and rep.grad_norms[0] == pytest.approx(5e200, rel=1e-15)
    assert all(math.isfinite(r) for r in rep.r_t + rep.ratios)
    assert sn.basin_check(np.array([1e200]), np.zeros(1), M=1e-300, l=1.0)


def test_exact_step_memory_is_linear_in_n():
    # one exact step at n = 2e4 holds at most one m x n temporary (G's factor
    # A2 o f) and n-vectors, never A2 J or diag(B): its peak stays within
    # 1.25 max(m, d) n floats
    n, m, d = 20_000, 16, 8
    inst, _ = sn.gen_instance(n, m, d, "tanh", 1, noise=0.05)
    x = 0.3 * np.random.default_rng(1).standard_normal(d)
    state = sn.eval_forward(inst, x)
    grad_tot = sn.grad(state, inst).grad_tot
    inst.ridge_gram  # formed once per instance, not per step
    tracemalloc.start()
    try:
        sn.newton_step(inst, state, grad_tot, exact_cfg())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * max(m, d) * n * 8, peak


def test_sketched_step_memory_is_linear_in_n():
    # one sketched step at n = 2e4 draws 5752 rows; diag(B) squares the centred A2 in place,
    # one m x n array, so the step's peak stays within 1.5 max(m, d) n floats
    n, m, d = 20_000, 16, 8
    inst, _ = sn.gen_instance(n, m, d, "tanh", 1, noise=0.05)
    x = 0.3 * np.random.default_rng(1).standard_normal(d)
    state = sn.eval_forward(inst, x)
    grad_tot = sn.grad(state, inst).grad_tot
    inst.ridge_gram, inst.ridge_distribution  # formed once per instance, not per step
    tracemalloc.start()
    try:
        _, diag = sn.newton_step(inst, state, grad_tot, sn.NewtonConfig(mode="sketched", eps0=0.45))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not diag.sketch.exact and len(diag.sketch.kept_indices) == 5752
    assert peak <= 1.5 * max(m, d) * n * 8, peak


def test_solve_rejects_an_x0_that_is_not_a_vector(s1_instance):
    d = s1_instance.d
    for x0 in (np.zeros((2, d)), np.zeros(d + 1), np.float64(0.0)):
        with pytest.raises(ShapeError, match=f"length {d}"):
            sn.solve(s1_instance, x0, exact_cfg())


def cho_reference(H, rhs, what):
    """The scipy wrapper route that ``_spd_solve`` replaced, kept as its reference."""
    try:
        cf = scipy.linalg.cho_factor(H, lower=True)
    except np.linalg.LinAlgError as exc:
        minor = int(re.match(r"(\d+)-th leading minor", str(exc)).group(1))
        lam = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
        why = f"Cholesky failed at leading minor {minor} (lambda_min ~ {lam:.6g})"
        raise NotPositiveDefiniteError(f"{what} is not numerically positive definite: {why}", lam) from exc
    return scipy.linalg.cho_solve(cf, rhs)


def solve_outcome(route, H, rhs):
    """The route's solution, or the message and lambda_min of the NotPositiveDefiniteError it raised."""
    try:
        return route(H, rhs, "the Hessian")
    except NotPositiveDefiniteError as exc:
        return str(exc), exc.lambda_min


@st.composite
def spd_systems(draw):
    """F F^T + shift I for d <= 12, from well conditioned through singular to indefinite, and a right side.

    F may be rank deficient (hypothesis shrinks toward zeros), and an
    optional perturbation of 1e-12 makes H slightly asymmetric.
    """
    d = draw(st.integers(1, 12))
    F = draw(hnp.arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    shift = draw(st.sampled_from([1.0, 1e-3, 1e-8, 1e-13, 0.0, -1e-13, -1e-3, -1.0]))
    H = F @ F.T + shift * np.eye(d)
    if draw(st.booleans()):
        H += draw(hnp.arrays(float, (d, d), elements=st.floats(-1e-12, 1e-12)))
    return H, draw(hnp.arrays(float, d, elements=st.floats(-1e3, 1e3)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(system=spd_systems())
@example(system=(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2)))  # indefinite
@example(system=(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.ones(2)))  # near singular
@example(system=(-np.eye(2), np.array([np.inf, 1.0])))  # the factorization fails before rhs is read
def test_spd_solve_equals_cho_factor_and_solve(system):
    H, rhs = system
    got, ref = solve_outcome(_spd_solve, H, rhs), solve_outcome(cho_reference, H, rhs)
    if isinstance(ref, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
    else:
        assert got == ref
