import numpy as np
import pytest
from conftest import random_instance, random_points

import softnewt as sn
from softnewt.oracle import FdConfig, fd_gradient


def test_derivatives_match_golden(s1_instance, s1_golden, s1_state):
    g = s1_golden["derivatives"]
    P = sn.eval_p(s1_state, s1_instance)
    Q2 = sn.eval_Q2(s1_state, s1_instance)
    q2 = s1_state.q2
    gb = sn.grad(s1_state, s1_instance)
    np.testing.assert_allclose(P, g["P"], rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(Q2, g["Q2"], rtol=1e-13)
    np.testing.assert_allclose(q2, g["q2"], rtol=1e-12)
    np.testing.assert_allclose(gb.grad_L, g["grad_L"], rtol=1e-11)
    np.testing.assert_allclose(gb.grad_reg, g["grad_reg"], rtol=1e-13)
    np.testing.assert_allclose(gb.grad_tot, g["grad_tot"], rtol=1e-12)
    np.testing.assert_allclose(gb.grad_tot, gb.grad_L + gb.grad_reg, rtol=0, atol=0)


def test_p_trivial_cases():
    inst0 = sn.ProblemInstance(
        A1=np.zeros((3, 2)), A2=np.ones((1, 3)) / 3, b=np.zeros(1), w=np.ones(3),
        activation=sn.Activation("tanh"), R=1.0,
    )
    st0 = sn.eval_forward(inst0, np.array([0.4, -0.2]))
    np.testing.assert_array_equal(sn.eval_p(st0, inst0), np.zeros((3, 2)))

    inst1 = sn.ProblemInstance(
        A1=np.array([[0.5, -0.5]]), A2=np.array([[1.0]]), b=np.zeros(1), w=np.ones(1),
        activation=sn.Activation("tanh"), R=1.0,
    )
    st1 = sn.eval_forward(inst1, np.array([0.3, 0.1]))
    np.testing.assert_allclose(sn.eval_p(st1, inst1), np.zeros((1, 2)), atol=1e-16)


def test_q2_identity_and_zero_residual(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    inst_id = sn.ProblemInstance(
        A1=s1_instance.A1, A2=s1_instance.A2, b=s1_instance.b, w=s1_instance.w,
        activation=sn.Activation("identity"), R=s1_instance.R,
    )
    st_ = sn.eval_forward(inst_id, x)
    Q2 = sn.eval_Q2(st_, inst_id)
    np.testing.assert_array_equal(Q2, inst_id.A2)

    st0 = sn.eval_forward(s1_instance, x)
    inst_fit = sn.ProblemInstance(
        A1=s1_instance.A1, A2=s1_instance.A2, b=st0.hval, w=s1_instance.w,
        activation=sn.Activation("tanh"), R=s1_instance.R,
    )
    st_fit = sn.eval_forward(inst_fit, x)
    np.testing.assert_allclose(st_fit.q2, np.zeros(3), atol=1e-16)


def test_stationary_when_residual_and_ridge_vanish(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    st0 = sn.eval_forward(s1_instance, x)
    inst = sn.ProblemInstance(
        A1=s1_instance.A1, A2=s1_instance.A2, b=st0.hval, w=np.zeros(3),
        activation=sn.Activation("tanh"), R=s1_instance.R,
    )
    gb = sn.grad(sn.eval_forward(inst, x), inst)
    np.testing.assert_allclose(gb.grad_tot, np.zeros(2), atol=1e-15)


def test_gradient_zero_for_zero_matrix():
    inst = sn.ProblemInstance(
        A1=np.zeros((3, 2)), A2=np.ones((2, 3)) / 3, b=np.array([0.4, -0.1]),
        w=np.ones(3), activation=sn.Activation("sigmoid"), R=1.0,
    )
    gb = sn.grad(sn.eval_forward(inst, np.array([0.7, -0.3])), inst)
    np.testing.assert_array_equal(gb.grad_tot, np.zeros(2))


def test_gradient_against_finite_differences_random():
    cfg = FdConfig()
    for seed in range(100):
        inst = random_instance(seed)
        x = random_points(inst, seed + 5000, 1)[0]
        gb = sn.grad(sn.eval_forward(inst, x), inst)
        g_fd = fd_gradient(lambda y: sn.eval_forward(inst, y).loss_tot, x, cfg)
        err = np.linalg.norm(gb.grad_tot - g_fd) / max(np.linalg.norm(g_fd), 1e-30)
        assert err <= 1e-6, f"seed {seed}: relative error {err:.3e}"


def test_chain_consistency_and_column_sums():
    for seed in range(40):
        inst = random_instance(seed)
        x = random_points(inst, seed + 7000, 1)[0]
        st_ = sn.eval_forward(inst, x)
        gb = sn.grad(st_, inst)
        P = sn.eval_p(st_, inst)
        scale = max(1.0, float(np.max(np.abs(st_.q2))))
        assert np.linalg.norm(gb.grad_L - P.T @ st_.q2) <= 1e-12 * scale
        assert np.max(np.abs(P.sum(axis=0))) <= 1e-10


def test_q2_norm_bound_on_admissible_points():
    # ||q2|| <= R R_h (R + R_h) with the exercised radius, whenever alpha >= beta
    from softnewt.bounds import measured_radius

    for seed in range(20):
        inst = random_instance(seed)
        rh = inst.activation.R_h
        for x in random_points(inst, seed + 9000, 3):
            st_ = sn.eval_forward(inst, x)
            if st_.alpha < inst.beta:
                continue
            R = measured_radius(inst, [x])
            assert np.linalg.norm(st_.q2) <= R * rh * (R + rh) + 1e-12
