import numpy as np
import pytest
from conftest import random_instance, random_points

import softnewt as sn
from softnewt.hessian import B_TERM_NAMES, b_terms, g_terms, hess_L_entries, kernel
from softnewt.oracle import FdConfig, fd_hessian, spectral


def grad_tot_at(inst):
    return lambda y: sn.grad(sn.eval_forward(inst, y), inst).grad_tot


def test_hessian_matches_golden(s1_instance, s1_golden, s1_state):
    g = s1_golden["hessian"]
    hb = sn.hess_L(s1_state, s1_instance)
    B = kernel(s1_state, s1_instance)
    terms = b_terms(s1_state, s1_instance)
    np.testing.assert_allclose(B, g["B"], rtol=1e-11, atol=1e-16)
    np.testing.assert_allclose(hb.H_L, g["H_L"], rtol=1e-11)
    np.testing.assert_allclose(hb.H_tot, g["H_tot"], rtol=1e-12)
    np.testing.assert_allclose(hb.H_tot, g["H_tot_fd"], rtol=1e-12)
    assert len(terms) == 12 and len(B_TERM_NAMES) == 12
    for ours, golden in zip(terms, g["terms"]):
        np.testing.assert_allclose(ours, golden, rtol=1e-10, atol=1e-17)
    np.testing.assert_allclose(sum(terms), B, atol=1e-15)


def test_hess_f_pair_golden_and_trivial(s1_instance, s1_golden, s1_state):
    got = sn.hess_f_pair(s1_state, s1_instance, 0, 1)
    np.testing.assert_allclose(got, s1_golden["hess_f_pair_01"], rtol=1e-11, atol=1e-16)

    inst0 = sn.ProblemInstance(
        A1=np.zeros((3, 2)), A2=np.ones((1, 3)) / 3, b=np.zeros(1), w=np.ones(3),
        activation=sn.Activation("tanh"), R=1.0,
    )
    st0 = sn.eval_forward(inst0, np.array([0.1, 0.2]))
    np.testing.assert_array_equal(sn.hess_f_pair(st0, inst0, 0, 1), np.zeros(3))

    inst1 = sn.ProblemInstance(
        A1=np.array([[0.5, -0.25]]), A2=np.array([[1.0]]), b=np.zeros(1), w=np.ones(1),
        activation=sn.Activation("tanh"), R=1.0,
    )
    st1 = sn.eval_forward(inst1, np.array([0.2, 0.4]))
    np.testing.assert_allclose(sn.hess_f_pair(st1, inst1, 0, 1), np.zeros(1), atol=1e-17)

    with pytest.raises(IndexError):
        sn.hess_f_pair(s1_state, s1_instance, 0, 2)


def test_hess_f_pair_matches_finite_differences(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    h = 1e-4
    for i in range(2):
        for j in range(2):
            xs = [x.copy() for _ in range(4)]
            xs[0][i] += h; xs[0][j] += h
            xs[1][i] += h; xs[1][j] -= h
            xs[2][i] -= h; xs[2][j] += h
            xs[3][i] -= h; xs[3][j] -= h
            fs = [sn.eval_forward(s1_instance, xp).f for xp in xs]
            fd = (fs[0] - fs[1] - fs[2] + fs[3]) / (4 * h * h)
            st_ = sn.eval_forward(s1_instance, x)
            np.testing.assert_allclose(sn.hess_f_pair(st_, s1_instance, i, j), fd, atol=1e-5)


def test_hessian_trivial_cases():
    inst0 = sn.ProblemInstance(
        A1=np.zeros((3, 2)), A2=np.ones((2, 3)) / 3, b=np.array([0.3, -0.2]),
        w=np.ones(3), activation=sn.Activation("softplus"), R=1.0,
    )
    hb0 = sn.hess_L(sn.eval_forward(inst0, np.array([1.0, -1.0])), inst0)
    np.testing.assert_array_equal(hb0.H_L, np.zeros((2, 2)))

    # w = 0 leaves H_tot = H_L
    inst_w0 = sn.ProblemInstance(
        A1=np.array([[0.3, 0.1], [-0.2, 0.4]]), A2=np.array([[0.5, 0.5]]),
        b=np.array([0.1]), w=np.zeros(2), activation=sn.Activation("tanh"), R=1.0,
    )
    hbw = sn.hess_L(sn.eval_forward(inst_w0, np.array([0.2, 0.2])), inst_w0)
    np.testing.assert_array_equal(hbw.H_tot, hbw.H_L)


def test_zero_residual_identity_structure():
    # c = 0 with identity h: only the Gauss-Newton block survives and is PSD
    rng = np.random.default_rng(3)
    A1 = np.eye(3)
    A2 = rng.uniform(-0.5, 0.5, size=(2, 3))
    x = np.array([0.2, -0.1, 0.4])
    pre = sn.ProblemInstance(
        A1=A1, A2=A2, b=np.zeros(2), w=np.ones(3), activation=sn.Activation("identity"), R=1.2,
    )
    st_pre = sn.eval_forward(pre, x)
    inst = sn.ProblemInstance(
        A1=A1, A2=A2, b=st_pre.hval, w=np.ones(3), activation=sn.Activation("identity"), R=1.2,
    )
    st_ = sn.eval_forward(inst, x)
    hb = sn.hess_L(st_, inst)
    f = st_.f
    J = np.diag(f) - np.outer(f, f)
    expected_B = J @ A2.T @ A2 @ J
    np.testing.assert_allclose(kernel(st_, inst), expected_B, atol=1e-15)
    for term in b_terms(st_, inst)[4:]:
        np.testing.assert_allclose(term, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(hb.H_tot, expected_B + np.eye(3), atol=1e-14)
    lo, _, _ = spectral(hb.H_L)
    assert lo >= -1e-10


def test_single_coordinate_terms_sum_to_zero():
    inst = sn.ProblemInstance(
        A1=np.array([[0.9]]), A2=np.array([[1.0]]), b=np.array([0.4]),
        w=np.ones(1), activation=sn.Activation("tanh"), R=1.0,
    )
    st_ = sn.eval_forward(inst, np.array([0.5]))
    terms = b_terms(st_, inst)
    assert all(t.shape == (1, 1) for t in terms)
    assert abs(sum(t[0, 0] for t in terms)) <= 1e-15
    np.testing.assert_allclose(sn.hess_L(st_, inst).H_L, np.zeros((1, 1)), atol=1e-15)


def test_hessian_against_finite_differences_random():
    cfg = FdConfig()
    for seed in range(50):
        inst = random_instance(seed)
        x = random_points(inst, seed + 11000, 1)[0]
        st_ = sn.eval_forward(inst, x)
        hb = sn.hess_L(st_, inst)
        H_fd = fd_hessian(lambda y: sn.grad(sn.eval_forward(inst, y), inst).grad_L, x, cfg)
        err = np.linalg.norm(hb.H_L - H_fd) / max(np.linalg.norm(H_fd), 1e-30)
        assert err <= 1e-5, f"seed {seed}: relative Frobenius error {err:.3e}"


def test_factored_route_equals_per_entry_and_kernel():
    for seed in range(25):
        inst = random_instance(seed)
        x = random_points(inst, seed + 13000, 1)[0]
        st_ = sn.eval_forward(inst, x)
        hb = sn.hess_L(st_, inst)
        scale = max(1.0, float(np.max(np.abs(hb.H_L))))
        assert np.max(np.abs(hb.H_L - hess_L_entries(st_, inst))) <= 1e-10 * scale
        B = kernel(st_, inst)
        assert B.shape == (inst.n, inst.n)
        np.testing.assert_allclose(inst.A1.T @ B @ inst.A1, hb.H_L, atol=1e-11 * scale)
        B_scale = max(1.0, np.max(np.abs(B)))
        np.testing.assert_allclose(sum(b_terms(st_, inst)), B, atol=1e-12 * B_scale)
        np.testing.assert_allclose(hb.B_diag, np.diag(B), atol=1e-12 * B_scale)


def test_hessian_symmetry_and_psd_first_block():
    for seed in range(20):
        inst = random_instance(seed)
        x = random_points(inst, seed + 17000, 1)[0]
        st_ = sn.eval_forward(inst, x)
        hb = sn.hess_L(st_, inst)
        assert np.max(np.abs(hb.H_L - hb.H_L.T)) <= 1e-10
        assert np.max(np.abs(hb.H_tot - hb.H_tot.T)) <= 1e-10
        gb = sn.grad(st_, inst)
        J = np.diag(st_.f) - np.outer(st_.f, st_.f)
        gauss = J @ gb.Q2.T @ gb.Q2 @ J
        lo, _, _ = spectral(gauss)
        assert lo >= -1e-10


def test_kernel_annihilates_ones(s1_state, s1_instance):
    # shift invariance of the softmax forces B @ 1 = 0
    B = kernel(s1_state, s1_instance)
    np.testing.assert_allclose(B @ np.ones(3), np.zeros(3), atol=1e-15)


def test_g_terms_recompose_hessian(s1_state, s1_instance):
    G = g_terms(s1_state, s1_instance)
    H = G["G1"] + G["G2"] + G["G3"] - G["G4"] - 0.5 * (G["G5"] + G["G5"].T) + G["G6"]
    hb = sn.hess_L(s1_state, s1_instance)
    np.testing.assert_allclose(H, hb.H_L, atol=1e-14)
