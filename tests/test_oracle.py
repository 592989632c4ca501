import numpy as np
import pytest

import softnewt as sn
from softnewt.oracle import FdConfig, ProbeEvaluationError, fd_gradient, fd_hessian, spectral


def test_fd_gradient_constant_and_quadratic():
    np.testing.assert_array_equal(
        fd_gradient(lambda x: 3.0, np.array([1.0, -2.0])), np.zeros(2)
    )
    g = fd_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-9)


def test_fd_gradient_schemes_agree_on_s1(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    loss = lambda y: sn.eval_forward(s1_instance, y).loss_tot
    g2 = fd_gradient(loss, x, FdConfig(scheme="central2"))
    g4 = fd_gradient(loss, x, FdConfig(scheme="central4"))
    assert np.linalg.norm(g2 - g4) <= 1e-8
    np.testing.assert_allclose(g4, s1_golden["derivatives"]["grad_tot"], atol=1e-9)


def test_fd_hessian_linear_and_cubic():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    H = fd_hessian(lambda x: M @ x, np.array([0.3, -0.4]))
    np.testing.assert_allclose(H, M, atol=1e-8)
    H1 = fd_hessian(lambda x: np.array([3.0 * x[0] ** 2]), np.array([2.0]))
    assert H1[0, 0] == pytest.approx(12.0, abs=1e-6)


def test_fd_hessian_asymmetry_is_small_on_s1(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    grad_fn = lambda y: sn.grad(sn.eval_forward(s1_instance, y), s1_instance).grad_tot
    H, asym = fd_hessian(grad_fn, x, return_asymmetry=True)
    assert asym <= 1e-7 * max(1.0, float(np.max(np.abs(H))))
    np.testing.assert_allclose(H, s1_golden["hessian"]["H_tot"], atol=1e-7)


def test_probe_error_names_coordinate_and_offset():
    def bad(x):
        return np.inf if x[1] > 1.0 else float(x @ x)

    with pytest.raises(ProbeEvaluationError) as exc:
        fd_gradient(bad, np.array([0.0, 1.0]), FdConfig(step_mode="absolute", base_step=1e-2))
    assert exc.value.coordinate == 1
    assert exc.value.offset > 0


def test_spectral_trivial_and_golden(s1_instance, s1_golden, s1_state):
    lo, hi, vals = spectral(np.eye(3))
    assert (lo, hi) == (1.0, 1.0)
    np.testing.assert_array_equal(vals, np.ones(3))
    lo, hi, _ = spectral(np.diag([-2.0, 5.0]))
    assert (lo, hi) == (-2.0, 5.0)

    lo, hi, vals = spectral(sn.kernel(s1_state, s1_instance))
    np.testing.assert_allclose(vals, s1_golden["hessian"]["B_spectrum"], atol=1e-13)
    act = s1_instance.activation
    R = max(np.linalg.norm(s1_instance.A1, 2), np.linalg.norm(s1_instance.A2, 2))
    psd = 12.0 * act.R_h * act.L_h * R * (R + act.R_h)
    assert max(abs(lo), abs(hi)) <= psd


def test_spectral_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_fdconfig_validation():
    with pytest.raises(ValueError):
        FdConfig(step_mode="forward")
    with pytest.raises(ValueError):
        FdConfig(scheme="central3")
    with pytest.raises(ValueError):
        FdConfig(base_step=1.0)
