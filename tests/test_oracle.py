import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softnewt as sn
from softnewt.model import L_H
from softnewt.oracle import ProbeEvaluationError, fd_gradient, fd_hessian, spectral


def test_fd_gradient_constant_and_quadratic():
    np.testing.assert_array_equal(
        fd_gradient(lambda X: np.full(len(X), 3.0), np.array([1.0, -2.0])), np.zeros(2)
    )
    g = fd_gradient(lambda X: 0.5 * np.sum(X * X, axis=1), np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-9)


def test_fd_gradient_matches_golden_on_s1(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    loss = lambda y: sn.eval_forward(s1_instance, y).loss_tot
    # the bound the 4-point stencil implied: within 1e-8 of it, and it within (1e-9, rtol 1e-7) of the golden one
    np.testing.assert_allclose(fd_gradient(loss, x), s1_golden["derivatives"]["grad_tot"], atol=1e-8 + 1e-9)


def test_fd_hessian_linear_and_cubic():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    H = fd_hessian(lambda X: X @ M.T, np.array([0.3, -0.4]))
    np.testing.assert_allclose(H, M, atol=1e-8)
    H1 = fd_hessian(lambda X: 3.0 * X[:, :1] ** 2, np.array([2.0]))
    assert H1[0, 0] == pytest.approx(12.0, abs=1e-6)


def asymmetry(grad_func, x):
    """max |J - J^T| of ``fd_gradient``'s unsymmetrized Jacobian of ``grad_func``, one per point of a stack."""
    J = fd_gradient(grad_func, x)
    return np.max(np.abs(J - np.swapaxes(J, -1, -2)), axis=(-2, -1), initial=0.0)


def test_fd_hessian_asymmetry_is_small_on_s1(s1_instance, s1_golden):
    x = np.array(s1_golden["x"])
    grad_fn = lambda y: sn.grad(sn.eval_forward(s1_instance, y), s1_instance).grad_tot
    H, asym = fd_hessian(grad_fn, x), asymmetry(grad_fn, x)
    assert asym <= 1e-7 * max(1.0, float(np.max(np.abs(H))))
    np.testing.assert_allclose(H, s1_golden["hessian"]["H_tot"], atol=1e-7)


def test_probe_error_names_coordinate_and_offset():
    def bad(X):
        return np.where(X[:, 1] > 1.0, np.inf, np.sum(X * X, axis=1))

    with pytest.raises(ProbeEvaluationError) as exc:
        fd_gradient(bad, np.array([0.0, 1.0]))
    assert exc.value.coordinate == 1
    assert exc.value.offset > 0


def test_probe_error_for_a_quotient_past_float64():
    # finite values +-1e308 either side of x_1 = 0: their difference overflows
    def steep(X):
        return np.where(X[:, 1] > 0.0, 1e308, -1e308) + X[:, 0]

    with pytest.raises(ProbeEvaluationError, match="quotient past float64 at coordinate 1") as exc:
        fd_gradient(steep, np.array([0.5, 0.0]))
    assert exc.value.coordinate == 1 and exc.value.offset == 1e-5


def test_spectral_trivial_and_golden(s1_instance, s1_golden, s1_state):
    lo, hi, vals = spectral(np.eye(3))
    assert (lo, hi) == (1.0, 1.0)
    np.testing.assert_array_equal(vals, np.ones(3))
    lo, hi, _ = spectral(np.diag([-2.0, 5.0]))
    assert (lo, hi) == (-2.0, 5.0)

    lo, hi, vals = spectral(sn.kernel(s1_state, s1_instance))
    np.testing.assert_allclose(vals, s1_golden["hessian"]["B_spectrum"], atol=1e-13)
    R = max(np.linalg.norm(s1_instance.A1, 2), np.linalg.norm(s1_instance.A2, 2))
    R_h = s1_instance.R_h
    psd = 12.0 * R_h * L_H * R * (R + R_h)
    assert max(abs(lo), abs(hi)) <= psd


def test_spectral_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the tolerance is 1e-8 max(1, max|M|): absolute below 1 (not 1e-8 of the largest entry 1e-4),
    # relative above it
    spectral(np.array([[1e-4, 0.9e-8], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        spectral(np.array([[1e-4, 1.1e-8], [0.0, 0.0]]))
    spectral(np.array([[1e6, 0.9e-2], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        spectral(np.array([[1e6, 1.1e-2], [0.0, 0.0]]))


def test_spectral_of_entries_whose_sum_overflows():
    # M + M^T would read inf on the diagonal; the halves are added instead
    M = np.diag([1e308, -1e308])
    lo, hi, _ = spectral(M)
    assert (lo, hi) == (-1e308, 1e308)
    lo, hi, _ = spectral(np.stack([np.eye(2), M]))
    assert lo.tolist() == [1.0, -1e308] and hi.tolist() == [1.0, 1e308]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_rejects_a_non_finite_matrix(bad):
    # NaN compares false, so the asymmetry test alone would let [[nan, 0], [0, 1]] through
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        spectral(M)
    stack = np.stack([np.eye(2), M[::-1, ::-1], np.eye(2)])
    with pytest.raises(ValueError, match="non-finite"):
        spectral(stack)


def loop_fd(func, x):
    """The per-coordinate loop that the stacked stencil replaced, kept as its reference.

    ``func`` takes one point. Returns the rows d/dx_i of ``func`` at x, probing
    coordinate by coordinate at +h then -h, h = 1e-5 (1 + |x_i|), one call per probe.
    """
    h = 1e-5 * (1.0 + np.abs(x))

    def probe(i, offset):
        xp = x.copy()
        xp[i] += offset
        val = func(xp)
        if not np.all(np.isfinite(val)):
            raise ProbeEvaluationError(f"non-finite probe at coordinate {i}, offset {offset:+.3e}", i, offset)
        return val

    return np.array([(probe(i, h[i]) - probe(i, -h[i])) / (2.0 * h[i]) for i in range(x.size)])


def loop_fd_hessian(grad_func, x):
    H = loop_fd(grad_func, x).T
    return 0.5 * (H + H.T), float(np.max(np.abs(H - H.T)))


def test_stacked_stencil_equals_loop_reference(s1_instance, s1_golden):
    inst = s1_instance
    x = np.array(s1_golden["x"])
    loss = lambda y: sn.eval_forward(inst, y).loss_tot
    grad_fn = lambda y: sn.grad(sn.eval_forward(inst, y), inst).grad_tot
    np.testing.assert_array_equal(fd_gradient(loss, x), loop_fd(loss, x))
    H, asym = fd_hessian(grad_fn, x), asymmetry(grad_fn, x)
    H_ref, asym_ref = loop_fd_hessian(grad_fn, x)
    np.testing.assert_array_equal(H, H_ref)
    assert asym == asym_ref

    M = np.array([[2.0, 0.5, -1.0], [0.5, 3.0, 0.25], [-1.0, 0.25, 1.5]])
    xq = np.array([0.3, -1.7, 12.0])
    # M x one row at a time, as a point or a stack: a matrix-matrix product would round differently
    lin = lambda X: np.matmul(M, X[..., None])[..., 0]
    quad = lambda X: 0.5 * np.sum(X * lin(X), axis=-1)
    np.testing.assert_array_equal(fd_gradient(quad, xq), loop_fd(quad, xq))
    H, asym = fd_hessian(lin, xq), asymmetry(lin, xq)
    H_ref, asym_ref = loop_fd_hessian(lin, xq)
    np.testing.assert_array_equal(H, H_ref)
    assert asym == asym_ref


def test_probe_error_matches_loop_reference():
    # the first non-finite probe in stencil order is reported: every probe of
    # coordinate 1 is non-finite, and so is one of coordinate 2
    x = np.array([0.5, 1.0, -0.3])

    def bad(X):
        return np.where((X[..., 1] != 1.0) | (X[..., 2] < -0.3), np.inf, np.sum(X * X, axis=-1))

    errors = []
    for fn in (lambda: fd_gradient(bad, x), lambda: loop_fd(bad, x)):
        with pytest.raises(ProbeEvaluationError) as exc:
            fn()
        errors.append((exc.value.coordinate, exc.value.offset, str(exc.value)))
    assert errors[0] == errors[1]


def test_stencil_rejects_wrong_value_count():
    with pytest.raises(ValueError, match="stack"):
        fd_gradient(lambda X: 3.0, np.array([1.0, 2.0]))


# row-independent functions of a (k, d) stack, as the oracle requires: each row's value is the
# one that row gives alone
M3 = np.array([[2.0, 0.5, -1.0], [0.5, 3.0, 0.25], [-1.0, 0.25, 1.5]])
STACK_FUNCS = {
    "sum of squares": (lambda X: 0.5 * np.sum(X * X, axis=-1), None),
    "linear": (None, lambda X: np.matmul(M3[: X.shape[-1], : X.shape[-1]], X[..., None])[..., 0]),
    "cubic": (lambda X: np.sum(np.sin(X) * X**3, axis=-1), lambda X: np.cos(X) * X**3 + 3.0 * np.sin(X) * X**2),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    X=st.integers(1, 3).flatmap(
        lambda d: hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(d)), elements=st.floats(-1e3, 1e3))
    ),
    name=st.sampled_from(sorted(STACK_FUNCS)),
)
def test_stacked_points_equal_per_point_calls(X, name):
    scalar, vector = STACK_FUNCS[name]
    if scalar is not None:
        stacked = fd_gradient(scalar, X)
        assert stacked.shape == X.shape
        for x, row in zip(X, stacked):
            assert np.array_equal(row, fd_gradient(scalar, x))
    if vector is not None:
        H, asym = fd_hessian(vector, X), asymmetry(vector, X)
        assert H.shape == X.shape + X.shape[-1:] and asym.shape == X.shape[:1]
        for x, H_x, asym_x in zip(X, H, asym):
            H_ref, asym_ref = fd_hessian(vector, x), asymmetry(vector, x)
            assert np.array_equal(H_x, H_ref) and asym_x == asym_ref


def test_stacked_points_raise_the_first_point_loop_error():
    # point 0's quotient passes float64 (finite values +-1e308 either side of x_1 = 0), and
    # every value at point 1 is non-finite: a loop over the points raises point 0's error
    def f(X):
        steep = np.where(X[:, 1] > 0.0, 1e308, -1e308) + X[:, 0]
        return np.where(X[:, 0] > 5.0, np.nan, steep)

    X = np.array([[0.5, 0.0], [7.0, 0.3]])
    errors = []
    for fn in (lambda: fd_gradient(f, X), lambda: [fd_gradient(f, x) for x in X]):
        with pytest.raises(ProbeEvaluationError) as exc:
            fn()
        errors.append((exc.value.coordinate, exc.value.offset, str(exc.value)))
    assert errors[0] == errors[1] == (1, 1e-5, "difference quotient past float64 at coordinate 1")
    # with point 0 fine, point 1's first non-finite value is reported
    X[0, 1] = 0.5
    with pytest.raises(ProbeEvaluationError, match="non-finite probe at coordinate 0") as exc:
        fd_gradient(f, X)
    assert exc.value.offset == 1e-5 * 8.0
