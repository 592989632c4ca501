import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softnewt as sn
from softnewt.model import (
    _LOG_MAX,
    ACTIVATION_KINDS,
    DenominatorFloorWarning,
    EvaluationOverflowError,
    ShapeError,
    estimate_activation_bound,
)
from softnewt.serialize import dumps


def test_forward_matches_golden(s1_instance, s1_golden, s1_state):
    g = s1_golden["forward"]
    st_ = s1_state
    np.testing.assert_allclose(st_.u, g["u"], rtol=1e-13)
    np.testing.assert_allclose(st_.alpha, g["alpha"], rtol=1e-13)
    np.testing.assert_allclose(st_.f, g["f"], rtol=1e-13)
    np.testing.assert_allclose(st_.a2f, g["a2f"], rtol=1e-13)
    np.testing.assert_allclose(st_.hval, g["hval"], rtol=1e-13)
    np.testing.assert_allclose(st_.hprime, g["hprime"], rtol=1e-13)
    np.testing.assert_allclose(st_.hdoubleprime, g["hdoubleprime"], rtol=1e-12)
    np.testing.assert_allclose(st_.c, g["c"], rtol=1e-12)
    assert st_.loss_L == pytest.approx(g["loss_L"], rel=1e-13)
    assert st_.loss_reg == pytest.approx(g["loss_reg"], rel=1e-13)
    assert st_.loss_tot == pytest.approx(g["loss_tot"], rel=1e-13)
    assert st_.loss_tot == st_.loss_L + st_.loss_reg


def test_zero_matrix_gives_uniform_softmax():
    inst = sn.ProblemInstance(
        A1=np.zeros((2, 1)),
        A2=np.ones((1, 2)),
        b=np.zeros(1),
        w=np.ones(2),
        activation=sn.Activation("tanh"),
        R=1.5,
    )
    st_ = sn.eval_forward(inst, np.array([3.7]))
    np.testing.assert_allclose(st_.u, [1.0, 1.0])
    assert st_.alpha == 2.0
    np.testing.assert_allclose(st_.f, [0.5, 0.5])


def test_single_coordinate_softmax_is_one():
    inst = sn.ProblemInstance(
        A1=np.array([[0.7]]),
        A2=np.array([[1.0]]),
        b=np.array([1.0]),
        w=np.ones(1),
        activation=sn.Activation("identity"),
        R=1.5,
    )
    st_ = sn.eval_forward(inst, np.array([0.3]))
    np.testing.assert_allclose(st_.f, [1.0])
    assert st_.loss_L == 0.0


def test_softmax_shift_invariance(s1_instance, s1_golden):
    # inject a constant row offset through an extra intercept column
    inst = s1_instance
    x = np.array(s1_golden["x"])
    f_base = sn.eval_forward(inst, x).f
    for gamma in (0.4, -1.1):
        A1_aug = np.hstack([inst.A1, np.ones((inst.n, 1))])
        inst_aug = sn.ProblemInstance(
            A1=A1_aug,
            A2=inst.A2,
            b=inst.b,
            w=inst.w,
            activation=sn.Activation(inst.activation.kind),
            R=np.linalg.norm(A1_aug, 2) * 1.01,
            beta=inst.beta,
        )
        f_shift = sn.eval_forward(inst_aug, np.append(x, gamma)).f
        np.testing.assert_allclose(f_shift, f_base, atol=1e-12)


def test_forward_normalization_and_positivity():
    for seed in range(30):
        from conftest import random_instance, random_points

        inst = random_instance(seed)
        for x in random_points(inst, seed + 1000, 3):
            st_ = sn.eval_forward(inst, x)
            assert abs(np.sum(np.abs(st_.f)) - 1.0) <= 1e-12
            assert np.all(st_.f > 0)
            assert st_.loss_L >= 0.0 and st_.loss_reg >= 0.0


def test_activation_identity_and_tanh_values():
    h, hp, hpp = sn.activation_eval(sn.Activation("identity"), np.array([3.0, -1.0]))
    np.testing.assert_array_equal(h, [3.0, -1.0])
    np.testing.assert_array_equal(hp, [1.0, 1.0])
    np.testing.assert_array_equal(hpp, [0.0, 0.0])
    h, hp, hpp = sn.activation_eval(sn.Activation("tanh"), np.array([0.0]))
    assert h[0] == 0.0 and hp[0] == 1.0 and hpp[0] == 0.0


def test_sigmoid_golden_triple(s1_golden):
    g = s1_golden["sigmoid_at_half"]
    h, hp, hpp = sn.activation_eval(sn.Activation("sigmoid"), np.array([0.5]))
    assert h[0] == pytest.approx(g["h"], rel=1e-15)
    assert hp[0] == pytest.approx(g["hprime"], rel=1e-14)
    assert hpp[0] == pytest.approx(g["hdoubleprime"], rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["identity", "tanh", "sigmoid", "softplus"]),
    y=st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6),
)
def test_activation_derivative_self_check(kind, y):
    act = sn.Activation(kind)
    y = np.asarray(y)
    eps = 1e-5
    hp_fd = (sn.activation_eval(act, y + eps)[0] - sn.activation_eval(act, y - eps)[0]) / (2 * eps)
    hp = sn.activation_eval(act, y)[1]
    np.testing.assert_allclose(hp, hp_fd, rtol=1e-8, atol=1e-10)


def test_activation_declared_constants_cover_derivatives():
    # L_h must upper-bound sup|h'| and sup|h''| on a wide grid
    y = np.linspace(-30, 30, 4001)
    for kind in ("identity", "tanh", "sigmoid", "softplus"):
        act = sn.Activation(kind)
        _, hp, hpp = sn.activation_eval(act, y)
        assert np.max(np.abs(hp)) <= act.L_h + 1e-12
        assert np.max(np.abs(hpp)) <= act.L_h + 1e-12


def test_overflow_error_names_coordinate():
    inst = sn.ProblemInstance(
        A1=np.array([[10.0], [800.0]]),
        A2=np.array([[1.0, 1.0]]),
        b=np.zeros(1),
        w=np.ones(2),
        activation=sn.Activation("tanh"),
        R=1000.0,
    )
    with pytest.raises(EvaluationOverflowError) as exc:
        sn.eval_forward(inst, np.array([1.0]))
    assert exc.value.coordinate == 1


def test_overflow_limit_is_log_dbl_max():
    # exp is finite up to log(DBL_MAX) = 709.78..., so exp(709.5) evaluates;
    # the next double above the limit, or a sum of finite exponentials past
    # DBL_MAX, raises without a numpy RuntimeWarning
    def inst_with(z0, z1):
        return sn.ProblemInstance(
            A1=np.array([[z0], [z1]]), A2=np.array([[1.0, 1.0]]), b=np.zeros(1), w=np.ones(2),
            activation=sn.Activation("tanh"), R=2000.0,
        )

    st_ = sn.eval_forward(inst_with(10.0, 709.5), np.array([1.0]))
    assert st_.u[1] == np.exp(709.5) and np.isfinite(st_.alpha)
    for z, coordinate in (((10.0, np.nextafter(_LOG_MAX, np.inf)), 1), ((709.5, 709.5), 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationOverflowError) as exc:
                sn.eval_forward(inst_with(*z), np.array([1.0]))
        assert exc.value.coordinate == coordinate


def test_denominator_floor_warning():
    inst = sn.ProblemInstance(
        A1=np.array([[-50.0]]),
        A2=np.array([[1.0]]),
        b=np.zeros(1),
        w=np.ones(1),
        activation=sn.Activation("tanh"),
        R=60.0,
    )
    with pytest.warns(DenominatorFloorWarning):
        sn.eval_forward(inst, np.array([1.0]))


def test_dimension_errors():
    inst = sn.ProblemInstance(
        A1=np.zeros((2, 2)),
        A2=np.ones((1, 2)),
        b=np.zeros(1),
        w=np.ones(2),
        activation=sn.Activation("tanh"),
        R=1.5,
    )
    with pytest.raises(ShapeError):
        sn.eval_forward(inst, np.zeros(3))
    # a state from another instance: one row would broadcast against two
    one_row = sn.ProblemInstance(
        A1=np.zeros((1, 2)), A2=np.ones((1, 1)), b=np.zeros(1), w=np.ones(1),
        activation=sn.Activation("tanh"), R=1.5,
    )
    st_other = sn.eval_forward(one_row, np.zeros(2))
    for fn in (sn.grad, sn.hess_L, sn.kernel):
        with pytest.raises(ShapeError):
            fn(st_other, inst)
    with pytest.raises(ShapeError):
        sn.ProblemInstance(
            A1=np.zeros((2, 2)),
            A2=np.ones((1, 3)),
            b=np.zeros(1),
            w=np.ones(2),
            activation=sn.Activation("tanh"),
            R=1.5,
        )


def test_construction_invariants():
    ok = dict(
        A1=np.eye(2), A2=np.ones((1, 2)) / 2, b=np.zeros(1), w=np.ones(2),
        activation=sn.Activation("tanh"), R=1.5,
    )
    sn.ProblemInstance(**ok)
    with pytest.raises(ValueError, match="spectral"):
        sn.ProblemInstance(**{**ok, "A1": 4.0 * np.eye(2)})
    with pytest.raises(ValueError, match="beta"):
        sn.ProblemInstance(**{**ok, "beta": 0.2})
    with pytest.raises(ValueError, match="nonnegative"):
        sn.ProblemInstance(**{**ok, "w": np.array([1.0, -1.0])})
    with pytest.raises(ValueError, match="finite"):
        sn.ProblemInstance(**{**ok, "b": np.array([np.inf])})
    with pytest.raises(ValueError, match="unknown activation"):
        sn.Activation("relu")


def test_activation_bound_estimate_covers_probes(s1_instance):
    # R_h must dominate both norms at arbitrary admissible points
    inst = s1_instance
    rh = inst.activation.R_h
    assert rh == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=inst.d)
        st_ = sn.eval_forward(inst, x)
        assert np.linalg.norm(st_.hval) <= rh + 1e-12
        assert np.linalg.norm(st_.hprime) <= rh + 1e-12
    assert estimate_activation_bound("identity", inst.A2) >= np.sqrt(2.0)


def test_activation_bound_memory_is_linear_in_n():
    # the vertex probes read columns of A2; no n x n identity is built
    n = 4000
    A2 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, n)) / np.sqrt(n)
    tracemalloc.start()
    try:
        got = estimate_activation_bound("tanh", A2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB; one n x n array is {8 * n * n / 2**20:.0f} MiB"
    for kind in ACTIVATION_KINDS:
        units = [np.zeros(n) for _ in range(8)]
        for i, e in enumerate(units):
            e[i] = 1.0
        explicit = estimate_activation_bound(kind, A2, probe_f=[np.full(n, 1.0 / n)] + units)
        assert estimate_activation_bound(kind, A2) == explicit


def test_instance_json_round_trip(s1_instance):
    doc = sn.instance_to_json(s1_instance)
    txt = dumps(doc)
    inst2 = sn.instance_from_json(json.loads(txt))
    assert np.array_equal(inst2.A1, s1_instance.A1)
    assert np.array_equal(inst2.A2, s1_instance.A2)
    assert np.array_equal(inst2.b, s1_instance.b)
    assert np.array_equal(inst2.w, s1_instance.w)
    assert inst2.R == s1_instance.R and inst2.beta == s1_instance.beta
    assert inst2.activation == s1_instance.activation
    assert dumps(sn.instance_to_json(inst2)) == txt
