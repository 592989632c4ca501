import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import softnewt as sn
from softnewt.derivatives import eval_p, eval_Q2
from softnewt.hessian import b_terms, g_terms, hess_L_entries
from softnewt.model import (
    _LOG_MAX,
    ACTIVATION_KINDS,
    DenominatorFloorWarning,
    EvaluationOverflowError,
    L_H,
    ShapeError,
    activation_bound,
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
    # L_H must upper-bound sup|h'| and sup|h''| on a wide grid
    y = np.linspace(-30, 30, 4001)
    for kind in ("identity", "tanh", "sigmoid", "softplus"):
        act = sn.Activation(kind)
        _, hp, hpp = sn.activation_eval(act, y)
        assert np.max(np.abs(hp)) <= L_H + 1e-12
        assert np.max(np.abs(hpp)) <= L_H + 1e-12


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
    # in a stack, the first overflowing row raises the error it raises alone
    with pytest.raises(EvaluationOverflowError, match=r"exp\(800\) overflows") as exc:
        sn.eval_forward(inst, np.array([[0.5], [1.0], [2.0]]))
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
    # in a stack, the row below the floor warns
    with pytest.warns(DenominatorFloorWarning):
        st_ = sn.eval_forward(inst, np.array([[0.0], [1.0]]))
    assert st_.log_alpha.tolist() == [0.0, -50.0]


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
    for fn in (sn.grad, sn.hess_L, sn.kernel_diag, sn.kernel, g_terms, hess_L_entries, b_terms, eval_p, eval_Q2):
        with pytest.raises(ShapeError):
            fn(st_other, inst)
    with pytest.raises(ShapeError):
        sn.eval_forward(inst, np.zeros((2, 3)))
    # a stack of two points: the stacked routes give one row per point; the oracles take one point
    st_stack = sn.eval_forward(inst, np.zeros((2, 2)))
    assert sn.grad(st_stack, inst).grad_tot.shape == (2, 2)
    hb = sn.hess_L(st_stack, inst)
    assert (hb.H_L.shape, hb.H_tot.shape) == ((2, 2, 2), (2, 2, 2))
    assert sn.kernel_diag(st_stack, inst).shape == (2, 2)
    assert sn.kernel(st_stack, inst).shape == (2, 2, 2)
    assert all(G.shape == (2, 2, 2) for G in g_terms(st_stack, inst).values())
    assert eval_p(st_stack, inst).shape == (2, 2, 2) and eval_Q2(st_stack, inst).shape == (2, 1, 2)
    for fn in (hess_L_entries, b_terms):
        with pytest.raises(ShapeError):
            fn(st_stack, inst)
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
    rh = inst.R_h
    assert rh == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=inst.d)
        st_ = sn.eval_forward(inst, x)
        assert np.linalg.norm(st_.hval) <= rh + 1e-12
        assert np.linalg.norm(st_.hprime) <= rh + 1e-12
    assert activation_bound("identity", inst.norm_A2, inst.m) >= np.sqrt(2.0)


@st.composite
def simplex_cases(draw):
    """An A2 at a random scale, dense or with one nonzero column, and simplex points f (vertices included)."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    A2 = draw(hnp.arrays(float, (m, n), elements=st.floats(-1.0, 1.0))) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    A2 *= draw(hnp.arrays(bool, (m, n)))  # zero entries, where softplus sits at log 2
    if draw(st.booleans()):
        A2[:, np.arange(n) != draw(st.integers(0, n - 1))] = 0.0
    weights = draw(st.lists(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)), max_size=4))
    return A2, [v / v.sum() for v in weights if v.sum() > 0] + [np.full(n, 1.0 / n), *np.eye(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=simplex_cases(), kind=st.sampled_from(ACTIVATION_KINDS))
@example(case=(np.array([[1e3], [0.0]]), [np.ones(1)]), kind="softplus")  # h = (1e3, log 2): ||h|| > ||A2||
# m >= 24 with ||A2|| = 0: h = log 2 in every coordinate, so the softplus cap log(2) sqrt(m) is attained
@example(case=(np.zeros((24, 1)), [np.ones(1)]), kind="softplus")
def test_activation_bound_covers_simplex_points(case, kind):
    # R_h is the analytic cap alone, so every kind's cap must bound ||h(A2 f)|| and ||h'(A2 f)||
    A2, fs = case
    m, n = A2.shape
    inst = sn.ProblemInstance(
        A1=np.ones((n, 1)), A2=A2, b=np.zeros(m), w=np.ones(n), activation=sn.Activation(kind),
        R=2.0 * max(math.sqrt(n), float(np.linalg.norm(A2, 2))),
    )
    # rounding: A2 @ f errs by n eps || |A2| || <= n eps sqrt(min(m, n)) ||A2||, the sum of f by
    # n eps, the norm's sum of m squares by m eps, the SVD's largest value by max(m, n) eps
    kappa = n * math.sqrt(min(m, n)) + n + m + max(m, n) + 4
    slack = 1.0 + 2.0 * kappa * np.finfo(float).eps
    for f in fs:
        h, hp, _ = sn.activation_eval(inst.activation, A2 @ f)
        assert max(np.linalg.norm(h), np.linalg.norm(hp)) <= inst.R_h * slack


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


@st.composite
def stack_cases(draw):
    """A random finite instance and a stack of 1-8 points, some repeated, some scaled to overflow."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0)
    A1 = draw(hnp.arrays(float, (n, d), elements=entries))
    A2 = draw(hnp.arrays(float, (m, n), elements=entries))
    inst = sn.ProblemInstance(
        A1=A1, A2=A2, b=draw(hnp.arrays(float, m, elements=entries)),
        w=draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0))),
        activation=sn.Activation(draw(st.sampled_from(ACTIVATION_KINDS))),
        R=max(float(np.linalg.norm(A1, 2)), float(np.linalg.norm(A2, 2)), 0.5),
    )
    point = hnp.arrays(float, d, elements=st.floats(-3.0, 3.0))
    distinct = draw(st.lists(st.tuples(point, st.sampled_from([1.0, 1.0, 1.0, 300.0])), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return inst, np.array([distinct[i][0] * distinct[i][1] for i in picks])


def _evaluate(inst, x):
    """(state or overflow error, DenominatorFloorWarning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DenominatorFloorWarning)
        try:
            result = sn.eval_forward(inst, x)
        except EvaluationOverflowError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=stack_cases())
def test_stacked_forward_equals_rows(case):
    inst, X = case
    rows = [_evaluate(inst, x) for x in X]
    stacked, warned = _evaluate(inst, X)
    errors = [r for r, _ in rows if isinstance(r, EvaluationOverflowError)]
    if errors:
        # the first overflowing row raises the error it raises alone
        assert isinstance(stacked, EvaluationOverflowError)
        assert (str(stacked), stacked.coordinate) == (str(errors[0]), errors[0].coordinate)
        return
    assert warned == [msg for _, msgs in rows for msg in msgs]
    gb = sn.grad(stacked, inst)
    for r, (state, _) in enumerate(rows):
        for name, value in vars(state).items():
            assert np.array_equal(getattr(stacked, name)[r], value), name
            assert type(value) is (float if np.ndim(value) == 0 else np.ndarray), name
        for name, value in vars(sn.grad(state, inst)).items():
            assert np.array_equal(getattr(gb, name)[r], value), name
