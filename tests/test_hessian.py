import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import ALL_KINDS, random_instance, random_points
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softnewt as sn
from softnewt.derivatives import eval_p, eval_Q2
from softnewt.hessian import (
    B_TERM_NAMES, _factors, b_terms, g_terms, hess_f_pair, hess_L_entries, kernel, kernel_diag,
)
from softnewt.model import DenominatorFloorWarning
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
        np.testing.assert_allclose(kernel_diag(st_, inst), np.diag(B), atol=1e-12 * B_scale)


def test_hessian_symmetry_and_psd_first_block():
    for seed in range(20):
        inst = random_instance(seed)
        x = random_points(inst, seed + 17000, 1)[0]
        st_ = sn.eval_forward(inst, x)
        hb = sn.hess_L(st_, inst)
        assert np.max(np.abs(hb.H_L - hb.H_L.T)) <= 1e-10
        assert np.max(np.abs(hb.H_tot - hb.H_tot.T)) <= 1e-10
        Q2 = sn.eval_Q2(st_, inst)
        J = np.diag(st_.f) - np.outer(st_.f, st_.f)
        gauss = J @ Q2.T @ Q2 @ J
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


@st.composite
def curvature_cases(draw):
    """A random finite instance (n 1-6, m 1-4, d 1-3, any kind) and one point."""
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
    return inst, draw(hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=curvature_cases())
def test_curvature_routes_agree(case):
    # the single-form routes (hess_L, kernel_diag, kernel, g_terms) against the split-form
    # oracles, within verify's 1e-10 relative route-agreement bound
    inst, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DenominatorFloorWarning)
        st_ = sn.eval_forward(inst, x)
    hb = sn.hess_L(st_, inst)
    B_diag = kernel_diag(st_, inst)
    B = kernel(st_, inst)
    G = g_terms(st_, inst)
    if inst.n == 1:
        assert np.all(hb.H_L == 0.0) and np.all(B_diag == 0.0)
    A1 = inst.A1
    gaps = {
        "hess_L_entries": hb.H_L - hess_L_entries(st_, inst),
        "A1^T kernel A1": hb.H_L - A1.T @ B @ A1,
        "diag(kernel)": B_diag - np.diag(B),
        "sum(b_terms)": sum(b_terms(st_, inst)) - B,
        "g_terms": hb.H_L - (G["G1"] + G["G2"] + G["G3"] - G["G4"] - 0.5 * (G["G5"] + G["G5"].T) + G["G6"]),
    }
    scale = max(1.0, float(np.max(np.abs(hb.H_L))), float(np.max(np.abs(B))))
    for name, gap in gaps.items():
        assert float(np.max(np.abs(gap))) <= 1e-10 * scale, name
    # the forward pass's q2 against the oracle route Q2^T c
    q2_gap = float(np.max(np.abs(st_.q2 - sn.eval_Q2(st_, inst).T @ st_.c)))
    assert q2_gap <= 1e-12 * max(1.0, float(np.max(np.abs(st_.q2))))


def evaluate(inst, x):
    """The forward pass at a point or a stack, floor warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DenominatorFloorWarning)
        return sn.eval_forward(inst, x)


def seeded_case(seed, n, m, d, kind):
    """A ``random_instance`` of the given shape and kind, and one point in it."""
    inst = random_instance(seed, n=n, m=m, d=d, kind=kind)
    return inst, random_points(inst, seed + 1, 1)[0]


@st.composite
def seeded_cases(draw):
    """Desk shapes up to the cli benchmark's (n 64, m 16, d 8), down to n = m = d = 1, any kind."""
    return seeded_case(
        draw(st.integers(0, 2**16)), draw(st.sampled_from([1, 5, 40, 64])), draw(st.sampled_from([1, 4, 16])),
        draw(st.sampled_from([1, 3, 8])), draw(st.sampled_from(ALL_KINDS)),
    )


def loop_hess_L_entries(state, inst):
    """The per-entry loop that the stacked hess_L_entries replaced, kept as its reference."""
    P = eval_p(state, inst)
    Q2 = eval_Q2(state, inst)
    d = inst.d
    QP = [Q2 @ P[:, i] for i in range(d)]
    AP = [inst.A2 @ P[:, i] for i in range(d)]
    H = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            term1 = float(QP[j] @ QP[i])
            term2 = float(np.sum(state.c * state.hdoubleprime * AP[j] * AP[i]))
            term3 = float(state.c @ (Q2 @ hess_f_pair(state, inst, i, j)))
            H[i, j] = term1 + term2 + term3
    return H


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.one_of(curvature_cases(), seeded_cases()))
@example(case=seeded_case(1, 1, 4, 3, "tanh"))  # n = 1
@example(case=seeded_case(2, 40, 16, 1, "softplus"))  # d = 1
@example(case=seeded_case(3, 1, 1, 1, "identity"))
def test_hess_L_entries_equals_loop(case):
    inst, x = case
    state = evaluate(inst, x)
    assert np.array_equal(hess_L_entries(state, inst), loop_hess_L_entries(state, inst))


@st.composite
def stack_cases(draw):
    """An instance as above and a stack of 1-8 points, some of them repeated."""
    inst, _ = draw(st.one_of(curvature_cases(), seeded_cases()))
    point = hnp.arrays(float, inst.d, elements=st.floats(-3.0, 3.0))
    distinct = draw(st.lists(point, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return inst, np.array([distinct[i] for i in picks])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=stack_cases())
def test_stacked_routes_equal_rows(case):
    inst, X = case
    stacked = evaluate(inst, X)
    points = [evaluate(inst, x) for x in X]
    routes = {
        "_factors": lambda s: _factors(s, inst),
        "hess_L": lambda s: tuple(vars(sn.hess_L(s, inst)).values()),
        "kernel_diag": lambda s: (kernel_diag(s, inst),),
        "g_terms": lambda s: tuple(g_terms(s, inst).values()),
        "eval_p": lambda s: (eval_p(s, inst),),
        "eval_Q2": lambda s: (eval_Q2(s, inst),),
        "kernel": lambda s: (kernel(s, inst),),
    }
    for name, route in routes.items():
        rows = route(stacked)
        for r, state in enumerate(points):
            for i, (row, value) in enumerate(zip(rows, route(state), strict=True)):
                assert np.array_equal(row[r].reshape(np.shape(value)), value), (name, i)
    # the stack's spectra in one batched call
    lo, hi, spectra = spectral(kernel(stacked, inst))
    for r, state in enumerate(points):
        lo_r, hi_r, spectrum = spectral(kernel(state, inst))
        assert (lo[r], hi[r]) == (lo_r, hi_r) and np.array_equal(spectra[r], spectrum)
