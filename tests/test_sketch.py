import math

import numpy as np
import pytest
import scipy.linalg
from conftest import U, cholesky_error, cholesky_verdict
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import softnewt as sn
from softnewt.model import _rng
from softnewt.sketch import (
    _cdf,
    _deviation,
    _draw,
    _ridge_ratio,
    leverage_scores,
    sample_count,
    sampling_distribution,
    subsample,
    verify_sandwich,
)


def svd_leverage(A, dweights):
    """Leverage scores from a thin SVD of diag(sqrt(dweights)) A, cut at 1e-12 of the largest singular value.

    The route ``leverage_scores`` took before its pivoted Cholesky, kept as
    its oracle; also returns the singular values.
    """
    M = np.sqrt(dweights)[:, None] * A
    Uf, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(A.shape[0]), s
    rank = int(np.sum(s > 1e-12 * s[0]))
    return np.einsum("ij,ij->i", Uf[:, :rank], Uf[:, :rank]), s


def test_leverage_trivial_cases():
    np.testing.assert_allclose(leverage_scores(np.eye(4), np.ones(4)), np.ones(4), atol=1e-14)
    tau = leverage_scores(np.array([[1.0], [0.0]]), np.array([2.0, 3.0]))
    np.testing.assert_allclose(tau, [1.0, 0.0], atol=1e-14)


def test_leverage_golden(s1_golden):
    g = s1_golden["leverage"]
    A1 = np.array(s1_golden["instance"]["A1"])
    tau = leverage_scores(A1, np.array(g["dweights"]))
    np.testing.assert_allclose(tau, g["tau"], rtol=1e-12)


def test_leverage_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        A = rng.standard_normal((n, d))
        if rng.random() < 0.3 and d > 1:
            A[:, -1] = A[:, 0]  # force rank deficiency
        dw = np.exp(rng.standard_normal(n))
        tau = leverage_scores(A, dw)
        assert np.all(tau >= -1e-12) and np.all(tau <= 1.0 + 1e-12)
        rank = np.linalg.matrix_rank(np.sqrt(dw)[:, None] * A)
        assert np.sum(tau) == pytest.approx(rank, abs=1e-8)
    with pytest.raises(ValueError, match="positive"):
        leverage_scores(np.eye(2), np.array([1.0, 0.0]))


def leverage_tolerance(n, d, s):
    """A bound on |tau - tau_svd| for an M with singular values s (descending, s[0] > 0).

    With r the oracle's rank, kappa = s[0] / s[r-1] and rho = s[r] / s[0]
    (0 when r = min(n, d)):
    - The Gram M^T M is formed with an error below n u ||M||^2 and pivoted
      Cholesky adds below d^2 u ||M||^2 (the 1/max|M| scaling adds one
      rounding per entry, inside these). So the factor's basis Q = M_r L^-T
      has ||Q^T Q - I|| <= (n + d^2) u kappa^2, and each tau_i moves by at
      most that much; the factor 4 covers the constants of both bounds.
    - A column that the oracle cuts and the factor keeps, on a pivot above
      dpstrf's floor sqrt(d u) ||M||, adds at most (rho / sqrt(d u))^2.
    - A cut column's residual tilts the kept pivot columns' span by at most
      rho kappa times the pivoting's growth, below 2^d sqrt(d), and tau_i by
      twice that.
    """
    r = int(np.sum(s > 1e-12 * s[0]))
    kappa = s[0] / s[r - 1]
    rho = s[r] / s[0] if r < s.size else 0.0
    return 4 * (n + d * d) * kappa**2 * U + rho**2 / (d * U) + 2 ** (d + 1) * math.sqrt(d) * rho * kappa


@st.composite
def weighted_matrices(draw):
    """(A, dweights) with n <= 30 rows and d <= 6 columns.

    A = B C diag(10^e) has rank at most B's width; the column scales 10^e,
    e in [-3, 3], spread the condition number up to about 1e6.
    """
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    r = draw(st.integers(1, d))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    B = draw(hnp.arrays(float, (n, r), elements=unit))
    C = draw(hnp.arrays(float, (r, d), elements=unit))
    col_exp = draw(hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)))
    log_w = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    return B @ C * 10.0**col_exp, np.exp(log_w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=weighted_matrices())
@example(case=(np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0], [5.0, -1.0, 5.0], [0.0, 2.0, 0.0]]), np.ones(4)))  # duplicate column
@example(case=(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, -1.0]]), np.array([0.5, 2.0, 1.0])))  # zero column
@example(case=(np.zeros((5, 3)), np.ones(5)))  # all-zero A
@example(case=(np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, 0.5, 2.0, 0.0]]), np.array([1.0, 3.0])))  # n < d
@example(case=(np.array([[1.0], [-2.0], [0.0], [0.5]]), np.array([1.0, 1.0, 4.0, 0.25])))  # d = 1
def test_leverage_scores_match_an_svd(case):
    A, dw = case
    n, d = A.shape
    tau = leverage_scores(A, dw)
    ref, s = svd_leverage(A, dw)
    if s[0] == 0.0:
        assert np.array_equal(tau, np.zeros(n))
        return
    rank = int(np.sum(s > 1e-12 * s[0]))
    assume(s[0] / s[rank - 1] <= 1e6)
    tol = leverage_tolerance(n, d, s)
    assert np.all(tau >= -tol) and np.all(tau <= 1.0 + tol)
    assert abs(tau.sum() - rank) <= n * tol
    assert np.max(np.abs(tau - ref)) <= tol


@pytest.mark.parametrize("factor, dw_value", [(1e200, 1.0), (1e-170, 1.0), (1e10, 1e300)])
def test_leverage_scores_at_scale_extremes(factor, dw_value):
    # tau does not depend on the scale of M; an unscaled Gram would overflow at
    # 1e200 and at 1e10 with D = 1e300, and underflow to zero at 1e-170
    rng = np.random.default_rng(13)
    A = rng.standard_normal((40, 5))
    dw = np.exp(rng.standard_normal(40))
    ref, s = svd_leverage(A, dw)
    tau = leverage_scores(factor * A, dw_value * dw)  # RuntimeWarnings are errors here
    assert tau.sum() == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(tau, ref, rtol=0, atol=leverage_tolerance(40, 5, s))


@st.composite
def ridge_perturbations(draw):
    """(A, w2, b): a weighted matrix of ``weighted_matrices`` and a diag(B) with |b_i| <= kappa w2_i, kappa in [0, 0.999]."""
    A, w2 = draw(weighted_matrices())
    kappa = draw(st.floats(0.0, 0.999))
    r = draw(hnp.arrays(float, w2.size, elements=st.floats(-1.0, 1.0)))
    return A, w2, kappa * r * w2


def one_heavy_row(n, kappa):
    """A column of ones with unit weights, perturbed up by kappa on row 0 and down by kappa on every other row."""
    b = np.full(n, -kappa)
    b[0] = kappa
    return np.ones((n, 1)), np.ones(n), b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=ridge_perturbations())
@example(case=one_heavy_row(30, 0.5))  # the ratio 45/16 against the bound 3
@example(case=one_heavy_row(30, 1.0 - 2.0**-20))  # kappa near 1: D' near 0 on 29 rows
def test_ridge_leverage_bounds_the_surrogates_leverage(case):
    # With D' = w^2 + b, |b_i| <= kappa w_i^2 and kappa < 1: A^T D' A >= (1 - kappa) A^T W A and
    # D'_i <= (1 + kappa) w_i^2, so tau_i(D') <= tau_i(w^2) (1 + kappa)/(1 - kappa), the bound behind a
    # sketched step's inflated count. Each computed tau is within leverage_tolerance of the exact one
    # (test_leverage_scores_match_an_svd), so the computed bound holds up to tol(D') + the inflation times tol(w^2)
    A, w2, b = case
    n, d = A.shape
    kappa = _ridge_ratio(b, w2)
    assert kappa < 1.0
    dprime = w2 + b
    sv = [svd_leverage(A, dw)[1] for dw in (w2, dprime)]
    if sv[0][0] == 0.0:  # A = 0: every score is 0
        return
    for s in sv:
        rank = int(np.sum(s > 1e-12 * s[0]))
        assume(s[0] / s[rank - 1] <= 1e6)
    inflation = (1.0 + kappa) / (1.0 - kappa)
    slack = leverage_tolerance(n, d, sv[1]) + inflation * leverage_tolerance(n, d, sv[0])
    assert np.all(leverage_scores(A, dprime) <= inflation * leverage_scores(A, w2) + slack)


def test_ridge_ratio_of_a_zero_weight_is_infinite():
    # w_i = 0 gives kappa = inf whatever diag(B)_i is, as does any ratio from 1 up, without a numpy warning
    assert _ridge_ratio(np.array([0.0, 0.5]), np.array([0.0, 1.0])) == math.inf
    assert _ridge_ratio(np.array([1.0, 0.5]), np.array([1.0, 0.0])) == math.inf
    assert _ridge_ratio(np.array([1e300, 0.0]), np.array([1e-300, 1.0])) == math.inf
    assert _ridge_ratio(np.array([np.nan, 0.0]), np.array([1.0, 1.0])) == math.inf
    assert _ridge_ratio(np.array([-0.25, 0.5]), np.array([1.0, 4.0])) == 0.25


def test_leverage_scores_reject_non_finite_input():
    with pytest.raises(ValueError, match="finite"):
        leverage_scores(np.array([[1.0], [np.nan]]), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        leverage_scores(np.ones((2, 1)), np.array([1.0, np.inf]))


def choice_reference(dweights, p, s, seed):
    """``Generator.choice`` with ``np.add.at`` accumulation: the draw route that ``_draw`` replaced."""
    draws = _rng(seed).choice(p.size, size=s, replace=True, p=p)
    dtilde = np.zeros(p.size)
    np.add.at(dtilde, draws, dweights[draws] / (s * p[draws]))
    return draws, dtilde


def assert_same_draws(got, ref):
    assert got[0].dtype == ref[0].dtype and np.array_equal(got[0], ref[0])
    assert got[1].tobytes() == ref[1].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 60),
    s=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    shape=st.floats(0.1, 10.0),
    data=st.data(),
)
def test_draw_equals_choice_and_add_at(n, s, seed, shape, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = rng.random(n) ** shape
    p = p / p.sum()
    dw = np.exp(rng.standard_normal(n))
    assert_same_draws(_draw(dw, p, s, seed, _cdf(p)), choice_reference(dw, p, s, seed))


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_draw_edge_distributions(seed):
    dw = np.exp(np.linspace(-1.0, 1.0, 9))
    one_hot = np.zeros(9)
    one_hot[4] = 1.0
    nearly = np.full(9, 1e-300)
    nearly[2] = 1.0
    nearly = nearly / nearly.sum()
    for p, s in ((np.ones(1), 1), (np.ones(1), 5), (np.full(9, 1 / 9), 1), (one_hot, 1), (one_hot, 50), (nearly, 50)):
        dwp = dw[: p.size]
        assert_same_draws(_draw(dwp, p, s, seed, _cdf(p)), choice_reference(dwp, p, s, seed))
    assert np.all(_draw(dw, one_hot, 50, seed, _cdf(one_hot))[0] == 4)


def test_subsample_draws_as_choice():
    # the whole sampling path against choice with add.at accumulation over its own p
    rng = np.random.default_rng(14)
    for k in range(20):
        n, d = int(rng.integers(5, 200)), int(rng.integers(1, 5))
        A = rng.standard_normal((n, d))
        A[: n // 4] *= 10.0
        dw = np.exp(rng.standard_normal(n))
        s = int(rng.integers(1, n))
        p = np.maximum(leverage_scores(A, dw), d / n)
        p = p / p.sum()
        sk = subsample(dw, sampling_distribution(A, dw), s, k)
        assert_same_draws((sk.kept_indices, sk.dtilde), choice_reference(dw, p, s, k))


def test_exact_fallback_small_instance(s1_golden):
    gi = s1_golden["instance"]
    gf = s1_golden["sketch_exact_fallback"]
    A1 = np.array(gi["A1"])
    dw = np.array(gi["w"]) ** 2
    s = sample_count(A1.shape[0], A1.shape[1], gf["eps0"], gf["delta"])
    sk = subsample(dw, sampling_distribution(A1, dw), s, gf["seed"])
    assert sk.exact is True
    np.testing.assert_array_equal(sk.kept_indices, gf["kept_indices"])
    np.testing.assert_array_equal(sk.dtilde, dw)
    assert verify_sandwich(A1, dw, sk) == pytest.approx(0.0, abs=1e-12)


def test_sampled_golden(s1_golden):
    g = s1_golden["sketch_sampled"]
    A = np.array(g["A"])
    dw = np.array(g["dweights"])
    sk = subsample(dw, sampling_distribution(A, dw), g["num_draws"], g["seed"])
    assert not sk.exact
    np.testing.assert_array_equal(sk.kept_indices, g["kept_indices"])
    np.testing.assert_allclose(sk.dtilde, g["dtilde"], rtol=1e-14)
    assert verify_sandwich(A, dw, sk) == pytest.approx(g["eps_measured"], rel=1e-10)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((50, 3))
    dw = np.exp(rng.standard_normal(50))
    a = subsample(dw, sampling_distribution(A, dw), 30, 123)
    b = subsample(dw, sampling_distribution(A, dw), 30, 123)
    assert np.array_equal(a.kept_indices, b.kept_indices)
    assert a.dtilde.tobytes() == b.dtilde.tobytes()
    c = subsample(dw, sampling_distribution(A, dw), 30, 124)
    assert not np.array_equal(a.kept_indices, c.kept_indices)


def test_unbiasedness_over_seeds():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 3))
    dw = np.exp(0.5 * rng.standard_normal(6))
    target = A.T @ (dw[:, None] * A)
    acc = np.zeros((3, 3))
    n_seeds = 1000
    dist = sampling_distribution(A, dw)
    for seed in range(n_seeds):
        sk = subsample(dw, dist, 64, seed)
        acc += A.T @ (sk.dtilde[:, None] * A)
    mean = acc / n_seeds
    rel = np.abs(mean - target) / np.maximum(np.abs(target), 1e-12)
    assert np.max(rel) <= 0.03, f"max elementwise relative error {np.max(rel):.4f}"


def test_sparsity_bound():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2500, 2))
    dw = np.exp(rng.standard_normal(2500))
    s_max = sample_count(2500, 2, 0.3, 0.1)
    sk = subsample(dw, sampling_distribution(A, dw), s_max, 5)
    assert not sk.exact
    assert len(np.unique(sk.kept_indices)) <= min(2500, s_max)
    assert len(sk.kept_indices) == s_max
    assert np.all(sk.dtilde >= 0.0)
    assert np.count_nonzero(sk.dtilde) == len(np.unique(sk.kept_indices))


def test_sandwich_success_rate_sampling_path():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((2500, 2))
    A[:500] *= 8.0  # spread the leverage around
    dw = np.exp(rng.standard_normal(2500))
    hits = 0
    n_seeds = 50
    dist, s = sampling_distribution(A, dw), sample_count(2500, 2, 0.3, 0.1)
    for seed in range(n_seeds):
        sk = subsample(dw, dist, s, seed)
        assert not sk.exact
        if verify_sandwich(A, dw, sk) <= 0.3:
            hits += 1
    assert hits / n_seeds >= 0.9


def test_sandwich_success_rate_at_d8():
    # at n = 20000 the formula's count (3858 at eps0 = 0.45) is below n, so every seed draws
    rng = np.random.default_rng(15)
    n, d, eps0 = 20_000, 8, 0.45
    A = rng.standard_normal((n, d))
    A[:2000] *= 8.0  # spread the leverage around
    dw = np.exp(rng.standard_normal(n))
    hits = 0
    n_seeds = 20
    dist, s = sampling_distribution(A, dw), sample_count(n, d, eps0, 0.1)
    for seed in range(n_seeds):
        sk = subsample(dw, dist, s, seed)
        assert not sk.exact and len(sk.kept_indices) == s < n
        if verify_sandwich(A, dw, sk) <= eps0:
            hits += 1
    assert hits / n_seeds >= 0.9


def test_identity_structure_via_formula_fallback():
    # on a square identity the formula count always exceeds n: exact fallback,
    # and the reweighted Gram is diagonal by construction
    A = np.eye(6)
    sk = subsample(np.ones(6), sampling_distribution(A, np.ones(6)), sample_count(6, 6, 0.3, 0.1), 0)
    assert sk.exact
    gram = A.T @ (sk.dtilde[:, None] * A)
    np.testing.assert_array_equal(gram, np.eye(6))


def test_verify_sandwich_trivial_and_scaling():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((20, 3))
    dw = np.exp(rng.standard_normal(20))
    sk = subsample(dw, sampling_distribution(A, dw), sample_count(20, 3, 0.3, 0.1), 1)  # exact fallback here
    assert verify_sandwich(A, dw, sk) == pytest.approx(0.0, abs=1e-12)
    sk.dtilde = 2.0 * dw
    assert verify_sandwich(A, dw, sk) == pytest.approx(1.0, rel=1e-12)


def test_verify_sandwich_singular_gram():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # rank 1
    dw = np.ones(3)
    sk = subsample(dw, sampling_distribution(A, dw), sample_count(3, 2, 0.3, 0.1), 2)
    assert verify_sandwich(A, dw, sk) == pytest.approx(0.0, abs=1e-12)


def symmetric_part(a):
    """(a + a^T) / 2 while no entry passes half the float64 maximum, else the sum of the halves."""
    return 0.5 * (a + a.T) if np.max(np.abs(a), initial=0.0) <= np.finfo(float).max / 2 else 0.5 * a + 0.5 * a.T


def eigh_deviation(a, b):
    """max |lambda - 1| from ``scipy.linalg.eigh`` (LAPACK dsygvd) on the symmetric parts of (a, b), or inf where it raises."""
    a, b = symmetric_part(a), symmetric_part(b)
    try:
        w = scipy.linalg.eigh(a, b, eigvals_only=True)
    except (ValueError, np.linalg.LinAlgError):
        return math.inf
    return float(np.max(np.abs(w - 1.0)))


def deviation_tolerance(a, b):
    """A bound on the gap between two Cholesky-based deviations of the symmetric pencil (a, b), or None where it says nothing.

    With d the order, u = 2^-53, lambda_i the exact eigenvalues of a v = lambda b v and
    Lam = ||a||_2 / lambda_min(b) >= max |lambda_i|, each route errs per eigenvalue by at most:
    - the factor's backward error: L L^T = b + db, ||db||_2 <= c ||b||_2 (``cholesky_error``), so
      b + db = b^1/2 (I + E) b^1/2 with ||E||_2 <= e = c kappa(b). By Ostrowski's theorem each
      eigenvalue of (a, b + db), that is of C = L^-1 a L^-T, is lambda_i theta_i with theta_i in
      [1 / (1 + e), 1 / (1 - e)]: a move of at most Lam e / (1 - e), and ||C||_2 <= Lam / (1 - e);
      nothing is claimed at e >= 1;
    - the reduction to C by two triangular solves, each column's with a backward error
      ||dL||_2 <= t ||L||_2, t = d^2 u as for ``_spd_solve``: with x = t kappa(L) < 1, each solve's
      result is within x / (1 - x) of its exact value, so the computed C is within
      ||dC||_F <= x (2 - x) / (1 - x)^2 ||L^-1||_2^2 ||a||_F <= x (2 - x) / (1 - x)^2 sqrt(d) Lam / (1 - e),
      where kappa(L)^2 <= kappa(b) (1 + e) / (1 - e). The reference's dsygst reduces to the same C by
      substitution and rank-2 updates, and its error is taken to be of the same form. The
      eigensolver reads the symmetric matrix of C's lower triangle, within sqrt(2) ||dC||_F of C;
    - the eigensolver's backward error, within d u times its input's norm (LAPACK's guide leaves the
      factor a modest function of the order; it is taken as the order), and one rounding of
      lambda - 1, within u (1 + |lambda|).
    Sorted eigenvalues within delta of the exact ones move max |lambda - 1| by at most delta, so two
    routes differ by at most twice the sum. lambda_min(b), kappa(b) and ||a||_2 come from ``eigvalsh``,
    each eigenvalue widened by d u times the matrix's norm.
    """
    d = b.shape[0]
    lam_a, lam_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    norm_a = max(abs(lam_a[0]), abs(lam_a[-1])) * (1 + d * U)
    slack = d * U * max(abs(lam_b[0]), abs(lam_b[-1]))
    lo, hi = lam_b[0] - slack, lam_b[-1] + slack
    if lo <= 0.0:
        return None
    kappa = hi / lo
    e = cholesky_error(d) * kappa
    x = d * d * U * math.sqrt(kappa * (1 + e) / (1 - e)) if e < 1.0 else 1.0
    if x >= 1.0:
        return None
    lam = norm_a / lo
    dC = math.sqrt(2) * x * (2 - x) / (1 - x) ** 2 * math.sqrt(d) * lam / (1 - e)
    eig_norm = lam / (1 - e) + dC
    delta = lam * e / (1 - e) + dC + d * U * eig_norm + U * (1 + eig_norm)
    return 2 * delta


HUGE = 1.2e308 * np.array([[1.0, 0.5], [0.5, 1.0]])


def test_deviation_reads_a_pencil_whose_sums_pass_float64():
    # HUGE + HUGE^T overflows, but the sum of the halves is HUGE itself
    assert _deviation(HUGE, HUGE) <= 4 * np.finfo(float).eps
    assert _deviation(0.5 * HUGE, HUGE) == 0.5


@st.composite
def pencils(draw):
    """(a, b) for d <= 12: b = G G^T + shift I from SPD through near-singular to indefinite.

    a is symmetric or, with its upper triangle overwritten, asymmetric, and so
    may b be: both routes read their symmetric parts.
    """
    d = draw(st.integers(1, 12))
    F = draw(hnp.arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    G = draw(hnp.arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    a = F + F.T
    b = G @ G.T + draw(st.sampled_from([1.0, 1e-3, 1e-8, 1e-13, 0.0, -1e-13, -1e-3, -1.0])) * np.eye(d)
    for m in (a, b):
        if draw(st.booleans()):
            upper = np.triu_indices(d, 1)
            m[upper] = draw(hnp.arrays(float, upper[0].size, elements=st.floats(-5.0, 5.0)))
    return a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pencil=pencils())
@example(pencil=(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])))  # indefinite b
@example(pencil=(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])))  # near-singular b
@example(pencil=(np.array([[np.nan]]), np.eye(1)))
@example(pencil=(np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]])))
@example(pencil=(np.array([[1.0, np.inf], [0.0, 1.0]]), -np.eye(2)))  # an infinite upper entry is still checked
@example(pencil=(np.eye(2), np.array([[1.0, 1e308], [1e308, 1.0]])))  # a sum past float64, an indefinite b
@example(pencil=(HUGE, HUGE))  # a finite pencil whose sums pass float64
@example(pencil=(0.5 * HUGE, HUGE))
def test_generalized_eigvals_agree_with_scipy_eigh(pencil):
    """Both routes read inf alike where rounding decides b's factorization, and agree within ``deviation_tolerance``.

    A pencil that is not finite gives inf on both. Where b's factorization runs to completion in every
    rounding both are finite, and where it can in none both are inf (``cholesky_verdict``); between,
    each may be either.
    """
    a, b = pencil
    a_in, b_in = a.copy(), b.copy()
    got, ref = _deviation(a, b), eigh_deviation(a, b)
    assert a.tobytes() == a_in.tobytes() and b.tobytes() == b_in.tobytes()  # the inputs are left alone
    assert type(got) is float and not math.isnan(got)
    a, b = symmetric_part(a), symmetric_part(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        assert got == ref == math.inf
        return
    verdict = cholesky_verdict(b)
    if verdict is False:
        assert got == ref == math.inf
        return
    if verdict is None and math.inf in (got, ref):
        return
    assert math.isfinite(got) and math.isfinite(ref)
    tol = deviation_tolerance(a, b)
    if tol is not None:
        assert abs(got - ref) <= tol
