import numpy as np
import pytest

import softnewt as sn
from softnewt.sketch import (
    SAMPLING_CONSTANT,
    leverage_scores,
    sample_count,
    subsample,
    verify_sandwich,
)


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


def test_exact_fallback_small_instance(s1_golden):
    gi = s1_golden["instance"]
    gf = s1_golden["sketch_exact_fallback"]
    A1 = np.array(gi["A1"])
    dw = np.array(gi["w"]) ** 2
    sk = subsample(A1, dw, eps0=gf["eps0"], delta=gf["delta"], seed=gf["seed"])
    assert sk.exact is True
    assert sk.eps_measured == 0.0
    np.testing.assert_array_equal(sk.kept_indices, gf["kept_indices"])
    np.testing.assert_array_equal(sk.dtilde, dw)
    assert verify_sandwich(A1, dw, sk) == pytest.approx(0.0, abs=1e-12)


def test_sampled_golden(s1_golden):
    g = s1_golden["sketch_sampled"]
    A = np.array(g["A"])
    dw = np.array(g["dweights"])
    sk = subsample(A, dw, eps0=0.25, delta=0.1, seed=g["seed"], num_draws=g["num_draws"])
    assert not sk.exact
    np.testing.assert_array_equal(sk.kept_indices, g["kept_indices"])
    np.testing.assert_allclose(sk.dtilde, g["dtilde"], rtol=1e-14)
    assert verify_sandwich(A, dw, sk) == pytest.approx(g["eps_measured"], rel=1e-10)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((50, 3))
    dw = np.exp(rng.standard_normal(50))
    a = subsample(A, dw, 0.3, 0.1, seed=123, num_draws=30)
    b = subsample(A, dw, 0.3, 0.1, seed=123, num_draws=30)
    assert np.array_equal(a.kept_indices, b.kept_indices)
    assert a.dtilde.tobytes() == b.dtilde.tobytes()
    c = subsample(A, dw, 0.3, 0.1, seed=124, num_draws=30)
    assert not np.array_equal(a.kept_indices, c.kept_indices)


def test_unbiasedness_over_seeds():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 3))
    dw = np.exp(0.5 * rng.standard_normal(6))
    target = A.T @ (dw[:, None] * A)
    acc = np.zeros((3, 3))
    n_seeds = 1000
    for seed in range(n_seeds):
        sk = subsample(A, dw, 0.3, 0.1, seed=seed, num_draws=64)
        acc += A.T @ (sk.dtilde[:, None] * A)
    mean = acc / n_seeds
    rel = np.abs(mean - target) / np.maximum(np.abs(target), 1e-12)
    assert np.max(rel) <= 0.03, f"max elementwise relative error {np.max(rel):.4f}"


def test_sparsity_bound():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2500, 2))
    dw = np.exp(rng.standard_normal(2500))
    sk = subsample(A, dw, 0.3, 0.1, seed=5)
    s_max = sample_count(2500, 2, 0.3, 0.1)
    assert not sk.exact
    assert len(np.unique(sk.kept_indices)) <= min(2500, s_max)
    assert sk.num_draws == s_max
    assert np.all(sk.dtilde >= 0.0)
    assert np.count_nonzero(sk.dtilde) == len(np.unique(sk.kept_indices))


def test_sandwich_success_rate_sampling_path():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((2500, 2))
    A[:500] *= 8.0  # spread the leverage around
    dw = np.exp(rng.standard_normal(2500))
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        sk = subsample(A, dw, 0.3, 0.1, seed=seed)
        assert not sk.exact
        if verify_sandwich(A, dw, sk) <= 0.3:
            hits += 1
    assert hits / n_seeds >= 0.9


def test_identity_structure_via_formula_fallback():
    # on a square identity the formula count always exceeds n: exact fallback,
    # and the reweighted Gram is diagonal by construction
    A = np.eye(6)
    sk = subsample(A, np.ones(6), 0.3, 0.1, seed=0)
    assert sk.exact
    gram = A.T @ (sk.dtilde[:, None] * A)
    np.testing.assert_array_equal(gram, np.eye(6))


def test_verify_sandwich_trivial_and_scaling():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((20, 3))
    dw = np.exp(rng.standard_normal(20))
    sk = subsample(A, dw, 0.3, 0.1, seed=1)  # exact fallback here
    assert verify_sandwich(A, dw, sk) == pytest.approx(0.0, abs=1e-12)
    sk.dtilde = 2.0 * dw
    assert verify_sandwich(A, dw, sk) == pytest.approx(1.0, rel=1e-12)


def test_verify_sandwich_singular_gram():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # rank 1
    dw = np.ones(3)
    sk = subsample(A, dw, 0.3, 0.1, seed=2)
    assert verify_sandwich(A, dw, sk) == pytest.approx(0.0, abs=1e-12)


def test_parameter_validation():
    A = np.eye(3)
    dw = np.ones(3)
    with pytest.raises(ValueError, match="eps0"):
        subsample(A, dw, 0.6, 0.1, seed=0)
    with pytest.raises(ValueError, match="delta"):
        subsample(A, dw, 0.3, 1.5, seed=0)
    assert SAMPLING_CONSTANT == 8.0


def test_result_json():
    sk = subsample(np.eye(3), np.ones(3), 0.3, 0.1, seed=7)
    doc = sk.to_json()
    assert doc["schema_version"] == 1
    assert doc["exact"] is True and doc["seed"] == 7
