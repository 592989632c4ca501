import dataclasses
import itertools
import math
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import ALL_KINDS, random_instance, random_points
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softnewt as sn
import softnewt.bounds as bounds_mod
from softnewt import model
from softnewt.bounds import (
    LogConstant, TooFewAdmissiblePointsError, constants_from_params, measured_radius, probe_empirical, vector_norm,
)
from softnewt.derivatives import eval_p, eval_Q2, grad
from softnewt.hessian import g_terms, hess_L, kernel
from softnewt.model import DenominatorFloorWarning
from softnewt.oracle import spectral
from softnewt.serialize import dumps

SOUND_KEYS = (
    "norm_f", "norm_c", "norm_Q2", "norm_q2", "norm_p",
    "psd_bound", "M",
    "lip_u", "lip_alpha", "lip_alpha_inv", "lip_f", "lip_c", "lip_Q2", "lip_q2",
    "lip_g", "lip_p", "lip_G1", "lip_G2", "lip_G3", "lip_G4", "lip_G5", "lip_G6",
)


from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    v=st.floats(min_value=1e-250, max_value=1e250),
    measured=st.floats(min_value=0.0, max_value=1e250),
)
def test_log_constant_holds_and_tightness_consistent(v, measured):
    c = LogConstant(math.log(v))
    assert c.holds(measured) == (measured <= 0.0 or math.log(measured) <= c.log_value)
    t = c.tightness(measured)
    if 0.0 < t < math.inf and measured > 0.0:
        assert math.log(t) == pytest.approx(math.log(measured) - c.log_value, abs=1e-9)
    m, e = c.mantissa_exp10()
    assert 1.0 <= m < 10.0 or (m, e) == (0.0, 0)
    assert math.log10(m) + e == pytest.approx(c.log10, abs=1e-9)


def test_log_constant_basics():
    c = LogConstant(math.log(800.0))
    m, e = c.mantissa_exp10()
    assert (m, e) == (pytest.approx(8.0), 2)
    assert c.value == pytest.approx(800.0)
    assert c.holds(799.0) and not c.holds(801.0)
    assert c.tightness(400.0) == pytest.approx(0.5)
    z = LogConstant(-math.inf)  # zero
    assert z.value == 0.0 and z.holds(0.0) and not z.holds(1e-300)
    huge = LogConstant(5000.0)
    assert huge.value == math.inf and huge.holds(1e300)
    assert huge.to_json()["value"] is None
    # finite up to log(DBL_MAX) = 709.78...
    near = LogConstant(709.5)
    assert near.value == math.exp(709.5) and near.to_json()["value"] == math.exp(709.5)
    assert LogConstant(0.0).tightness(math.exp(709.5)) == pytest.approx(math.exp(709.5))


def test_log_constant_encodes_an_infinite_log():
    # a log past float64 (log exp(R^2) = R^2 at R ~ 1e200) is +inf, written as mantissa inf times 10^0
    inf = LogConstant(math.inf)
    assert inf.mantissa_exp10() == (math.inf, 0)
    assert inf.value == math.inf and inf.holds(1e308) and inf.tightness(1e308) == 0.0
    assert inf.to_json() == {"log10": math.inf, "mantissa": math.inf, "exp10": 0, "value": None}
    assert '"mantissa": Infinity' in dumps(inf.to_json())
    assert LogConstant(-math.inf).to_json() == {"log10": None, "mantissa": 0.0, "exp10": 0, "value": 0.0}


def test_vector_norm_rescales_only_where_the_squares_overflow():
    rng = np.random.default_rng(3)
    for k in (-300, -5, 0, 5, 150):
        v = rng.standard_normal(7) * 10.0**k
        assert vector_norm(v) == float(np.linalg.norm(v))
    assert vector_norm(np.array([1e200])) == 1e200
    assert vector_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    # past the float64 range, or with a non-finite entry, the norm stays as numpy gives it
    assert vector_norm(np.array([1.5e308, 1.5e308])) == math.inf
    assert vector_norm(np.array([np.inf, 1.0])) == math.inf
    assert math.isnan(vector_norm(np.array([np.nan, 1e200])))


@st.composite
def scaled_arrays(draw):
    """An array of 0-24 entries up to 1e3, as a vector or a (transposed) matrix, scaled by 10^-320 to 10^300.

    Every entry stays finite, and from about 10^151 on the squares overflow.
    """
    shape = draw(st.sampled_from([(0,), (1,), (7,), (24,), (3, 4), (4, 3)]))
    v = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        v = v.T  # a strided view: the norm sums in memory order
    with np.errstate(under="ignore"):
        return v * 10.0 ** draw(st.integers(-320, 300))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(v=scaled_arrays())
@example(v=np.array([1e200, -1e200, 3.0]))
@example(v=np.array([[1e160, 0.0], [0.0, -1e160]]).T)
def test_vector_norm_is_numpys_norm_until_the_squares_overflow(v):
    with np.errstate(over="ignore"):
        ref = float(np.linalg.norm(v))
    if ref < math.inf:
        assert vector_norm(v) == ref
    else:
        # every entry finite: the rescaled norm, finite and within rounding of the true one
        s = float(np.max(np.abs(v)))
        assert vector_norm(v) == s * float(np.linalg.norm(v / s)) < math.inf


def test_direct_substitution_formula():
    # beta = 0.1, n = 1, R = 4: the f-Lipschitz constant is 800 exp(32)
    consts = constants_from_params(n=1, R=4.0, beta=0.1, L_h=1.0, R_h=1.0)
    expected_log10 = math.log10(800.0) + 32.0 / math.log(10.0)
    assert consts["R_f"].log10 == pytest.approx(expected_log10, rel=1e-14)


def test_constant_activation_kills_everything():
    consts = constants_from_params(n=3, R=1.5, beta=0.05, L_h=0.0, R_h=1.0)
    assert consts["M"].value == 0.0
    assert consts["psd_bound"].value == 0.0


def test_constants_survive_overflow_scale():
    # exp(4 R^2) leaves float64 near R = 27; log-space carries it regardless
    consts = constants_from_params(n=5, R=30.0, beta=0.05, L_h=1.0, R_h=2.0)
    M = consts["M"]
    assert M.value == math.inf
    assert math.isfinite(M.log10)
    m, e = M.mantissa_exp10()
    assert 1.0 <= m < 10.0 and e > 1000
    assert M.holds(1e308)


def test_monotone_in_parameters():
    base = dict(n=3, R=1.5, beta=0.05, L_h=1.0, R_h=1.4)
    grids = {"n": [2, 4, 8], "R": [1.0, 2.0, 4.0], "L_h": [0.5, 1.0, 2.0], "R_h": [1.0, 2.0, 4.0]}
    for name, grid in grids.items():
        prev = None
        for v in grid:
            params = {**base, name: v}
            consts = constants_from_params(**params)
            if prev is not None:
                for key, c in consts.items():
                    assert c.log_value >= prev[key].log_value - 1e-12, (name, key)
            prev = consts


def test_probe_matches_golden(s1_instance, s1_golden):
    gp = s1_golden["bounds_probe"]
    pts = [np.array(p) for p in gp["points"]]
    rep = probe_empirical(s1_instance, pts)
    assert rep.R_used == pytest.approx(gp["R_used"], rel=1e-13)
    assert rep.beta_used == pytest.approx(gp["beta_used"], rel=1e-13)
    assert rep.n_admissible == 20 and rep.n_excluded == 0
    assert rep.lambda_min_B == pytest.approx(gp["lambda_min_B"], abs=1e-12)
    assert rep.lambda_max_B == pytest.approx(gp["lambda_max_B"], rel=1e-9)
    for key, log10 in gp["analytic_log10"].items():
        assert rep.analytic[key].log10 == pytest.approx(log10, rel=1e-12), key
    for key, val in gp["empirical"].items():
        assert rep.empirical[key] == pytest.approx(val, rel=1e-8, abs=1e-13), key
    for key in SOUND_KEYS:
        assert rep.tightness[key] <= 1.0, (key, rep.tightness[key])


def test_soundness_on_random_instances():
    for seed in range(10):
        inst = random_instance(seed, n=max(2, seed % 6), kind=None)
        pts = random_points(inst, seed + 21000, 8, radius_frac=0.8)
        rep = probe_empirical(inst, pts)
        # every measured quantity has its analytic constant, so each gets a tightness
        assert set(rep.empirical) <= set(rep.analytic)
        for key in SOUND_KEYS:
            assert rep.tightness[key] <= 1.0, (seed, key, rep.tightness[key])
        psd = rep.analytic["psd_bound"]
        assert psd.holds(abs(rep.lambda_min_B)) and psd.holds(abs(rep.lambda_max_B))
        assert rep.analytic["M"].holds(rep.empirical["M"])


def test_probe_degenerate_instances():
    # frozen softmax: every Jacobian column is zero and its tightness is 0
    inst0 = sn.ProblemInstance(
        A1=np.zeros((3, 2)), A2=np.ones((2, 3)) / 3, b=np.array([0.2, -0.1]),
        w=np.ones(3), activation=sn.Activation("tanh"), R=1.0,
    )
    rep = probe_empirical(inst0, [np.array([0.1, 0.0]), np.array([-0.3, 0.4])])
    assert rep.empirical["norm_p"] == 0.0
    assert rep.tightness["norm_p"] == 0.0

    # a target fitted at the probe point zeroes the measured residual
    base = sn.ProblemInstance(
        A1=np.array([[0.3, 0.1], [-0.2, 0.4], [0.5, 0.0]]), A2=np.ones((2, 3)) / 2,
        b=np.zeros(2), w=np.ones(3), activation=sn.Activation("identity"), R=1.3,
    )
    x0 = np.array([0.2, -0.1])
    fitted = sn.ProblemInstance(
        A1=base.A1, A2=base.A2, b=sn.eval_forward(base, x0).hval, w=base.w,
        activation=sn.Activation("identity"), R=1.3,
    )
    rep = probe_empirical(fitted, [x0, x0])
    assert rep.empirical["norm_c"] == 0.0


def test_admissibility_filtering_and_errors():
    inst = sn.ProblemInstance(
        A1=np.array([[-50.0]]), A2=np.array([[1.0]]), b=np.zeros(1), w=np.ones(1),
        activation=sn.Activation("tanh"), R=60.0,
    )
    # alpha(x) = exp(-50 x): x = 1 is excluded, x <= 0 admissible
    rep = probe_empirical(inst, [np.array([1.0]), np.array([-0.05]), np.array([-0.02])])
    assert rep.n_admissible == 2 and rep.n_excluded == 1
    with pytest.raises(ValueError, match="admissible"):
        probe_empirical(inst, [np.array([1.0]), np.array([2.0])])


def test_measured_radius_includes_target_vector(s1_instance):
    big_b = sn.ProblemInstance(
        A1=s1_instance.A1, A2=s1_instance.A2, b=np.array([2.0, -2.0]), w=s1_instance.w,
        activation=sn.Activation("tanh"), R=s1_instance.R,
    )
    assert measured_radius(big_b) >= np.linalg.norm(big_b.b)


def test_instance_norms_are_taken_once(monkeypatch):
    # loading takes one spectral norm per matrix; the constants and the probe read the kept ones
    inst, _ = sn.gen_instance(7, 3, 2, "softplus", 4, noise=0.1)
    doc = sn.instance_to_json(inst)
    taken = []
    real = np.linalg.norm

    def counting(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and axis is None and np.ndim(x) == 2:
            taken.append(np.shape(x))
        return real(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counting)
    loaded = sn.instance_from_json(doc)
    assert sorted(taken) == [(3, 7), (7, 2)]
    taken.clear()
    sn.compute_constants(loaded)
    assert probe_empirical(loaded, random_points(loaded, 5, 6)).n_admissible >= 2
    assert taken == []
    assert (loaded.norm_A1, loaded.norm_A2, loaded.R_h) == (inst.norm_A1, inst.norm_A2, inst.R_h)


def test_report_json_round_trip(s1_instance, s1_golden):
    pts = [np.array(p) for p in s1_golden["bounds_probe"]["points"]][:5]
    rep = probe_empirical(s1_instance, pts)
    doc = rep.to_json()
    txt = dumps(doc)
    import json

    back = json.loads(txt)
    assert back["empirical"]["norm_f"] == rep.empirical["norm_f"]
    assert back["analytic"]["M"]["exp10"] == rep.analytic["M"].to_json()["exp10"]
    assert back["schema_version"] == 1
    # a field added to the report is written: every one is in the JSON
    assert {f.name for f in dataclasses.fields(sn.BoundReport)} <= set(back)


def pairwise_probe(inst, pts):
    """The per-pair loop that the stacked probe replaced, kept as its reference.

    Returns (empirical, lambda_min_B, lambda_max_B), or None when fewer than
    two points are admissible.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DenominatorFloorWarning)
        states = [s for s in (sn.eval_forward(inst, x) for x in pts) if s.log_alpha >= math.log(inst.beta)]
    if len(states) < 2:
        return None
    per_point = []
    for s in states:
        per_point.append({
            "x": s.x, "u": s.u, "alpha": s.alpha, "alpha_inv": 1.0 / s.alpha, "f": s.f, "c": s.c,
            "Q2": s.hprime, "q2": s.q2, "g": grad(s, inst).grad_L, "p": eval_p(s, inst),
            "M": hess_L(s, inst).H_L,
            **g_terms(s, inst),
        })
    vec = lambda a, b: float(np.linalg.norm(np.atleast_1d(a) - np.atleast_1d(b)))
    mat = lambda a, b: float(np.linalg.norm(a - b, 2))
    col = lambda a, b: float(np.max(np.linalg.norm(a - b, axis=0)))
    # Q2_i - Q2_j = diag(h'_i - h'_j) A2, with the difference taken first
    diag_q2 = lambda a, b: float(np.linalg.norm((a - b)[:, None] * inst.A2, 2))
    emp = {}
    for key in ("u", "alpha", "alpha_inv", "f", "c", "Q2", "q2", "g", "p", "M", "G1", "G2", "G3", "G4", "G5", "G6"):
        norm = col if key == "p" else diag_q2 if key == "Q2" else mat if key == "M" or key.startswith("G") else vec
        best = 0.0
        for a, b in itertools.combinations(per_point, 2):
            dx = float(np.linalg.norm(a["x"] - b["x"]))
            if dx == 0.0:
                continue
            best = max(best, norm(a[key], b[key]) / dx)
        emp[key if key == "M" else f"lip_{key}"] = best
    for key in ("f", "c", "q2"):
        emp[f"norm_{key}"] = max(float(np.linalg.norm(p[key])) for p in per_point)
    emp["norm_Q2"] = max(float(np.linalg.norm(eval_Q2(s, inst), 2)) for s in states)
    emp["norm_p"] = max(float(np.max(np.linalg.norm(p["p"], axis=0))) for p in per_point)
    spectra = [spectral(kernel(s, inst)) for s in states]
    lam_min, lam_max = min(lo for lo, _, _ in spectra), max(hi for _, hi, _ in spectra)
    emp["psd_bound"] = max(abs(lam_min), abs(lam_max))
    return emp, lam_min, lam_max


def q2_tolerance(m, n):
    """Relative gap allowed between the probe's ||diag(v) A2||_2, read from the Gram of A2, and the SVD of v[:, None] * A2.

    With u = 2^-53, W = diag(v) A2 and r = min(m, n); the scalings by powers of two are exact.
    - The Gram K = A2 A2^T has |dK| <= g_n |A2| |A2|^T, g_n = n u / (1 - n u); the products
      v_a K_ab v_b round twice more, so (v v^T) o K carries |dM| <= g_(n+2) |W| |W|^T, of norm at
      most g_(n+2) || |W| ||_2^2 <= g_(n+2) r ||W||_2^2.
    - ``eigvalsh`` returns an eigenvalue of M + F with ||F||_2 <= p u ||M||_2, where LAPACK's guide
      leaves p a modest function of the order; it is taken as the order m.
    So lambda_max is within (g_(n+2) r + m u) relative of ||W||_2^2; its square root halves that
    and rounds once more (u).
    - The reference rounds each product v_a A2_ab once: |dW| <= u |W|, of norm at most sqrt(r) u
      ||W||_2; its SVD is within p u ||W||_2, with p taken as max(m, n).
    - A Lipschitz ratio divides both by the same distance: one rounding (u) on each side.
    """
    u = 2.0**-53
    g = (n + 2) * u / (1 - (n + 2) * u)
    return (g * min(m, n) + m * u) / 2 + u + (math.sqrt(min(m, n)) + max(m, n)) * u + 2 * u


def subnormal_slack(m, n):
    """Absolute slack for roundings below the normal range, each off by at most 2^-1075.

    The reference's m n products v_a A2_ab move its norm by at most sqrt(m n) 2^-1075 (Frobenius),
    and each side's result may round once more; every half unit is taken as a whole 2^-1074.
    """
    return (math.sqrt(m * n) + 2.0) * 2.0**-1074


def assert_probe_matches(got, expected, inst, pts):
    """``got`` equals the pairwise reference's empirical map, the Q2 keys within ``q2_tolerance``.

    Below the normal range a rounding errs by an absolute 2^-1075, half the least subnormal
    (``subnormal_slack``), divided by the pair's distance in a ratio.
    """
    assert set(got) == set(expected)
    assert {k: v for k, v in got.items() if "Q2" not in k} == {k: v for k, v in expected.items() if "Q2" not in k}
    dx = [float(np.linalg.norm(a - b)) for a, b in itertools.combinations(pts, 2)]
    dx_min = min([v for v in dx if v > 0.0], default=1.0)
    tiny = subnormal_slack(inst.m, inst.n)
    rel = q2_tolerance(inst.m, inst.n)
    for key, slack in (("norm_Q2", tiny), ("lip_Q2", tiny / dx_min)):
        assert abs(got[key] - expected[key]) <= rel * expected[key] + slack, (key, got[key], expected[key])


def frozen_points(d, count=4):
    """Distinct probe points, small enough for every instance below to admit them."""
    return [np.linspace(-0.3, 0.2, d) * (k + 1) / count for k in range(count)]


def explicit_case(A2, kind, d=2):
    n = A2.shape[1]
    A1 = np.linspace(-0.5, 0.5, n * d).reshape(n, d)
    inst = sn.ProblemInstance(
        A1=A1, A2=A2, b=np.full(A2.shape[0], 0.1), w=np.ones(n), activation=sn.Activation(kind),
        R=max(float(np.linalg.norm(A1, 2)), float(np.linalg.norm(A2, 2)), 0.5),
    )
    return inst, frozen_points(d)


_A2 = np.array([[0.9, -0.4, 0.3, 1.1, -0.7], [0.2, 0.8, -1.3, 0.5, 0.6], [-1.0, 0.1, 0.7, -0.2, 0.4]])


def seed_repeat_case(A2, kind, nudge):
    """``explicit_case`` plus a copy, scaled by 1 + nudge, of the point whose kernel has the largest diagonal entry.

    That point seeds the probe's lambda_max(B), so an exact repeat has a kernel spectrum with the
    same extreme.
    """
    inst, pts = explicit_case(A2, kind)
    diag = sn.kernel_diag(sn.eval_forward(inst, np.array(pts)), inst)
    return inst, pts + [pts[int(np.argmax(diag.max(axis=1)))] * (1.0 + nudge)]


@st.composite
def probe_cases(draw):
    """A random finite instance and 2-8 probe points, some of them repeated."""
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
    distinct = draw(st.lists(hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=8))
    return inst, [distinct[i].copy() for i in picks]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=probe_cases())
@example(case=explicit_case(_A2 * 1e-200, "tanh"))  # the Gram of A2 alone would underflow
@example(case=explicit_case(_A2, "identity"))  # h' = 1: every Q2 difference is exactly zero
@example(case=explicit_case(_A2[:1], "softplus"))  # m = 1
# the kernel spectrum: a repeated extreme point, whose certificate must fail; a point 2^-45 from it,
# within tau of the running extreme, which is eigen-solved and moves it; and n = 1
@example(case=seed_repeat_case(_A2, "tanh", 0.0))
@example(case=seed_repeat_case(_A2, "tanh", 2.0**-45))
@example(case=explicit_case(_A2[:, :1], "sigmoid"))
def test_probe_equals_pairwise_reference(case):
    inst, pts = case
    expected = pairwise_probe(inst, pts)
    if expected is None:
        with pytest.raises(TooFewAdmissiblePointsError):
            probe_empirical(inst, pts)
        return
    rep = probe_empirical(inst, pts)
    emp, lam_min, lam_max = expected
    assert_probe_matches(rep.empirical, emp, inst, pts)
    assert (rep.lambda_min_B, rep.lambda_max_B) == (lam_min, lam_max)
    if inst.activation.kind == "identity":
        assert rep.empirical["lip_Q2"] == 0.0


def bits(values):
    """The float64 bit patterns of ``values``, so that NaN and -0.0 compare as themselves."""
    return np.array(list(values), dtype=float).view(np.uint64).tolist()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=probe_cases(), keys=st.sets(st.sampled_from(bounds_mod._EMPIRICAL_KEYS)))
@example(case=explicit_case(_A2, "tanh"), keys={"norm_p"})  # P's stack without its ratio
@example(case=explicit_case(_A2, "sigmoid"), keys={"lip_G3", "psd_bound"})  # one piece of g_terms
def test_keyed_probe_equals_the_full_probe_on_its_keys(case, keys):
    inst, pts = case
    try:
        full = probe_empirical(inst, pts)
    except TooFewAdmissiblePointsError:
        with pytest.raises(TooFewAdmissiblePointsError):
            probe_empirical(inst, pts, keys=keys)
        return
    rep = probe_empirical(inst, pts, keys=keys)
    order = [k for k in full.empirical if k in keys]
    assert list(rep.empirical) == order and list(rep.tightness) == order
    assert bits(rep.empirical.values()) == bits(full.empirical[k] for k in order)
    assert bits(rep.tightness.values()) == bits(full.tightness[k] for k in order)
    spectrum = (full.lambda_min_B, full.lambda_max_B) if "psd_bound" in keys else (None, None)
    assert (rep.lambda_min_B, rep.lambda_max_B) == spectrum
    assert (rep.R_used, rep.beta_used, rep.n_admissible, rep.n_excluded) == (
        full.R_used, full.beta_used, full.n_admissible, full.n_excluded)


def test_probe_rejects_an_unknown_key(s1_instance):
    pts = frozen_points(s1_instance.d)
    with pytest.raises(ValueError, match="unknown empirical keys \\['lip_x'\\]"):
        probe_empirical(s1_instance, pts, keys=("M", "lip_x"))


def test_probe_without_psd_bound_forms_no_kernel(s1_instance, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(bounds_mod, "kernel", no_kernel)
    keys = [k for k in bounds_mod._EMPIRICAL_KEYS if k != "psd_bound"]
    rep = probe_empirical(s1_instance, frozen_points(s1_instance.d), keys=keys)
    assert list(rep.empirical) == keys
    assert rep.lambda_min_B is None and rep.lambda_max_B is None


# multiples of tau by which a test extreme lies outside the point's own: at or inside it (<= 0) never certifies
_TAU_STEPS = (-4, -1, -0.25, 0, 0.25, 0.5, 1, 2, 16, 2**10)
_FAULT_FIELDS = ("f", "c", "hprime", "hdoubleprime", "q2", "a2f")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), m=st.integers(1, 4), kind=st.sampled_from(ALL_KINDS),
    scale=st.integers(-6, 6), steps=st.tuples(st.sampled_from(_TAU_STEPS), st.sampled_from(_TAU_STEPS)),
    fault=st.tuples(st.sampled_from(_FAULT_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf])),
)
@example(seed=0, n=20, m=4, kind="tanh", scale=0, steps=(0, 0), fault=("c", math.nan))  # the extremes themselves
@example(seed=0, n=20, m=4, kind="tanh", scale=0, steps=(16, 16), fault=("f", math.inf))
@example(seed=1, n=6, m=4, kind="sigmoid", scale=0, steps=(2**10, 2**10), fault=("q2", -math.inf))  # n = m + 2
@example(seed=2, n=5, m=4, kind="identity", scale=0, steps=(2**10, 2**10), fault=("a2f", math.nan))  # n = m + 1
def test_factor_certificate_keeps_the_spectrum_inside(seed, n, m, kind, scale, steps, fault):
    """A point that ``_certified`` certifies has its ``eigvalsh`` extremes inside the test extremes.

    Each test extreme is the point's own moved outward by a multiple of that side's tau (``_slack``), so
    the extremes cluster within a few tau of the point's on both sides; a point at or inside its own
    extremes is never certified. Extremes 4 (||W||_2 + max|u|) outside its own put every row of Delta above
    the floor, and such a point is certified wherever the route applies (n >= m + 2) and nothing
    saturates; so is one 16 tau or more outside whose rows of Delta at its own extremes stand clear of the
    floor, few enough of them below it.
    A NaN or infinite factor is never certified.
    """
    from softnewt.bounds import _certified, _slack
    from softnewt.hessian import _centred_A2, _g_u
    from softnewt.oracle import symmetric_part

    rng = np.random.default_rng(seed)
    A1, A2 = rng.standard_normal((n, 2)), rng.standard_normal((m, n)) * 10.0**scale
    inst = sn.ProblemInstance(
        A1=A1, A2=A2, b=rng.standard_normal(m), w=np.ones(n), activation=sn.Activation(kind),
        R=max(float(np.linalg.norm(A1, 2)), float(np.linalg.norm(A2, 2)), 0.5),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DenominatorFloorWarning)
        states = sn.eval_forward(inst, rng.standard_normal((3, 2)))
    lam = np.linalg.eigvalsh(symmetric_part(kernel(states, inst)))
    lo, hi = lam[:, 0], lam[:, -1]
    Zt = np.concatenate([_centred_A2(states, inst), np.ones((3, 1, n))], axis=1) * states.f[:, None, :]
    g, u = _g_u(states)
    v = states.hprime * states.c
    for r in range(3):
        one = states.rows([r])
        tau = _slack(Zt[[r]], g[[r]], u[[r]], v[[r]], np.array([[hi[r]], [-lo[r]]]))[:, 0]
        lam_min, lam_max = lo[r] - steps[0] * tau[1], hi[r] + steps[1] * tau[0]
        certified = _certified(one, inst, lam_min, lam_max)[0]
        if certified:
            assert lam_min <= lo[r] and hi[r] <= lam_max
        if min(steps) <= 0:
            assert not certified
        # Delta at the point's own extremes: where no row lies near the floor, as many rows move at 16 tau,
        # and the route takes the point when they are few enough
        own = np.array([hi[r] + u[r], -lo[r] - u[r]])
        if n >= m + 2 and scale <= 1 and min(steps) >= 16 and np.all(own.max(axis=1) > 0):
            own /= own.max(axis=1)[:, None]
            moved = np.sum(own < bounds_mod._FLOOR, axis=1)
            if not np.any(np.abs(own - bounds_mod._FLOOR) < 0.01) and np.max(moved) <= min(m + 1, n - m - 2):
                assert certified
        far = 4 * (max(abs(lo[r]), abs(hi[r])) + float(np.max(np.abs(u[r]))))
        if n >= m + 2 and scale <= 1 and far > 0:
            assert _certified(one, inst, lo[r] - far, hi[r] + far)[0]
        broken = states.rows([r])
        getattr(broken, fault[0])[0, 0] = fault[1]
        with np.errstate(invalid="ignore"):
            assert not _certified(broken, inst, lo[r] - far, hi[r] + far)[0]


def test_probe_rejects_a_non_finite_kernel():
    # A2 ~ 1e155: every kernel is NaN, which a batched eigvalsh met as "Eigenvalues did not converge"
    inst, _ = sn.gen_instance(8, 4, 3, "identity", 7, noise=0.05)
    inst = dataclasses.replace(inst, A2=inst.A2 * 1e155, R=inst.R * 1e155)
    pts = [np.full(3, 0.1), np.full(3, -0.1), np.full(3, 0.05)]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        probe_empirical(inst, pts, keys=("psd_bound",))


@pytest.mark.parametrize("role", ["seed", "refused"])
def test_probe_rejects_an_asymmetric_kernel_at_any_point(monkeypatch, role):
    from softnewt.oracle import symmetric_part

    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    pts = bounds_style_points(inst, 12, 20)
    diag = sn.kernel_diag(sn.eval_forward(inst, np.array(pts)), inst)
    seeds = {int(np.argmax(diag.max(axis=1))), int(np.argmin(diag.min(axis=1)))}
    solved = []
    monkeypatch.setattr(bounds_mod, "spectral", lambda M: solved.extend(symmetric_part(M)) or spectral(M))
    probe_empirical(inst, pts, keys=("psd_bound",))
    W = [symmetric_part(kernel(sn.eval_forward(inst, x), inst)) for x in pts]
    eigen_solved = {i for i in range(20) if any(np.array_equal(W[i], M) for M in solved)}
    # the seeds are eigen-solved, and all but a few other points certified
    assert seeds <= eigen_solved and len(eigen_solved) <= 4
    target = min(seeds)
    if role == "refused":
        # a certified point, made to fail the certificate: its kernel is then formed and checked
        target = min(set(range(20)) - eigen_solved)
        certified = bounds_mod._certified
        monkeypatch.setattr(
            bounds_mod, "_certified",
            lambda states, inst, lo, hi: certified(states, inst, lo, hi) & ~np.all(states.x == pts[target], axis=1),
        )

    def skewed(states, inst):
        B = kernel(states, inst)
        B[np.all(states.x == pts[target], axis=1), 0, 1] += 2e-8 * max(1.0, float(np.max(np.abs(B))))
        return B

    monkeypatch.setattr(bounds_mod, "kernel", skewed)
    with pytest.raises(ValueError, match="not symmetric"):
        probe_empirical(inst, pts, keys=("psd_bound",))


@st.composite
def diag_scaled_cases(draw):
    """Rows v (k 1-6, m 1-5) and an m x n A2 (n 1-7), each at its own scale 10^-300 to 10^300, some rows zero."""
    k, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 7))
    V = draw(hnp.arrays(float, (k, m), elements=st.floats(-2.0, 2.0)))
    A2 = draw(hnp.arrays(float, (m, n), elements=st.floats(-2.0, 2.0)))
    V[draw(st.lists(st.integers(0, k - 1), max_size=k))] = 0.0
    with np.errstate(under="ignore"):
        return V * 10.0 ** draw(st.integers(-300, 0)), A2 * 10.0 ** draw(st.integers(-300, 300))


_V = np.array([[0.3, -1.2, 0.05], [0.0, 0.0, 0.0], [1e-17, 2e-17, -3e-17]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=diag_scaled_cases())
@example(case=(_V, _A2 * 1e200))  # A2 A2^T would overflow
@example(case=(_V, _A2 * 1e-200))  # and here underflow
@example(case=(_V[:, :1], _A2[:1]))  # m = 1
@example(case=(np.zeros((2, 3)), _A2))  # v = 0, as for the identity activation
# v's large entry meets a zero row of A2: scaled by max|v| and max|A2| alone, the product underflows
@example(case=(np.array([[1.0, 1.64023605e-242]]), np.array([[0.0], [1.0]])))
def test_gram_route_matches_the_svd_of_each_row(case):
    from softnewt.bounds import _bounds, _norms, _scaled_gram

    V, A2 = case
    m, n = A2.shape
    gram = _scaled_gram(A2)
    got = _norms("lip_Q2", V, gram)
    ub = _bounds("lip_Q2", V, gram)
    with np.errstate(under="ignore"):
        ref = np.array([np.linalg.norm(v[:, None] * A2, 2) for v in V])
    tiny = subnormal_slack(m, n)
    assert np.all(np.abs(got - ref) <= q2_tolerance(m, n) * ref + tiny), (got, ref)
    assert np.all(got <= ub) and np.all(got[~V.any(axis=1)] == 0.0)


def test_probe_memory_is_linear_in_points():
    # 60 points: the 1770 pair differences of Q2 alone would take 14 MiB
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 3, noise=0.05)
    rng = np.random.default_rng(5)
    pts = [0.5 * inst.R * rng.standard_normal(8) / np.sqrt(8) for _ in range(60)]
    tracemalloc.start()
    try:
        rep = probe_empirical(inst, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_admissible == 60
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def bounds_style_points(inst, seed, count):
    """Probe points drawn as ``softnewt bounds`` draws them: radius U[0.1, 0.9] R."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        g = rng.standard_normal(inst.d)
        pts.append(g * rng.uniform(0.1, 0.9) * inst.R / np.linalg.norm(g))
    return pts


@pytest.mark.parametrize("n, m, d, kind", [
    (64, 16, 8, "tanh"),  # the cli benchmark's shape
    # d = 1: every H_L and G difference is 1 x 1, so its Frobenius bound is tight
    *((9, 4, 1, kind) for kind in ALL_KINDS),
])
def test_screened_probe_equals_pairwise_reference(n, m, d, kind):
    inst, _ = sn.gen_instance(n, m, d, kind, 11, noise=0.05)
    pts = bounds_style_points(inst, 12, 20)
    pts += [pts[4].copy(), pts[15].copy()]
    emp, lam_min, lam_max = pairwise_probe(inst, pts)
    doc = probe_empirical(inst, pts).to_json()
    assert_probe_matches(doc["empirical"], emp, inst, pts)
    assert (doc["lambda_min_B"], doc["lambda_max_B"]) == (lam_min, lam_max)


def test_screened_probe_measures_few_spectral_norms(monkeypatch):
    measured = {}
    norms = bounds_mod._norms

    def counting(key, D, gram):
        if D.ndim == 3 and key != "lip_p":
            measured[key] = measured.get(key, 0) + len(D)
        return norms(key, D, gram)

    monkeypatch.setattr(bounds_mod, "_norms", counting)
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    rep = probe_empirical(inst, bounds_style_points(inst, 12, 20))
    assert rep.n_admissible == 20
    # only M and the six G pieces take SVDs (Q2 goes through the m x m Gram of A2), on
    # fewer than a sixth of their 7 x 190 pairs
    assert sorted(measured) == ["M", *(f"lip_G{i}" for i in range(1, 7))]
    assert sum(measured.values()) < 7 * 190 / 6, measured


def test_spectral_lipschitz_keys_are_screened_and_the_rest_measured_in_one_pass(monkeypatch):
    measured = {}
    max_norm = bounds_mod._max_norm

    def counting(key, D, dx, gram):
        if np.ndim(dx):  # a pair batch; the norm maxima pass dx = 1.0
            measured[key] = measured.get(key, 0) + len(D)
        return max_norm(key, D, dx, gram)

    monkeypatch.setattr(bounds_mod, "_max_norm", counting)
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    rep = probe_empirical(inst, bounds_style_points(inst, 12, 20))
    lip_keys = [k for k in rep.empirical if k == "M" or k.startswith("lip_")]
    assert len(lip_keys) == 16
    # M, Q2 and the six G pieces are screened, each measured on at most 40% of its 190 pairs;
    # lip_Q2's Frobenius screen leaves fewer than a sixth. The other eight take their maxima
    # from the one pass and measure no pair batch
    screened = ["M", "lip_Q2", *(f"lip_G{i}" for i in range(1, 7))]
    assert sorted(measured) == sorted(screened)
    assert all(0 < count <= 0.4 * 190 for count in measured.values()), measured
    assert measured["lip_Q2"] < 190 / 6, measured


def test_probe_stacks_its_calls(monkeypatch):
    from softnewt import derivatives, hessian

    calls = {"eval_forward": 0, "_centred_A2": 0, "_G": 0, "eval_Q2": 0}
    spectra, factored, kernels = [], [], []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(bounds_mod, "eval_forward")
    counted(hessian, "_centred_A2")
    counted(bounds_mod, "_centred_A2")  # the factor route's own binding
    counted(hessian, "_G")
    counted(derivatives, "eval_Q2")
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: spectra.append(M.shape) or eigvalsh(M))
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: factored.append(M.shape) or cholesky(M))
    monkeypatch.setattr(
        bounds_mod, "kernel", lambda states, inst: kernels.append(len(states.x)) or kernel(states, inst),
    )
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    rep = probe_empirical(inst, bounds_style_points(inst, 12, 20))
    assert rep.n_admissible == 20
    # one stacked forward pass; hess_L and g_terms one pass each over all points that forms
    # only G = (A2 J) A1. The kernel spectrum: one stacked kernel_diag picks two seeds, whose
    # kernels take one pass and one eigvalsh call; the other 18 points take one chunk of B's
    # factors (one _centred_A2 pass, 30 points fit under _CHUNK_BYTES) and one batched Cholesky
    # factorization of the 36 small Grams (both sides of each point) and one of the 36 small
    # matrices I - R^T C' R. Kernels are formed only for the seeds and for the points the factors
    # leave, none at this instance. Q2 forms no m x n matrix: norm_Q2 takes one batched eigvalsh
    # of 20 m x m matrices, and lip_Q2 one per batch of 8 pairs
    assert model._CHUNK_BYTES // (8 * 64 * 17) >= 18
    assert kernels == [2], kernels
    assert calls == {"eval_forward": 1, "_centred_A2": 3, "_G": 2, "eval_Q2": 0}, calls
    assert spectra[0] == (2, 64, 64) and (64, 64) not in [shape[1:] for shape in spectra[1:]], spectra
    k = {shape[1] for shape in factored}
    assert len(factored) == 2 and all(shape[0] == 36 for shape in factored) and len(k) == 1, factored
    assert 17 <= min(k) < 64 and all(shape[1:] == (min(k), min(k)) for shape in factored), factored
    gram_batches = spectra[1:]
    assert gram_batches[0] == (20, 16, 16) and 1 <= len(gram_batches) - 1 <= 190 / 6 / 8, spectra
    assert all(shape[1:] == (16, 16) and shape[0] <= 8 for shape in gram_batches[1:]), spectra


def test_probe_forms_no_more_kernels_than_its_seed_chunk():
    # at n = 300 a kernel takes 720 KB, so each chunk of kernels holds one: the seeds are formed one at a
    # time, and the 18 certified points form none, so the probe's peak is the seed chunk's
    inst, _ = sn.gen_instance(300, 16, 8, "tanh", 11, noise=0.05)
    pts = bounds_style_points(inst, 12, 20)
    states = sn.eval_forward(inst, np.array(pts[:1]))
    probe_empirical(inst, pts, keys=("psd_bound",))  # first calls import what they need: not measured
    tracemalloc.start()
    try:
        spectral(kernel(states, inst))
        seed_chunk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = probe_empirical(inst, pts, keys=("psd_bound",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.lambda_max_B is not None
    # the probe also holds its 20 states, their diag(B) and a chunk of factors, together under half a kernel
    assert peak <= seed_chunk + 8 * 300 * 300 / 2, (peak, seed_chunk)


def test_spectral_bounds_cover_underflow_and_zeros():
    from softnewt.bounds import _spectral_bounds

    rank_one = np.outer([3.0, -1.0, 2.0], [0.5, 7.0])
    D = np.stack([rank_one, np.zeros((3, 2)), np.full((3, 2), 1e-160), np.full((3, 2), np.nan)])
    ub = _spectral_bounds(D)
    assert ub[0] >= np.linalg.norm(rank_one, 2)
    # all zeros bound 0; squares that underflow or NaN bound nothing, so inf
    assert list(ub[1:]) == [0.0, math.inf, math.inf]
    # Hoelder's sqrt(||D||_1 ||D||_inf) is attained by the identity, where Frobenius reads sqrt(8)
    assert _spectral_bounds(np.eye(8)[None])[0] == 1.0 + 1e-8


@st.composite
def bound_matrices(draw):
    """A random, rank-1, single-entry or all-zero matrix of 1-6 rows and columns, scaled by 1, 1e-160 or 1e200."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    entries = st.floats(-1e3, 1e3)
    kind = draw(st.sampled_from(["random", "rank1", "single", "zero"]))
    D = np.zeros(shape)
    if kind == "random":
        D = draw(hnp.arrays(float, shape, elements=entries))
    elif kind == "rank1":
        D = np.outer(draw(hnp.arrays(float, shape[0], elements=entries)), draw(hnp.arrays(float, shape[1], elements=entries)))
    elif kind == "single":
        D[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = draw(entries)
    with np.errstate(under="ignore"):
        return D * draw(st.sampled_from([1.0, 1e-160, 1e200]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(D=bound_matrices())
@example(D=np.full((4, 6), 1e200))  # rank 1 with both bounds attained; its squares overflow
@example(D=np.full((2, 3), 1e-160))  # its squares underflow: measured
def test_spectral_bounds_bound_the_spectral_norm(D):
    from softnewt.bounds import _spectral_bounds

    ub = _spectral_bounds(D[None])[0]
    assert ub >= np.linalg.norm(D, 2)
    if not D.any():
        assert ub == 0.0
    elif not np.einsum("ij,ij", D, D) >= 1e-280:
        assert ub == math.inf
