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
    c = LogConstant.from_value(v)
    assert c.holds(measured) == (measured <= 0.0 or math.log(measured) <= c.log_value)
    t = c.tightness(measured)
    if 0.0 < t < math.inf and measured > 0.0:
        assert math.log(t) == pytest.approx(math.log(measured) - c.log_value, abs=1e-9)
    m, e = c.mantissa_exp10()
    assert 1.0 <= m < 10.0 or (m, e) == (0.0, 0)
    assert math.log10(m) + e == pytest.approx(c.log10, abs=1e-9)


def test_log_constant_basics():
    c = LogConstant.from_value(800.0)
    m, e = c.mantissa_exp10()
    assert (m, e) == (pytest.approx(8.0), 2)
    assert c.value == pytest.approx(800.0)
    assert c.holds(799.0) and not c.holds(801.0)
    assert c.tightness(400.0) == pytest.approx(0.5)
    z = LogConstant.from_value(0.0)
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
            "Q2": eval_Q2(s, inst), "q2": s.q2, "g": grad(s, inst).grad_L, "p": eval_p(s, inst),
            "M": hess_L(s, inst).H_L,
            **g_terms(s, inst),
        })
    vec = lambda a, b: float(np.linalg.norm(np.atleast_1d(a) - np.atleast_1d(b)))
    mat = lambda a, b: float(np.linalg.norm(a - b, 2))
    col = lambda a, b: float(np.max(np.linalg.norm(a - b, axis=0)))
    emp = {}
    for key in ("u", "alpha", "alpha_inv", "f", "c", "Q2", "q2", "g", "p", "M", "G1", "G2", "G3", "G4", "G5", "G6"):
        norm = col if key == "p" else mat if key in ("Q2", "M") or key.startswith("G") else vec
        best = 0.0
        for a, b in itertools.combinations(per_point, 2):
            dx = float(np.linalg.norm(a["x"] - b["x"]))
            if dx == 0.0:
                continue
            best = max(best, norm(a[key], b[key]) / dx)
        emp[key if key == "M" else f"lip_{key}"] = best
    for key in ("f", "c", "q2"):
        emp[f"norm_{key}"] = max(float(np.linalg.norm(p[key])) for p in per_point)
    emp["norm_Q2"] = max(float(np.linalg.norm(p["Q2"], 2)) for p in per_point)
    emp["norm_p"] = max(float(np.max(np.linalg.norm(p["p"], axis=0))) for p in per_point)
    spectra = [spectral(kernel(s, inst)) for s in states]
    lam_min, lam_max = min(lo for lo, _, _ in spectra), max(hi for _, hi, _ in spectra)
    emp["psd_bound"] = max(abs(lam_min), abs(lam_max))
    return emp, lam_min, lam_max


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
def test_probe_equals_pairwise_reference(case):
    inst, pts = case
    expected = pairwise_probe(inst, pts)
    if expected is None:
        with pytest.raises(TooFewAdmissiblePointsError):
            probe_empirical(inst, pts)
        return
    rep = probe_empirical(inst, pts)
    emp, lam_min, lam_max = expected
    assert rep.empirical == emp
    assert (rep.lambda_min_B, rep.lambda_max_B) == (lam_min, lam_max)


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
    assert doc["empirical"] == dict(sorted(emp.items()))
    assert (doc["lambda_min_B"], doc["lambda_max_B"]) == (lam_min, lam_max)


def test_screened_probe_measures_few_spectral_norms(monkeypatch):
    import softnewt.bounds as bounds_mod

    measured = []
    norms = bounds_mod._norms

    def counting(key, D):
        if D.ndim == 3 and key != "lip_p":
            measured.append(len(D))
        return norms(key, D)

    monkeypatch.setattr(bounds_mod, "_norms", counting)
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    rep = probe_empirical(inst, bounds_style_points(inst, 12, 20))
    assert rep.n_admissible == 20
    # 8 matrix keys x 190 pairs, plus the 20 Q2 norms behind norm_Q2
    assert sum(measured) - 20 < 8 * 190 / 4, sum(measured)


def test_probe_stacks_its_calls(monkeypatch):
    import softnewt.bounds as bounds_mod
    from softnewt import hessian

    calls = {"eval_forward": 0, "_factors": 0, "_G": 0, "eigvalsh": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(bounds_mod, "eval_forward")
    counted(hessian, "_factors")
    counted(hessian, "_G")
    counted(np.linalg, "eigvalsh")
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 11, noise=0.05)
    rep = probe_empirical(inst, bounds_style_points(inst, 12, 20))
    assert rep.n_admissible == 20
    # one stacked forward pass; per chunk of points, kernel takes one pass that forms A2 J,
    # hess_L and g_terms one pass each that forms only G = (A2 J) A1, and the chunk's
    # spectra one eigvalsh call (one of each per point before)
    assert calls["eval_forward"] == 1
    chunks = math.ceil(20 / max(1, bounds_mod._CHUNK_BYTES // (8 * 64 * 64)))
    assert chunks < 20
    assert calls == {"eval_forward": 1, "_factors": chunks, "_G": 2 * chunks, "eigvalsh": chunks}, calls


def test_spectral_bounds_cover_underflow_and_zeros():
    from softnewt.bounds import _spectral_bounds

    rank_one = np.outer([3.0, -1.0, 2.0], [0.5, 7.0])
    D = np.stack([rank_one, np.zeros((3, 2)), np.full((3, 2), 1e-160), np.full((3, 2), np.nan)])
    ub = _spectral_bounds(D)
    assert ub[0] >= np.linalg.norm(rank_one, 2)
    # all zeros bound 0; squares that underflow or NaN bound nothing, so inf
    assert list(ub[1:]) == [0.0, math.inf, math.inf]
