#!/usr/bin/env python3
"""Regenerate tests/golden/*.json.

Phase A evaluates the seed instance in 40-digit arithmetic (mpmath), straight
from the defining formulas: forward pass, first and second derivatives (the
Hessian is cross-checked against pure high-precision finite differences of the
loss, which involve no closed form), kernel addends, spectra, leverage scores,
and the bound constants / empirical probe table at a frozen point set.

Phase B freezes package-derived regression anchors (a Newton trace and sketch
draws) after the closed forms have been certified against Phase A.

Run from the repo root: python scripts/make_goldens.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
from mpmath import mp

mp.dps = 40

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "..", "tests", "golden")

# ---------------------------------------------------------------------------
# seed instance S1
# ---------------------------------------------------------------------------
A1_ROWS = [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]]
A2_ROWS = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
B_VEC = [0.2, 0.1]
W_VEC = [2.0, 2.0, 2.0]
X0 = [0.3, -0.2]
R_BUDGET = 1.5
BETA = 0.05
N, D, M = 3, 2, 2


def mpm(rows):
    return mp.matrix([[mp.mpf(v) for v in row] for row in rows])


def mpv(vals):
    return mp.matrix([mp.mpf(v) for v in vals])


A1 = mpm(A1_ROWS)
A2 = mpm(A2_ROWS)
B_TGT = mpv(B_VEC)
W = mpv(W_VEC)


def col(Mx, j):
    return mp.matrix([Mx[i, j] for i in range(Mx.rows)])


def had(a, b):
    return mp.matrix([a[i] * b[i] for i in range(a.rows)])


def dot(a, b):
    return mp.fsum(a[i] * b[i] for i in range(a.rows))


def vnorm(a):
    return mp.sqrt(mp.fsum(a[i] ** 2 for i in range(a.rows)))


def outer(a, b):
    return mp.matrix([[a[i] * b[j] for j in range(b.rows)] for i in range(a.rows)])


def diagm(a):
    n = a.rows
    Mx = mp.zeros(n, n)
    for i in range(n):
        Mx[i, i] = a[i]
    return Mx


def spec_norm(Mx):
    _, S, _ = mp.svd_r(mp.matrix(Mx), compute_uv=True)
    return max(S[i] for i in range(S.rows))


def sym_eigs(Mx):
    E, _ = mp.eigsy(mp.matrix(Mx))
    return sorted(E[i] for i in range(E.rows))


def tanh_triple(y):
    t = mp.matrix([mp.tanh(y[i]) for i in range(y.rows)])
    d1 = mp.matrix([1 - t[i] ** 2 for i in range(y.rows)])
    d2 = mp.matrix([-2 * t[i] * d1[i] for i in range(y.rows)])
    return t, d1, d2


def forward(x):
    z = A1 * x
    u = mp.matrix([mp.exp(z[i]) for i in range(N)])
    alpha = mp.fsum(u[i] for i in range(N))
    f = mp.matrix([u[i] / alpha for i in range(N)])
    a2f = A2 * f
    h, hp, hpp = tanh_triple(a2f)
    c = h - B_TGT
    loss_L = mp.mpf("0.5") * mp.fsum(c[i] ** 2 for i in range(M))
    wz = had(W, z)
    loss_reg = mp.mpf("0.5") * mp.fsum(wz[i] ** 2 for i in range(N))
    return dict(z=z, u=u, alpha=alpha, f=f, a2f=a2f, h=h, hp=hp, hpp=hpp, c=c,
                loss_L=loss_L, loss_reg=loss_reg, loss_tot=loss_L + loss_reg)


def loss_tot(x):
    return forward(x)["loss_tot"]


def grad_fd(x, h=mp.mpf("1e-18")):
    g = mp.matrix(D, 1)
    for i in range(D):
        xp, xm = mp.matrix(x), mp.matrix(x)
        xp[i] += h
        xm[i] -= h
        g[i] = (loss_tot(xp) - loss_tot(xm)) / (2 * h)
    return g


def hess_fd(x, h=mp.mpf("1e-9")):
    """Pure finite differences of the loss: H[i,j] from the 4-point stencil."""
    H = mp.matrix(D, D)
    for i in range(D):
        for j in range(D):
            xpp, xpm, xmp, xmm = (mp.matrix(x) for _ in range(4))
            xpp[i] += h; xpp[j] += h
            xpm[i] += h; xpm[j] -= h
            xmp[i] -= h; xmp[j] += h
            xmm[i] -= h; xmm[j] -= h
            H[i, j] = (loss_tot(xpp) - loss_tot(xpm) - loss_tot(xmp) + loss_tot(xmm)) / (4 * h * h)
    return H


def derivatives(fw):
    f = fw["f"]
    P = mp.matrix(N, D)
    for i in range(D):
        ai = col(A1, i)
        pi = had(f, ai) - dot(f, ai) * f
        for r in range(N):
            P[r, i] = pi[r]
    Q2 = diagm(fw["hp"]) * A2
    q2 = Q2.T * fw["c"]
    grad_L = mp.matrix(D, 1)
    for i in range(D):
        ai = col(A1, i)
        grad_L[i] = dot(ai, had(f, q2)) - dot(f, ai) * dot(q2, f)
    w2z = had(had(W, W), fw["z"])
    grad_reg = A1.T * w2z
    return P, Q2, q2, grad_L, grad_reg


def hess_f_pair(fw, i, j):
    f = fw["f"]
    ai, aj = col(A1, i), col(A1, j)
    fi, fj = dot(f, ai), dot(f, aj)
    return (2 * fi * fj) * f - dot(f, had(ai, aj)) * f - fj * had(f, ai) - fi * had(f, aj) + had(had(ai, f), aj)


def kernel_terms(fw, Q2, q2):
    f, c, hpp = fw["f"], fw["c"], fw["hpp"]
    v = had(f, q2)
    s = dot(q2, f)
    Qt = Q2.T * Q2
    S = A2.T * diagm(had(hpp, c)) * A2
    df = diagm(f)
    ff = outer(f, f)
    terms = [
        df * Qt * df,
        -1 * (df * Qt * ff),
        -1 * (ff * Qt * df),
        dot(f, Qt * f) * ff,
        2 * s * ff,
        -1 * (outer(f, v) + outer(v, f)),
        diagm(v),
        df * S * df,
        -1 * (df * S * ff),
        -1 * (ff * S * df),
        dot(f, S * f) * ff,
        -s * diagm(f),
    ]
    total = mp.zeros(N, N)
    for t in terms:
        total += t
    return terms, total


def g_pieces(fw, P, Q2, q2):
    f = fw["f"]
    v = had(f, q2)
    s = dot(q2, f)
    QP = Q2 * P
    G = A2 * P
    a = A1.T * f
    t = A1.T * v
    K = A1.T * diagm(f) * A1
    M2 = A1.T * diagm(v) * A1
    return {
        "G1": QP.T * QP,
        "G2": G.T * diagm(had(fw["hpp"], fw["c"])) * G,
        "G3": 2 * s * outer(a, a),
        "G4": s * K,
        "G5": 2 * outer(a, t),
        "G6": M2,
    }


def fl(x):
    return float(x)


def flm(Mx):
    return [[fl(Mx[i, j]) for j in range(Mx.cols)] for i in range(Mx.rows)]


def flv(v):
    return [fl(v[i]) for i in range(v.rows)]


def phase_a() -> dict:
    x = mpv(X0)
    fw = forward(x)
    P, Q2, q2, grad_L, grad_reg = derivatives(fw)
    g_analytic = grad_L + grad_reg
    g_numeric = grad_fd(x)
    gd = max(abs(g_analytic[i] - g_numeric[i]) for i in range(D))
    assert gd < mp.mpf("1e-20"), f"gradient mismatch {gd}"

    terms, Bmat = kernel_terms(fw, Q2, q2)
    H_L = A1.T * Bmat * A1
    W2 = diagm(had(W, W))
    H_tot = H_L + A1.T * W2 * A1
    H_numeric = hess_fd(x)
    hd = max(abs(H_tot[i, j] - H_numeric[i, j]) for i in range(D) for j in range(D))
    assert hd < mp.mpf("1e-14"), f"hessian mismatch {hd}"

    sig = mp.mpf("0.5")
    s_ = 1 / (1 + mp.exp(-sig))
    sp = s_ * (1 - s_)

    dweights = had(W, W)
    Msk = diagm(mp.matrix([mp.sqrt(dweights[i]) for i in range(N)])) * A1
    U, S, _ = mp.svd_r(Msk, compute_uv=True)
    rank = sum(1 for i in range(S.rows) if S[i] > mp.mpf("1e-12") * S[0])
    tau = [mp.fsum(U[i, k] ** 2 for k in range(rank)) for i in range(N)]

    doc = {
        "instance": {
            "A1": A1_ROWS, "A2": A2_ROWS, "b": B_VEC, "w": W_VEC,
            "activation": "tanh", "R": R_BUDGET, "beta": BETA,
            "L_h": 1.0, "R_h": fl(mp.sqrt(2)),
        },
        "x": X0,
        "forward": {
            "u": flv(fw["u"]), "alpha": fl(fw["alpha"]), "f": flv(fw["f"]),
            "a2f": flv(fw["a2f"]), "hval": flv(fw["h"]), "hprime": flv(fw["hp"]),
            "hdoubleprime": flv(fw["hpp"]), "c": flv(fw["c"]),
            "loss_L": fl(fw["loss_L"]), "loss_reg": fl(fw["loss_reg"]),
            "loss_tot": fl(fw["loss_tot"]),
        },
        "sigmoid_at_half": {"h": fl(s_), "hprime": fl(sp), "hdoubleprime": fl(sp * (1 - 2 * s_))},
        "derivatives": {
            "P": flm(P), "Q2": flm(Q2), "q2": flv(q2),
            "grad_L": flv(grad_L), "grad_reg": flv(grad_reg),
            "grad_tot": flv(g_analytic),
        },
        "hess_f_pair_01": flv(hess_f_pair(fw, 0, 1)),
        "hessian": {
            "B": flm(Bmat), "H_L": flm(H_L), "H_tot": flm(H_tot),
            "terms": [flm(t) for t in terms],
            "B_spectrum": [fl(e) for e in sym_eigs(Bmat)],
            "H_tot_fd": flm(H_numeric),
        },
        "leverage": {"dweights": flv(dweights), "tau": [fl(t) for t in tau]},
    }
    doc["bounds_probe"] = bounds_probe()
    return doc


def bounds_probe() -> dict:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    pts = []
    for _ in range(20):
        g = rng.standard_normal(D)
        g *= rng.uniform(0.2, 0.93) * R_BUDGET / np.linalg.norm(g)
        pts.append([float(v) for v in g])

    evals = []
    for p in pts:
        x = mpv(p)
        fw = forward(x)
        P, Q2, q2, grad_L, _ = derivatives(fw)
        _, Bmat = kernel_terms(fw, Q2, q2)
        evals.append({
            "x": x, "fw": fw, "P": P, "Q2": Q2, "q2": q2, "g": grad_L,
            "B": Bmat, "H_L": A1.T * Bmat * A1, "G": g_pieces(fw, P, Q2, q2),
        })

    R_used = max(
        [spec_norm(A1), spec_norm(A2), vnorm(B_TGT)] + [vnorm(e["x"]) for e in evals]
    )
    beta_used = min(e["fw"]["alpha"] for e in evals)
    L_h = mp.mpf(1)
    R_h = mp.sqrt(2)
    n = mp.mpf(N)
    R2 = R_used ** 2
    Rf = 2 * beta_used ** -2 * n * R_used * mp.exp(2 * R2)
    lg = lambda v: fl(mp.log10(v))
    analytic_log10 = {
        "R_f": lg(Rf),
        "M": lg(59 * (R_used + R_h) * n ** 2 * mp.exp(4 * R2) * beta_used ** -4 * R_used ** 5 * R_h ** 2 * Rf * L_h),
        "psd_bound": lg(12 * R_h * L_h * R_used * (R_used + R_h)),
        "norm_f": lg(beta_used ** -1 * mp.sqrt(n) * mp.exp(R2)),
        "norm_c": lg(R_used + R_h),
        "norm_Q2": lg(R_used * R_h),
        "norm_q2": lg(R_used * R_h * (R_used + R_h)),
        "norm_p": lg(Rf),
        "lip_u": lg(R_used * mp.exp(R2)),
        "lip_alpha": lg(mp.sqrt(n) * R_used * mp.exp(R2)),
        "lip_alpha_inv": lg(beta_used ** -2 * mp.sqrt(n) * R_used * mp.exp(R2)),
        "lip_f": lg(Rf),
        "lip_c": lg(L_h * R_used * Rf),
        "lip_Q2": lg(R_used ** 2 * Rf * L_h),
        "lip_q2": lg(2 * R_used ** 2 * Rf * R_h * L_h * (R_used + R_h)),
        "lip_g": lg(7 * beta_used ** -2 * n * L_h * R_h * Rf * R_used ** 2 * (R_used + R_h) * mp.exp(5 * R2)),
        "lip_p": lg(3 * R_used * Rf * beta_used ** -1 * mp.sqrt(n) * mp.exp(R2)),
        "lip_G1": lg(8 * R_h ** 2 * Rf * R_used ** 5 * L_h * (R_used + R_h) * beta_used ** -4 * n ** 2 * mp.exp(4 * R2)),
        "lip_G2": lg(24 * R_h * Rf * R_used ** 4 * (R_used + R_h) * beta_used ** -4 * n ** 2 * mp.exp(4 * R2)),
        "lip_G3": lg(10 * (R_used + R_h) * R_used ** 4 * Rf * L_h * beta_used ** -3 * n ** mp.mpf("1.5") * mp.exp(3 * R2)),
        "lip_G4": lg(4 * (R_used + R_h) * R_used ** 4 * Rf * L_h * beta_used ** -1 * mp.sqrt(n) * mp.exp(R2)),
        "lip_G5": lg(10 * (R_used + R_h) * R_used ** 4 * Rf * L_h * beta_used ** -3 * n ** mp.mpf("1.5") * mp.exp(3 * R2)),
        "lip_G6": lg(3 * (R_used + R_h) * R_used ** 4 * Rf * L_h * beta_used ** -1 * mp.sqrt(n) * mp.exp(R2)),
    }

    lam_min = min(sym_eigs(e["B"])[0] for e in evals)
    lam_max = max(sym_eigs(e["B"])[-1] for e in evals)
    pcol_max = lambda P: max(vnorm(col(P, j)) for j in range(P.cols))
    empirical = {
        "norm_f": fl(max(vnorm(e["fw"]["f"]) for e in evals)),
        "norm_c": fl(max(vnorm(e["fw"]["c"]) for e in evals)),
        "norm_Q2": fl(max(spec_norm(e["Q2"]) for e in evals)),
        "norm_q2": fl(max(vnorm(e["q2"]) for e in evals)),
        "norm_p": fl(max(pcol_max(e["P"]) for e in evals)),
        "psd_bound": fl(max(abs(lam_min), abs(lam_max))),
    }

    def pairmax(fn):
        best = mp.mpf(0)
        for i in range(len(evals)):
            for j in range(i + 1, len(evals)):
                dx = vnorm(evals[i]["x"] - evals[j]["x"])
                if dx > 0:
                    best = max(best, fn(evals[i], evals[j]) / dx)
        return fl(best)

    empirical["lip_u"] = pairmax(lambda a, b: vnorm(a["fw"]["u"] - b["fw"]["u"]))
    empirical["lip_alpha"] = pairmax(lambda a, b: abs(a["fw"]["alpha"] - b["fw"]["alpha"]))
    empirical["lip_alpha_inv"] = pairmax(lambda a, b: abs(1 / a["fw"]["alpha"] - 1 / b["fw"]["alpha"]))
    empirical["lip_f"] = pairmax(lambda a, b: vnorm(a["fw"]["f"] - b["fw"]["f"]))
    empirical["lip_c"] = pairmax(lambda a, b: vnorm(a["fw"]["c"] - b["fw"]["c"]))
    empirical["lip_Q2"] = pairmax(lambda a, b: spec_norm(a["Q2"] - b["Q2"]))
    empirical["lip_q2"] = pairmax(lambda a, b: vnorm(a["q2"] - b["q2"]))
    empirical["lip_g"] = pairmax(lambda a, b: vnorm(a["g"] - b["g"]))
    empirical["lip_p"] = pairmax(lambda a, b: pcol_max(a["P"] - b["P"]))
    empirical["M"] = pairmax(lambda a, b: spec_norm(a["H_L"] - b["H_L"]))
    for k in ("G1", "G2", "G3", "G4", "G5", "G6"):
        empirical[f"lip_{k}"] = pairmax(lambda a, b, k=k: spec_norm(a["G"][k] - b["G"][k]))

    return {
        "points": pts,
        "R_used": fl(R_used),
        "beta_used": fl(beta_used),
        "lambda_min_B": fl(lam_min),
        "lambda_max_B": fl(lam_max),
        "analytic_log10": analytic_log10,
        "empirical": empirical,
    }


def phase_b() -> dict:
    """Package-derived regression anchors (run after Phase A certifies the code)."""
    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    import softnewt as sn
    from softnewt.sketch import sample_count, sampling_distribution, subsample, verify_sandwich

    inst = sn.ProblemInstance(
        A1=np.array(A1_ROWS), A2=np.array(A2_ROWS), b=np.array(B_VEC),
        w=np.array(W_VEC), activation=sn.Activation("tanh"), R=R_BUDGET, beta=BETA,
    )
    cfg = sn.NewtonConfig(mode="exact", eps=1e-14, stationarity_tol=1e-14,
                          max_iters=100, strict=False)
    ref = sn.solve(inst, np.zeros(2), cfg)
    assert ref.final_grad_norm <= 1e-13, ref.final_grad_norm
    x_ref = ref.final_x
    x0 = x_ref + np.array([0.05, -0.03])
    trace = sn.solve(inst, x0, sn.NewtonConfig(mode="exact", eps=1e-14,
                                               stationarity_tol=1e-14, max_iters=100,
                                               strict=False), x_ref=x_ref)

    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    A = rng.standard_normal((40, 2))
    dw = np.exp(rng.standard_normal(40))
    sk = subsample(dw, sampling_distribution(A, dw), 25, 42)
    eps = verify_sandwich(A, dw, sk)
    w2 = np.array(W_VEC) ** 2
    sk_exact = subsample(w2, sampling_distribution(inst.A1, w2), sample_count(N, D, 0.25, 0.1), 42)

    return {
        "newton_trace": {
            "x_ref": x_ref, "x0": x0,
            "iterates": trace.iterates, "r_t": trace.r_t, "ratios": trace.ratios,
            "status": trace.status,
        },
        "sketch_sampled": {
            "A": A, "dweights": dw, "num_draws": 25, "seed": 42,
            "kept_indices": sk.kept_indices, "dtilde": sk.dtilde, "eps_measured": eps,
        },
        "sketch_exact_fallback": {
            "eps0": 0.25, "delta": 0.1, "seed": 42,
            "kept_indices": sk_exact.kept_indices, "dtilde": sk_exact.dtilde,
            "eps_measured": 0.0, "exact": sk_exact.exact,  # the fallback Dt = D deviates by nothing
        },
    }


def _pyify(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, dict):
        return {k: _pyify(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_pyify(v) for v in o]
    return o


def main():
    os.makedirs(OUT, exist_ok=True)
    doc = phase_a()
    doc.update(phase_b())
    path = os.path.join(OUT, "s1.json")
    with open(path, "w") as fh:
        json.dump(_pyify(doc), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
