import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import softnewt as sn
from softnewt import cli, hessian, sketch
from softnewt.cli import main
from softnewt.model import DenominatorFloorWarning
from softnewt.serialize import dump_path, dumps, load_path

INSTANCE_KEYS = {"schema_version", "n", "m", "d", "A1", "A2", "b", "w", "activation", "R", "beta"}


@pytest.fixture(scope="module")
def inst_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inst.json"
    rc = main(["gen", "--n", "5", "--m", "3", "--d", "2", "--activation", "tanh",
               "--seed", "7", "--noise", "0.02", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_gen_schema_and_planting(inst_file, tmp_path):
    doc = load_path(inst_file)
    assert INSTANCE_KEYS <= set(doc)
    assert doc["schema_version"] == 1
    inst = sn.instance_from_json(doc)
    assert (inst.n, inst.m, inst.d) == (5, 3, 2)
    st = sn.eval_forward(inst, np.zeros(2))
    assert abs(np.sum(st.f) - 1.0) <= 1e-12

    # noise = 0 plants a zero residual at x_plant
    clean = tmp_path / "clean.json"
    assert main(["gen", "--n", "4", "--m", "2", "--d", "2", "--activation", "sigmoid",
                 "--seed", "3", "--out", str(clean)]) == 0
    cdoc = load_path(clean)
    cinst = sn.instance_from_json(cdoc)
    st_plant = sn.eval_forward(cinst, np.array(cdoc["x_plant"]))
    assert st_plant.loss_L <= 1e-28


def test_gen_seed_class_instance(tmp_path):
    out = tmp_path / "s1class.json"
    assert main(["gen", "--n", "3", "--m", "2", "--d", "2", "--activation", "tanh",
                 "--seed", "7", "--out", str(out)]) == 0
    doc = load_path(out)
    assert INSTANCE_KEYS <= set(doc)
    inst = sn.instance_from_json(doc)
    st = sn.eval_forward(inst, np.zeros(2))
    assert abs(np.sum(st.f) - 1.0) <= 1e-12 and np.isfinite(st.loss_tot)


def test_gen_single_coordinate():
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        out = os.path.join(td, "one.json")
        assert main(["gen", "--n", "1", "--m", "1", "--d", "1", "--activation", "identity",
                     "--seed", "0", "--out", out]) == 0
        inst = sn.instance_from_json(load_path(out))
        np.testing.assert_allclose(sn.eval_forward(inst, np.array([0.3])).f, [1.0])


def test_run_exact_and_stored_optimum(inst_file, tmp_path):
    out1 = tmp_path / "run1"
    rc = main(["run", "--instance", inst_file, "--mode", "exact", "--x0", "gaussian",
               "--x0-scale", "0.05", "--eps", "1e-9", "--seed", "5",
               "--out-dir", str(out1), "--emit", "report_json,trace_csv"])
    assert rc == 0
    doc = load_path(out1 / "report.json")
    assert doc["golden"]["status"] == "converged"
    assert doc["golden"]["r_t"][-1] <= 1e-9
    assert "wall_times_ms" not in doc["golden"]
    assert "wall_times_ms" in doc["timing"]

    with open(out1 / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "r_t", "ratio", "grad_norm", "eps_sketch", "millis"]
    assert len(rows) == len(doc["golden"]["grad_norms"]) + 1
    assert rows[1][2] == ""  # no ratio at t=0
    assert rows[1][4] == ""  # exact mode has no sketch eps

    # restarting from the stored final iterate converges in zero iterations
    out2 = tmp_path / "run2"
    rc = main(["run", "--instance", inst_file, "--mode", "exact", "--x0", "stored",
               "--x0-path", str(out1 / "report.json"), "--eps", "1e-9",
               "--out-dir", str(out2)])
    assert rc == 0
    doc2 = load_path(out2 / "report.json")
    assert doc2["golden"]["n_iters"] == 0


def test_run_max_iters_zero_exit_2(inst_file, tmp_path):
    rc = main(["run", "--instance", inst_file, "--x0", "gaussian", "--max-iters", "0",
               "--eps", "1e-9", "--out-dir", str(tmp_path / "r")])
    assert rc == 2
    doc = load_path(tmp_path / "r" / "report.json")
    assert doc["golden"]["status"] == "max_iters"


def test_run_sketched_emits_bounds(inst_file, tmp_path):
    out = tmp_path / "sk"
    rc = main(["run", "--instance", inst_file, "--mode", "sketched", "--x0", "gaussian",
               "--x0-scale", "0.02", "--eps", "1e-8", "--seed", "11",
               "--out-dir", str(out), "--emit", "report_json,bounds_json,grad_json,bterms_json"])
    assert rc == 0
    doc = load_path(out / "report.json")
    assert doc["golden"]["status"] == "converged"
    assert all(e is not None for e in doc["golden"]["sketch_eps_per_iter"])
    cert = doc["golden"]["basin_certificate"]
    assert cert["analytic"] is False  # the analytic constant is astronomically large
    assert cert["empirical"] is True
    bdoc = load_path(out / "bounds.json")
    assert bdoc["schema_version"] == 1 and "tightness" in bdoc

    gdoc = load_path(out / "gradient.json")
    assert {"P", "Q2", "q2", "grad_L", "grad_reg", "grad_tot"} <= set(gdoc)
    np.testing.assert_allclose(
        np.asarray(gdoc["grad_tot"]),
        np.asarray(gdoc["grad_L"]) + np.asarray(gdoc["grad_reg"]),
        atol=1e-18,
    )
    tdoc = load_path(out / "b_terms.json")
    assert set(tdoc["frobenius_norms"]) == {f"B{i}" for i in range(1, 13)}
    assert all(v >= 0.0 for v in tdoc["frobenius_norms"].values())


def test_run_determinism_byte_identical(inst_file, tmp_path):
    blobs = set()
    for rep in range(3):
        out = tmp_path / f"det{rep}"
        rc = main(["run", "--instance", inst_file, "--mode", "sketched", "--x0", "gaussian",
                   "--seed", "21", "--eps", "1e-8", "--out-dir", str(out)])
        assert rc == 0
        blobs.add(dumps(load_path(out / "report.json")["golden"]))
    assert len(blobs) == 1


def test_run_missing_instance_exit_3(tmp_path, capsys):
    rc = main(["run", "--instance", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "configuration"


def test_run_unknown_emit_exit_3(inst_file, tmp_path, capsys):
    out = tmp_path / "emit"
    rc = main(["run", "--instance", inst_file, "--out-dir", str(out), "--emit", "report_json,bogus"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration" and "bogus" in err["message"]
    assert not out.exists()


def test_main_builds_the_parser_once(inst_file, monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outputs = []
        for _ in range(2):
            assert main(["bounds", "--instance", inst_file, "--probes", "3"]) == 0
            with pytest.raises(SystemExit) as exc:
                main(["run", "--mode", "newton"])  # argparse's own usage error
            assert exc.value.code == 2
            outputs.append(capsys.readouterr())
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outputs[0] == outputs[1] and "invalid choice: 'newton'" in outputs[0].err


def test_bounds_with_overflowing_constants(tmp_path, capsys):
    # ||b|| ~ 1e200 sets the radius, so exp(R^2) and every log built on it overflow:
    # the table prints inf, bounds.json writes mantissa inf, and the norms of b and c stay finite
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--n", "5", "--m", "4", "--d", "2", "--activation", "identity", "--seed", "12",
                 "--w", "1e100,1,1e100,0.001,1", "--noise", "1e200", "--out", inst]) == 0
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--probes", "5", "--seed", "12", "--instance", inst, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert any(line.split()[:2] == ["M", "inf"] for line in captured.out.splitlines())
    doc = load_path(out)
    assert doc["analytic"]["M"] == {"exp10": 0, "log10": math.inf, "mantissa": math.inf, "value": None}
    assert doc["analytic"]["norm_c"]["exp10"] == 200 and 1e200 < doc["R_used"] < math.inf
    assert 1e200 < doc["empirical"]["norm_c"] < math.inf


def test_run_overflow_exit_2_with_report(inst_file, tmp_path, capsys):
    # at -1e308 the norm of x0 overflows too, with no RuntimeWarning
    for x0, emit in (("2000,2000", "report_json"), ("-1e308,-1e308", "report_json"),
                     ("2000,2000", "report_json,bounds_json,grad_json")):
        out = tmp_path / emit.replace(",", "_")
        with pytest.warns(UserWarning, match="norm budget"):
            rc = main(["run", "--instance", inst_file, "--x0", "values", f"--x0-values={x0}",
                       "--out-dir", str(out), "--emit", emit])
        assert rc == 2
        golden = load_path(out / "report.json")["golden"]
        assert golden["status"] == "error" and "overflows" in golden["error_message"]
        assert golden["grad_norms"] == []
    # the gradient at the overflowing final point cannot be written: the run reports its status
    assert capsys.readouterr().err == ""
    assert not (out / "gradient.json").exists()


def test_run_overflowed_last_iterate_skips_gradient_files(inst_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="norm budget"):
        rc = main(["run", "--instance", inst_file, "--x0", "values", "--x0-values", "2000,2000",
                   "--out-dir", str(out), "--emit", "report_json,grad_json,bterms_json"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("status=error iters=0 grad=nan")
    assert captured.err == ""
    assert (out / "report.json").exists()
    assert not (out / "gradient.json").exists() and not (out / "b_terms.json").exists()


def test_run_non_finite_hessian(tmp_path, capsys):
    # w^2 overflows float64: the run ends as an error report (exit 2); with the
    # reference solve the same failure is a configuration error (exit 3)
    inst = tmp_path / "huge_w.json"
    assert main(["gen", "--n", "5", "--m", "3", "--d", "2", "--seed", "7",
                 "--w", ",".join(["1e160"] * 5), "--out", str(inst)]) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["run", "--instance", str(inst), "--no-reference", "--out-dir", str(tmp_path / "a")])
        assert rc == 2
        golden = load_path(tmp_path / "a" / "report.json")["golden"]
        assert golden["status"] == "error" and "Hessian has non-finite entries" in golden["error_message"]
        capsys.readouterr()
        assert main(["run", "--instance", str(inst), "--out-dir", str(tmp_path / "b")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration" and "reference solve" in err["message"]
    assert "status error: the Hessian has non-finite entries" in err["message"]
    assert not (tmp_path / "b" / "report.json").exists()


def test_run_non_finite_gradient(tmp_path, capsys):
    # A1 x = [-1e308, -inf]: the forward pass is finite but the ridge gradient
    # is not; the run ends as an error report with no numpy RuntimeWarning
    inst = sn.ProblemInstance(
        A1=np.array([[-1.0], [-2.0]]), A2=np.array([[0.5, -0.5]]), b=np.array([0.1]), w=np.array([1.0, 1.0]),
        activation=sn.Activation("tanh"), R=3.0,
    )
    with pytest.warns(DenominatorFloorWarning):
        st = sn.eval_forward(inst, np.array([1e308]))
    assert st.a1x.tolist() == [-1e308, -np.inf] and st.loss_tot == np.inf
    path = tmp_path / "inst.json"
    dump_path(sn.instance_to_json(inst), path)
    with pytest.warns(UserWarning, match="norm budget"), pytest.warns(DenominatorFloorWarning):
        rc = main(["run", "--instance", str(path), "--x0", "values", "--x0-values", "1e308", "--no-reference",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    golden = load_path(tmp_path / "out" / "report.json")["golden"]
    assert golden["status"] == "error" and golden["error_message"] == "the gradient has non-finite entries"
    assert capsys.readouterr().err == ""


def test_run_overflowing_ridge_reports_without_warnings(tmp_path, capsys):
    # the same overflowing w^2, outside any errstate: the failure is reported
    # once, as the report or the JSON error, with no numpy RuntimeWarning
    inst = tmp_path / "huge_w.json"
    assert main(["gen", "--n", "5", "--m", "3", "--d", "2", "--seed", "7",
                 "--w", ",".join(["1e160"] * 5), "--out", str(inst)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--instance", str(inst), "--no-reference", "--out-dir", str(tmp_path / "a")]) == 2
        capsys.readouterr()
        assert main(["run", "--instance", str(inst), "--out-dir", str(tmp_path / "b")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "configuration"
        # the finite-difference gradient probes an infinite loss
        assert main(["verify", "--instance", str(inst), "--trials", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "runtime"
        assert "non-finite probe" in err["message"]
        assert main(["bounds", "--instance", str(inst), "--probes", "4"]) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_verify_measures_errors_past_the_square_overflow(tmp_path, capsys):
    # a ridge weight of 1e100 puts entries of grad_tot and H_tot past 1e154, whose
    # squares overflow: the finite-difference errors are measured on rescaled norms
    inst = tmp_path / "big_w.json"
    assert main(["gen", "--n", "3", "--m", "2", "--d", "1", "--seed", "12", "--w", "0,1e100,0.001",
                 "--out", str(inst)]) == 0
    out = tmp_path / "verify.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--instance", str(inst), "--out", str(out)]) == 0
    capsys.readouterr()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    checks = {c["name"]: c for c in load_path(out)["checks"]}
    for name in ("gradient_vs_finite_difference", "hessian_vs_finite_difference"):
        assert checks[name]["passed"] and checks[name]["margin"] <= 1e-10, checks[name]


def test_run_with_one_admissible_iterate_skips_bounds(tmp_path):
    # alpha(x) = exp(-50 x): the start x = 1 is below beta, the converged x = 0 is not,
    # so no pair of admissible points is left for the Lipschitz probes
    inst = sn.ProblemInstance(
        A1=np.array([[-50.0]]), A2=np.array([[1.0]]), b=np.array([0.3]), w=np.array([0.01]),
        activation=sn.Activation("tanh"), R=60.0,
    )
    path = tmp_path / "inst.json"
    dump_path(sn.instance_to_json(inst), path)
    out = tmp_path / "out"
    with pytest.warns(DenominatorFloorWarning):
        rc = main(["run", "--instance", str(path), "--x0", "values", "--x0-values", "1", "--no-reference",
                   "--out-dir", str(out), "--emit", "report_json,bounds_json"])
    assert rc == 0
    assert load_path(out / "report.json")["golden"]["status"] == "converged"
    assert not (out / "bounds.json").exists()


def test_run_l_estimate_sets_the_basin_floor(inst_file, tmp_path):
    certs = {}
    for floor in (None, "1e300", "1e-300", "0"):
        out = tmp_path / str(floor)
        argv = ["run", "--instance", inst_file, "--out-dir", str(out), "--emit", "report_json,bounds_json"]
        if floor is not None:
            argv += ["--l-estimate", floor]
        assert main(argv) == 0
        certs[floor] = load_path(out / "report.json")["golden"]["basin_certificate"]
    assert certs == {
        None: {"analytic": False, "empirical": True},
        "1e300": {"analytic": True, "empirical": True},
        "1e-300": {"analytic": False, "empirical": False},
        "0": {"analytic": False, "empirical": False},
    }


def test_verify_passes(inst_file, tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--instance", inst_file, "--seed", "1", "--trials", "8",
               "--out", str(out)])
    assert rc == 0
    doc = load_path(out)
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"softmax_normalization", "gradient_vs_finite_difference",
            "hessian_vs_finite_difference", "bound_soundness",
            "sketch_sandwich_rate"} <= names
    assert "[pass]" in capsys.readouterr().out


def test_verify_evaluates_each_point_once(monkeypatch):
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 1, noise=0.05)
    calls = {"eval_forward": 0, "eval_p": 0, "leverage_scores": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "eval_forward")
    counted(hessian, "eval_p")
    counted(sketch, "leverage_scores")
    trials = 12
    checks = list(cli._verify_checks(inst, 0, trials))
    assert all(passed for _, passed, _, _ in checks)
    # one literal oracle per route-check point
    assert calls["eval_p"] == 5
    # one stacked call for the sample points, one per FD stencil around them, and the sketch's x = 0
    assert calls["eval_forward"] == 1 + trials + min(trials, 10) + 1
    # the determinism check's two draws go through the leverage sampler
    assert calls["leverage_scores"] >= 2


def test_verify_memory_holds_one_kernel_at_a_time():
    # the route check compares each point's dense n x n kernel with its twelve b_terms and
    # their sum; a stack of its five kernels would hold five more n x n arrays at once
    n = 300
    inst, _ = sn.gen_instance(n, 16, 8, "tanh", 1, noise=0.05)
    tracemalloc.start()
    try:
        checks = list(cli._verify_checks(inst, 1, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(passed for _, passed, _, _ in checks)
    assert peak < 20 * 8 * n * n, f"peak {peak / (8 * n * n):.1f} n x n arrays"


def test_bounds_table(inst_file, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--instance", inst_file, "--probes", "10", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    txt = capsys.readouterr().out
    assert "tightness" in txt and "psd_bound" in txt
    doc = load_path(out)
    assert doc["n_admissible"] == 10
    assert all(doc["tightness"][k] <= 1.0 for k in doc["tightness"] if k.startswith("norm_"))


def test_verify_on_seed_instance(s1_instance, tmp_path):
    path = tmp_path / "s1.json"
    from softnewt.serialize import dump_path

    dump_path(sn.instance_to_json(s1_instance), path)
    out = tmp_path / "margins.json"
    rc = main(["verify", "--instance", str(path), "--seed", "0", "--trials", "20",
               "--out", str(out)])
    assert rc == 0
    doc = load_path(out)
    assert doc["all_passed"] is True
    # margins are deterministic for a fixed seed
    out2 = tmp_path / "margins2.json"
    assert main(["verify", "--instance", str(path), "--seed", "0", "--trials", "20",
                 "--out", str(out2)]) == 0
    assert dumps(load_path(out)) == dumps(load_path(out2))


def test_run_missing_x0_path_exit_3(inst_file, tmp_path):
    rc = main(["run", "--instance", inst_file, "--x0", "stored",
               "--x0-path", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)])
    assert rc == 3


def test_artifact_float_round_trip(inst_file):
    doc = load_path(inst_file)
    txt1 = dumps(doc)
    txt2 = dumps(json.loads(txt1))
    assert txt1 == txt2
    back = sn.instance_to_json(sn.instance_from_json(doc))
    assert np.array_equal(np.asarray(back["A1"]), np.asarray(doc["A1"]))
