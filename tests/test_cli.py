import argparse
import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import ALL_KINDS
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import softnewt as sn
from softnewt import cli, hessian, model, sketch
from softnewt.cli import main
from softnewt.model import DenominatorFloorWarning
from softnewt.newton import _step_seed
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


def test_gen_rejects_fewer_rows_than_columns_under_the_recipe(tmp_path, capsys):
    # n < d: A1 has only n singular values, and its d-th is 0, so the recipe has no floor
    with pytest.raises(ValueError, match="full column rank"):
        sn.gen_instance(2, 2, 3, "tanh", 1)
    out = tmp_path / "nd.json"
    assert main(["gen", "--n", "2", "--m", "2", "--d", "3", "--seed", "1", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration" and "need n >= d" in err["message"]
    assert not out.exists()
    # given ridge weights skip the recipe
    assert main(["gen", "--n", "2", "--m", "2", "--d", "3", "--seed", "1", "--w", "1,1", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    [],
    ["run"],  # a missing required option
    ["run", "--instance", "inst.json", "--mode", "fast"],
    ["gen", "--n", "abc", "--m", "2", "--d", "2", "--out", "x.json"],
    ["run", "--instance", "inst.json", "--x0", "values", "--x0-values", "-1,2"],
    ["bounds", "--instance", "inst.json", "--bogus"],
])
def test_usage_errors_exit_3_with_one_json_error(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "configuration" and err["message"].startswith("softnewt"), err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: softnewt")


def test_run_report_records_every_solver_option(inst_file, tmp_path):
    out = tmp_path / "damped"
    assert main(["run", "--instance", inst_file, "--damping", "--no-strict", "--eps", "0.5", "--no-reference",
                 "--out-dir", str(out)]) == 0
    config = load_path(out / "report.json")["golden"]["config"]
    assert config == {"mode": "exact", "eps": 0.5, "delta": 0.05, "eps0": 0.01, "max_iters": 200, "seed": 0,
                      "stationarity_tol": 1e-10, "damping": True, "strict": False}


def test_run_bterms_norms_past_the_square_overflow(tmp_path, capsys):
    # noise 1e200 puts kernel entries past 1e154: their Frobenius norms are finite, their squares are not
    inst = tmp_path / "r.json"
    assert main(["gen", "--n", "9", "--m", "3", "--d", "2", "--seed", "353", "--noise", "1e200",
                 "--out", str(inst)]) == 0
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--instance", str(inst), "--no-reference", "--max-iters", "0", "--emit", "bterms_json",
                   "--out-dir", str(out)])
    assert rc == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    norms = load_path(out / "b_terms.json")["frobenius_norms"]
    assert all(math.isfinite(v) for v in norms.values()), norms
    assert max(norms.values()) > 1e154


def _not_json(inst_file, tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text("{not json")
    return ["run", "--instance", str(path)]


def _argv(command, edit=None, *extra):
    """argv for ``command`` on the instance file, or on a copy of it that ``edit`` changes in place."""
    def build(inst_file, tmp_path):
        path = inst_file
        if edit is not None:
            doc = load_path(inst_file)
            edit(doc)
            path = str(tmp_path / "edited.json")
            dump_path(doc, path)
        return [command, "--instance", path, *(inst_file if a == "{inst}" else a for a in extra)]
    return build


# name: (argv from the instance file and a scratch directory, error kind, a fragment of the message)
FAILURE_PATHS = {
    "instance not JSON": (_not_json, "configuration", "bad instance file"),
    "instance without A1": (_argv("run", lambda d: d.pop("A1")), "configuration", "'A1'"),
    "A1 a vector": (_argv("run", lambda d: d.update(A1=[1.0, 2.0])), "configuration", "must be matrices"),
    "b of the wrong length": (_argv("bounds", lambda d: d.update(b=d["b"][:-1])), "configuration",
                              "b must have length 3"),
    "w of the wrong length": (_argv("verify", lambda d: d.update(w=d["w"] + [1.0])), "configuration",
                              "w must have length 5"),
    "R zero": (_argv("run", lambda d: d.update(R=0.0)), "configuration", "R must be positive"),
    "declared n disagrees": (_argv("run", lambda d: d.update(n=6)), "configuration", "declared n=6 disagrees"),
    "x0 values without values": (_argv("run", None, "--x0", "values"), "configuration", "requires --x0-values"),
    "x0 stored without a path": (_argv("run", None, "--x0", "stored"), "configuration", "requires --x0-path"),
    "out-dir an existing file": (_argv("run", None, "--out-dir", "{inst}"), "configuration",
                                 "cannot create output dir"),
    "gen into a missing directory": (
        lambda f, t: ["gen", "--n", "3", "--m", "2", "--d", "2", "--out", str(t / "missing" / "inst.json")],
        "io", "No such file or directory"),
    "negative eps": (_argv("run", None, "--eps", "-1", "--no-strict"), "configuration", "eps must be positive"),
    "nan eps": (_argv("run", None, "--eps", "nan", "--no-strict"), "configuration", "eps must be positive and finite"),
    "infinite eps": (_argv("run", None, "--eps", "inf", "--no-strict"), "configuration",
                     "eps must be positive and finite"),
    "nan stationarity-tol": (_argv("run", None, "--stationarity-tol", "nan", "--no-reference"), "configuration",
                             "stationarity_tol must be nonnegative and finite"),
    "negative stationarity-tol": (_argv("run", None, "--stationarity-tol", "-1", "--no-reference"),
                                  "configuration", "stationarity_tol must be nonnegative and finite"),
    "infinite stationarity-tol": (_argv("run", None, "--stationarity-tol", "inf", "--no-reference"),
                                  "configuration", "stationarity_tol must be nonnegative and finite"),
    "negative max-iters": (_argv("run", None, "--max-iters", "-1"), "configuration", "max_iters nonnegative"),
}


@pytest.mark.parametrize("name", FAILURE_PATHS)
def test_failure_paths_exit_3_with_one_json_error(name, inst_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a run that got past its checks would write here
    build, kind, fragment = FAILURE_PATHS[name]
    argv = build(inst_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == kind and fragment in err["message"], err
    assert not (tmp_path / "report.json").exists()


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
            assert main(["run", "--mode", "newton"]) == 3  # a usage error is a configuration error
            outputs.append(capsys.readouterr())
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outputs[0] == outputs[1] and "invalid choice: 'newton'" in json.loads(outputs[0].err)["message"]


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
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for mode in ("exact", "sketched"):
            assert main(["run", "--instance", str(inst), "--mode", mode, "--eps0", "0.45", "--no-reference",
                         "--out-dir", str(tmp_path / mode)]) == 2
            assert capsys.readouterr().out.startswith("status=error")
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


def test_run_with_an_overflowing_sketch_weight_exits_2(tmp_path, capsys):
    # row 0 has w_0^2 = 1e308 and almost no leverage, so a sketched step that
    # draws it weighs it past float64: status error and exit 2, no numpy warning
    base, _ = sn.gen_instance(1200, 16, 2, "tanh", 1, noise=0.05)
    A1, w = base.A1.copy(), base.w.copy()
    A1[0], w[0] = 1e-200, 1e154
    inst = sn.ProblemInstance(A1=A1, A2=base.A2, b=base.b, w=w, activation=base.activation, R=base.R, beta=base.beta)
    path = tmp_path / "inst.json"
    dump_path(sn.instance_to_json(inst), path)
    rc, out, err, runtime_warnings = _session(
        ["run", "--instance", str(path), "--mode", "sketched", "--eps0", "0.45", "--no-reference",
         "--max-iters", "5", "--seed", "0", "--out-dir", str(tmp_path / "out")], capsys)
    assert (rc, err, runtime_warnings) == (2, "", [])
    assert out.startswith("status=error")
    golden = load_path(tmp_path / "out" / "report.json")["golden"]
    assert golden["error_message"] == "the sketched Hessian has non-finite entries"


def test_verify_reads_a_fallback_sketch_whose_gram_sums_pass_float64(tmp_path, capsys):
    # w_0 = 1e154 puts the Gram's entries near 1e308, so H + H^T overflows while
    # H is finite: the exact-fallback sketch is read, and it meets the sandwich
    inst = tmp_path / "w1e154.json"
    assert main(["gen", "--n", "5", "--m", "3", "--d", "2", "--seed", "7", "--w", "1e154,1,1,1,1",
                 "--out", str(inst)]) == 0
    out = tmp_path / "verify.json"
    assert main(["verify", "--instance", str(inst), "--trials", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    checks = {c["name"]: c for c in load_path(out)["checks"]}
    assert checks["sketch_sandwich_rate"]["passed"] and checks["sketch_sandwich_rate"]["margin"] == 1.0


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


def test_verify_probe_measures_only_the_keys_its_checks_read(monkeypatch):
    def unread(*args):
        raise AssertionError("the probe formed a quantity no verify check reads")

    monkeypatch.setattr(cli.bounds_mod, "grad", unread)
    monkeypatch.setattr(cli.bounds_mod, "g_terms", unread)
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 1, noise=0.05)
    checks = {name: passed for name, passed, _, _ in cli._verify_checks(inst, 0, 4)}
    assert checks["bound_soundness"] and checks["psd_sandwich"]


@pytest.mark.parametrize("command", ["bounds", "run"])
def test_a_reader_that_closes_stdout_early_changes_no_exit_code(command, inst_file, tmp_path):
    argv, written = {
        "bounds": (["bounds", "--instance", inst_file, "--out", str(tmp_path / "bounds.json")], ["bounds.json"]),
        "run": (["run", "--instance", inst_file, "--out-dir", str(tmp_path), "--emit", "report_json,bounds_json"],
                ["report.json", "bounds.json"]),
    }[command]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(sn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line, so every write to stdout fails
    try:
        proc = subprocess.run([sys.executable, "-m", "softnewt.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert all((tmp_path / name).stat().st_size > 0 for name in written)


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
    # one stacked call for the sample points, one per finite-difference check for all the stencils
    # around them (one chunk at n = 64), and the sketch's x = 0
    assert calls["eval_forward"] == 1 + 1 + 1 + 1
    # both sketch checks draw from the instance's one distribution, which the determinism check forms
    assert calls["leverage_scores"] == 1


@pytest.mark.parametrize("n", [64, 300])
def test_verify_takes_one_stacked_call_per_finite_difference_check(monkeypatch, n):
    inst, _ = sn.gen_instance(n, 16, 8, "tanh", 1, noise=0.05)
    oracle_calls, callbacks = [], []  # per func call, the row counts of the forward passes inside it
    inside = [False]
    for name in ("fd_gradient", "fd_hessian"):
        original = getattr(cli, name)

        def counted(func, X, *args, _original=original, _name=name, **kwargs):
            def callback(S):
                callbacks.append([])
                inside[0] = True
                try:
                    return func(S)
                finally:
                    inside[0] = False

            oracle_calls.append((_name, len(X)))
            return _original(callback, X, *args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    eval_forward = cli.eval_forward

    def recording(inst_, X):
        if inside[0]:
            callbacks[-1].append(len(X))
        return eval_forward(inst_, X)

    monkeypatch.setattr(cli, "eval_forward", recording)
    checks = list(cli._verify_checks(inst, 0, 20))
    assert all(passed for _, passed, _, _ in checks)
    # one call per check, each calling func once on every point's stencil: 20 points of 16 rows, then 10
    assert oracle_calls == [("fd_gradient", 20), ("fd_hessian", 10)]
    assert [sum(rows) for rows in callbacks] == [20 * 16, 10 * 16]
    # each forward pass inside them holds at most _CHUNK_BYTES of n-length rows
    per_chunk = model._CHUNK_BYTES // (8 * n)
    assert all(r <= per_chunk for rows in callbacks for r in rows), callbacks
    assert [len(rows) for rows in callbacks] == [math.ceil(20 * 16 / per_chunk), math.ceil(10 * 16 / per_chunk)]


def test_verify_draws_one_fallback_sketch_for_the_sandwich_rate(monkeypatch):
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 1, noise=0.05)
    route = cli.surrogate_sketch
    draws = []
    monkeypatch.setattr(cli, "surrogate_sketch", lambda *args: draws.append(route(*args)) or draws[-1])
    checks = {name: (passed, margin, detail) for name, passed, margin, detail in cli._verify_checks(inst, 0, 3)}
    # the first draw takes the exact fallback, whose verdict is every seed's; the determinism check draws twice
    assert len(draws) == 3 and draws[0].exact and not draws[1].exact
    assert checks["sketch_sandwich_rate"] == (True, 1.0, "fraction of 20 seeds within eps0")
    # where the sample count stays below n, each of the 20 seeds draws its own sketch
    draws.clear()
    monkeypatch.setattr(cli, "sample_count", lambda n, d, eps0, delta, kappa: n - 1)
    checks = {name: (passed, margin, detail) for name, passed, margin, detail in cli._verify_checks(inst, 0, 3)}
    assert len(draws) == 22 and not any(sk.exact for sk in draws)
    assert checks["sketch_sandwich_rate"][2] == "fraction of 20 seeds within eps0"


def test_verify_sketch_checks_draw_by_the_solvers_route(monkeypatch):
    # at n = 3000 the rate's count (1833 at eps0 = 0.3, delta = 0.1) is below n, so all 20 seeds
    # draw; every draw comes from the one distribution under w^2, and none computes a leverage of D'
    inst, _ = sn.gen_instance(3000, 16, 2, "tanh", 2, noise=0.05)
    leverage_weights, draws = [], []
    leverage_scores, route = sketch.leverage_scores, cli.surrogate_sketch
    monkeypatch.setattr(sketch, "leverage_scores", lambda A, dw: leverage_weights.append(dw) or leverage_scores(A, dw))
    monkeypatch.setattr(cli, "surrogate_sketch", lambda *args: draws.append(route(*args)) or draws[-1])
    checks = {name: (passed, margin) for name, passed, margin, _ in cli._sketch_checks(inst, 1)}
    assert checks == {"sketch_sandwich_rate": (True, 1.0), "sketch_determinism": (True, 0.0)}
    assert len(leverage_weights) == 1 and np.array_equal(leverage_weights[0], inst.w * inst.w)
    kdiag = sn.kernel_diag(sn.eval_forward(inst, np.zeros(2)), inst)
    count = functools.partial(sketch.sample_count, inst.n, inst.d, 0.3, 0.1)
    assert len(draws) == 22
    for k, sk in enumerate(draws[:20]):
        ref = sketch.surrogate_sketch(inst, kdiag, count, _step_seed(1, k))
        assert not sk.exact and len(sk.kept_indices) == 1833
        assert np.array_equal(sk.kept_indices, ref.kept_indices) and sk.dtilde.tobytes() == ref.dtilde.tobytes()
    assert all(len(sk.kept_indices) == 1500 for sk in draws[20:])


def _recipe_with_ridge_weight_zero(tmp_path, i):
    """The n = 64 desk instance with w_i = 0; the recipe's other weights stay."""
    inst, _ = sn.gen_instance(64, 16, 8, "tanh", 1, noise=0.05)
    w = inst.w.copy()
    w[i] = 0.0
    path = tmp_path / f"w{i}.json"
    dump_path(sn.instance_to_json(dataclasses.replace(inst, w=w)), path)
    return str(path)


def test_verify_fails_both_sketch_checks_on_a_nonpositive_surrogate(tmp_path, capsys):
    # diag(B)_7 at x = 0 is -9.0e-4, so w_7 = 0 leaves D'_7 < 0: a sketched run ends as an error,
    # and verify lists both sketch checks as failed instead of dropping them
    path = _recipe_with_ridge_weight_zero(tmp_path, 7)
    out = tmp_path / "verify.json"
    assert main(["verify", "--instance", path, "--seed", "1", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in load_path(out)["checks"]}
    assert len(checks) == 9
    for name in ("sketch_sandwich_rate", "sketch_determinism"):
        assert not checks[name]["passed"] and "nonpositive" in checks[name]["detail"]
        assert checks[name]["margin"] == pytest.approx(-9.0e-4, rel=1e-2)
    assert [name for name, c in checks.items() if not c["passed"]] == ["sketch_sandwich_rate", "sketch_determinism"]
    assert "failing invariants: sketch_sandwich_rate, sketch_determinism" in capsys.readouterr().err
    assert main(["run", "--instance", path, "--mode", "sketched", "--eps0", "0.45", "--no-reference",
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "nonpositive" in load_path(tmp_path / "run" / "report.json")["golden"]["error_message"]


def test_positivity_barrier_stops_a_sketched_run_where_exact_converges(tmp_path, capsys):
    # uniform w = 0.02 keeps H_tot positive definite along the exact run, but w^2 = 4e-4 lies
    # below -min diag(B): the sketched run's first surrogate D' = diag(B) + w^2 has an entry <= 0
    inst = tmp_path / "inst.json"
    assert main(["gen", "--n", "64", "--m", "16", "--d", "8", "--noise", "0.05", "--seed", "1",
                 "--w", ",".join(["0.02"] * 64), "--out", str(inst)]) == 0
    run = ["run", "--instance", str(inst), "--no-reference"]
    assert main([*run, "--out-dir", str(tmp_path / "exact")]) == 0
    exact = load_path(tmp_path / "exact" / "report.json")["golden"]
    assert exact["status"] == "converged" and exact["n_iters"] == 3
    assert main([*run, "--mode", "sketched", "--eps0", "0.45", "--out-dir", str(tmp_path / "sketched")]) == 2
    sketched = load_path(tmp_path / "sketched" / "report.json")["golden"]
    assert sketched["status"] == "error" and sketched["n_iters"] == 0
    assert sketched["error_message"] == "diagonal surrogate diag(B) + w^2 has nonpositive entries; raise w"
    assert capsys.readouterr().err == ""


def test_verify_passes_with_a_zero_ridge_weight_over_a_positive_diag(tmp_path, capsys):
    # diag(B)_0 at x = 0 is 2.7e-4 > 0: D' stays positive, kappa is infinite, and both
    # sketch checks take the exact fallback without forming the ridge distribution
    path = _recipe_with_ridge_weight_zero(tmp_path, 0)
    out = tmp_path / "verify.json"
    assert main(["verify", "--instance", path, "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = load_path(out)
    assert doc["all_passed"] and len(doc["checks"]) == 9


@pytest.mark.parametrize("delta", ["0", "-0.5", "nan", "1", "inf"])
def test_run_rejects_a_delta_outside_the_unit_interval(tmp_path, capsys, delta):
    # a non-strict run checks delta as a strict one does: exit 3 with one configuration error, no traceback
    inst = tmp_path / "inst.json"
    assert main(["gen", "--n", "64", "--m", "16", "--d", "8", "--noise", "0.05", "--seed", "1",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    rc = main(["run", "--instance", str(inst), "--mode", "sketched", "--eps0", "0.45", "--no-strict",
               f"--delta={delta}", "--no-reference", "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err) == {"error": "configuration", "message": "delta must lie in (0, 1)"}


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


@pytest.mark.parametrize("probes", ["0", "1"])
def test_bounds_with_fewer_than_two_admissible_points_exits_3(inst_file, tmp_path, capsys, probes):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--instance", inst_file, "--probes", probes, "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err == {"error": "configuration",
                   "message": f"need at least 2 admissible probe points for Lipschitz probes, got {probes}"}
    assert captured.out == "" and not out.exists()


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


@pytest.mark.parametrize("reference", [[], ["--no-reference"]])
def test_run_stored_stack_exits_3_without_traceback(tmp_path, capsys, reference):
    # a (2, d) stack is a valid eval_forward input but not a start point
    inst_path = tmp_path / "v.json"
    assert main(["gen", "--n", "8", "--m", "4", "--d", "3", "--seed", "7", "--out", str(inst_path)]) == 0
    stack = tmp_path / "stack.json"
    stack.write_text("[[0.01, 0.02, 0.03], [0.1, 0.1, 0.1]]")
    capsys.readouterr()
    rc = main(["run", "--instance", str(inst_path), "--x0", "stored", "--x0-path", str(stack),
               "--out-dir", str(tmp_path), *reference])
    assert rc == 3
    # stderr holds one JSON error and nothing else
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration" and "needs 3 components" in err["message"], err
    assert not (tmp_path / "report.json").exists()


def test_run_starts_at_a_stored_x0(inst_file, tmp_path):
    start = tmp_path / "start.json"
    dump_path({"x0": [0.05, -0.02]}, start)
    rc = main(["run", "--instance", inst_file, "--x0", "stored", "--x0-path", str(start), "--no-reference",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    golden = load_path(tmp_path / "report.json")["golden"]
    assert golden["x0"] == golden["iterates"][0] == [0.05, -0.02]


def test_run_stored_file_without_a_start_exits_3(inst_file, tmp_path, capsys):
    start = tmp_path / "start.json"
    dump_path({"start": [0.05, -0.02]}, start)
    rc = main(["run", "--instance", inst_file, "--x0", "stored", "--x0-path", str(start), "--no-reference",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration" and "holds neither 'x0' nor a run report" in err["message"]


# name: (which file, its content; a dict for an instance updates the instance file's document)
MALFORMED_FILES = {
    "instance a list": ("instance", []),
    "w a mapping": ("instance", {"w": {"a": 1}}),
    "beta null": ("instance", {"beta": None}),
    "activation a list": ("instance", {"activation": ["tanh"]}),
    "x0 a mapping": ("x0", {"x0": {"a": 1}}),
    "report without iterates": ("x0", {"golden": {"iterates": []}}),
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_files_exit_3_naming_the_file(name, inst_file, tmp_path, capsys):
    # valid JSON of the wrong structure: one configuration error that names the file, no traceback
    which, content = MALFORMED_FILES[name]
    if which == "instance" and isinstance(content, dict):
        content = {**load_path(inst_file), **content}
    path = str(tmp_path / "malformed.json")
    dump_path(content, path)
    start = ["--instance", path] if which == "instance" else ["--instance", inst_file, "--x0", "stored", "--x0-path", path]
    capsys.readouterr()
    assert main(["run", *start, "--out-dir", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "configuration" and path in err["message"], err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_sketched_run_rejects_its_seed_before_the_reference_solve(inst_file, tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setattr(cli, "_reference_optimum", lambda inst: pytest.fail("the reference solve ran"))
    capsys.readouterr()
    assert main(["run", "--instance", inst_file, "--mode", "sketched", "--eps0", "0.45", "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "configuration", "message": f"seed must lie in [0, 2**64), got {seed}"}


def _options(command: str) -> set[str]:
    """The dest of every option of ``command``'s parser."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions}


def test_run_and_gen_options_are_the_fields_they_set():
    # run passes NewtonConfig each option given (strict is --no-strict), gen passes gen_instance its parameters
    assert {f.name for f in dataclasses.fields(sn.NewtonConfig)} - {"strict"} <= _options("run")
    assert set(inspect.signature(sn.gen_instance).parameters) <= _options("gen")


def test_verify_failing_invariant_exits_1(inst_file, tmp_path, capsys, monkeypatch):
    fd_gradient = cli.fd_gradient
    monkeypatch.setattr(cli, "fd_gradient", lambda *args, **kwargs: fd_gradient(*args, **kwargs) + 1.0)
    out = tmp_path / "margins.json"
    rc = main(["verify", "--instance", inst_file, "--trials", "4", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] gradient_vs_finite_difference:"), captured.out
    assert captured.err == "failing invariants: gradient_vs_finite_difference\n"
    doc = load_path(out)
    assert doc["all_passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["gradient_vs_finite_difference"]


# exit codes the README documents for each command
DOCUMENTED_EXITS = {"gen": {0, 3}, "run": {0, 2, 3}, "verify": {0, 1, 2, 3}, "bounds": {0, 2, 3}}


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


# the range of a Philox key, [0, 2**64), and one seed past each end
SEEDS = st.integers(-1, 2**64)


@st.composite
def cli_sessions(draw):
    """A ``gen`` command line, then one of ``run``, ``verify --trials 3`` or ``bounds --probes 5`` on its output."""
    n, m, d = draw(st.integers(1, 16)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gen = ["gen", "--n", str(n), "--m", str(m), "--d", str(d), "--activation", draw(st.sampled_from(ALL_KINDS)),
           "--seed", str(draw(SEEDS))]
    options = {
        "--w": st.lists(st.sampled_from([0.0, 1e-3, 1.0, 5.0, 1e100, 1e154, 1.3e154, 1e160]), min_size=n,
                        max_size=n).map(_csv),
        "--noise": st.sampled_from(["0.1", "1e50", "1e200"]),
        "--r-target": st.sampled_from(["1e-8", "0.5", "1e3"]),
        "--beta": st.sampled_from(["1e-300", "1e-3", "0.1"]),
        "--l-target": st.sampled_from(["1e-3", "1", "1e300"]),
    }
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        gen += [f"{name}={draw(options[name])}"]
    command = draw(st.sampled_from(["run", "verify", "bounds"]))
    seed = ["--seed", str(draw(SEEDS))]
    if command == "verify":
        return gen, ["verify", "--trials", "3", *seed]
    if command == "bounds":
        return gen, ["bounds", "--probes", "5", *seed]
    run = ["run", "--mode", draw(st.sampled_from(["exact", "sketched"])), "--eps0", "0.45",
           "--max-iters", draw(st.sampled_from(["0", "5", "50"])), *seed,
           "--emit", ",".join(draw(st.lists(st.sampled_from(cli.EMIT_NAMES), min_size=1, unique=True)))]
    x0 = draw(st.sampled_from(["zero", "gaussian", "values"]))
    run += ["--x0", x0]
    if x0 == "gaussian":
        run += ["--x0-scale", draw(st.sampled_from(["0.1", "1", "1e3", "1e200"]))]
    elif x0 == "values":
        entries = st.sampled_from([0.0, 0.3, -1.0, 1e3, -1e154, 1e200, 1e308, -1e308])
        run += [f"--x0-values={_csv(draw(st.lists(entries, min_size=d, max_size=d)))}"]
    if draw(st.booleans()):
        run += ["--damping", "--no-strict"]
    if draw(st.booleans()):
        run += ["--no-reference"]
    return gen, run


EDGE_GEN = ["gen", "--n", "5", "--m", "3", "--d", "2", "--seed", "7"]


def _session(argv, capsys):
    """(exit code, stdout, stderr, RuntimeWarning messages) of one ``main`` call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def _assert_contract(command, rc, out, err, runtime_warnings):
    assert rc in DOCUMENTED_EXITS[command], (rc, out, err)
    assert runtime_warnings == []
    if rc == 0:
        return
    if command == "run" and rc == 2 and err == "":
        assert out.startswith("status="), out  # a run that ended without converging writes its report
    elif command == "verify" and rc == 1:
        assert err.startswith("failing invariants: ") and "[FAIL]" in out, (out, err)
    else:
        doc = json.loads(err)  # one JSON error, nothing else
        assert set(doc) == {"error", "message"} and doc["error"] in {"configuration", "io", "runtime"}, doc


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(session=cli_sessions())
# ridge weights whose squares are finite but whose Grams overflow when symmetrized
@example(session=(EDGE_GEN + ["--w=1.3e154,1,1,1,1"], ["run", "--mode", "sketched", "--eps0", "0.45", "--no-reference"]))
@example(session=(EDGE_GEN + ["--w=1.3e154,1,1,1,1"], ["run", "--no-reference"]))
@example(session=(EDGE_GEN + ["--w=1.3e154,1,1,1,1"], ["verify", "--trials", "3"]))
@example(session=(EDGE_GEN + ["--w=1e154,1,1,1,1"], ["verify", "--trials", "3"]))
# a finite-difference Hessian whose quotient passes float64
@example(session=(["gen", "--n", "1", "--m", "1", "--d", "1", "--activation", "identity", "--seed", "0", "--w=1e154"],
                  ["verify", "--trials", "3", "--seed", "1"]))
# seeds outside [0, 2**64), and the largest seed verify takes
@example(session=(EDGE_GEN[:-1] + ["-1"], ["bounds", "--probes", "5"]))
@example(session=(EDGE_GEN[:-1] + [str(2**64)], ["bounds", "--probes", "5"]))
@example(session=(EDGE_GEN, ["run", "--x0", "gaussian", "--seed", "-1"]))
@example(session=(EDGE_GEN, ["run", "--x0", "gaussian", "--seed", str(2**64), "--no-reference"]))
@example(session=(EDGE_GEN, ["verify", "--trials", "3", "--seed", "-1"]))
@example(session=(EDGE_GEN, ["bounds", "--probes", "5", "--seed", str(2**64)]))
@example(session=(EDGE_GEN, ["verify", "--trials", "3", "--seed", str(2**64 - 1)]))
def test_cli_sessions_end_as_documented(session, capsys):
    gen, follow = session
    with tempfile.TemporaryDirectory() as td:
        inst = os.path.join(td, "inst.json")
        capsys.readouterr()
        outcome = _session([*gen, "--out", inst], capsys)
        _assert_contract("gen", *outcome)
        if outcome[0] != 0:
            return
        outdir = ["--out-dir", os.path.join(td, "out")] if follow[0] == "run" else []
        _assert_contract(follow[0], *_session([*follow, "--instance", inst, *outdir], capsys))
