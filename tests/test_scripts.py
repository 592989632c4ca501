import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def test_loc_smoke():
    script = SCRIPTS / "loc.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    package = Path(script).resolve().parent.parent / "src" / "softnewt"
    assert [name for name, _ in rows[:-1]] == sorted(p.name for p in package.glob("*.py"))
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1]) > 0


def test_make_goldens_writes_the_committed_golden(tmp_path):
    # the generator into tmp_path in place of tests/golden; tests/golden/s1.json is never rewritten here
    pytest.importorskip("mpmath")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import make_goldens; "
        "make_goldens.OUT = sys.argv[2]; make_goldens.main()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCRIPTS), str(tmp_path)], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    written = json.loads((tmp_path / "s1.json").read_text())
    golden = json.loads((TESTS / "golden" / "s1.json").read_text())
    # the sampled sketch's weights at test_sampled_golden's tolerance: a few differ in the last bit
    np.testing.assert_allclose(
        written["sketch_sampled"].pop("dtilde"), golden["sketch_sampled"].pop("dtilde"), rtol=1e-14, atol=0
    )
    assert written == golden


def test_scale_sweep_smoke(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    parent = {"rows": [{"layer": "grad", "n": 16, "m": 16, "d": 8, "rel": 1.0}]}
    out.write_text(json.dumps({"runs": {"parent": [parent]}}))
    # the script at one tiny shape in place of SHAPES
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scale_sweep; "
        "scale_sweep.SHAPES = ((16, 16, 8),); "
        "raise SystemExit(scale_sweep.main(['--label', 'change', '--out', sys.argv[2]]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCRIPTS), str(out)], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["runs"]["parent"] == [parent]  # other runs are kept
    [run] = doc["runs"]["change"]
    assert run["env"]["OPENBLAS_NUM_THREADS"] == "1"
    layers = [row["layer"] for row in run["rows"]]
    assert layers == [
        "eval_forward", "grad", "hess_L", "kernel_diag", "kernel+spectral", "hess_L_entries", "leverage_scores",
        "ridge_distribution", "subsample", "verify_sandwich", "cholesky_solve", "exact_step", "sketched_step", "probe_empirical",
        "verify", "solve_exact", "solve_sketched",
    ]
    for row in run["rows"]:
        assert (row["n"], row["m"], row["d"]) == (16, 16, 8)
        assert row["best_s"] > 0 and row["rel"] == row["best_s"] / row["reference_s"] and row["peak_bytes"] >= 0
    assert [(row["layer"], row["runs"], row["rel_median"]) for row in doc["summary"]["parent"]] == [("grad", 1, 1.0)]
    summary = doc["summary"]["change"]
    assert [row["layer"] for row in summary] == layers
    for row, s in zip(run["rows"], summary):
        assert s["runs"] == 1 and s["rel_min"] == s["rel_median"] == s["rel_max"] == row["rel"]


def test_scale_sweep_times_the_named_layers(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    # a dense layer and a cheap one, named out of table order; at the second shape the dense
    # layer is left out, so only the cheap one runs there
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scale_sweep; "
        "scale_sweep.SHAPES = ((16, 16, 8), (24, 16, 2)); scale_sweep.DENSE_MAX_N = 16; "
        "raise SystemExit(scale_sweep.main(['--label', 'change', '--out', sys.argv[2], *sys.argv[3:]]))"
    )
    run = lambda *args: subprocess.run(
        [sys.executable, "-c", code, str(SCRIPTS), str(out), *args], capture_output=True, text=True, timeout=300,
    )
    proc = run("--layers", "probe_empirical,grad")
    assert proc.returncode == 0, proc.stderr
    [run_doc] = json.loads(out.read_text())["runs"]["change"]
    assert [(row["layer"], row["n"]) for row in run_doc["rows"]] == [
        ("grad", 16), ("probe_empirical", 16), ("grad", 24),
    ]
    proc = run("--layers", "grad,nope")
    assert proc.returncode == 2 and "unknown layers ['nope']" in proc.stderr, proc.stderr


def test_scale_sweep_solves_start_inside_the_norm_budget():
    # the solve rows at d = 64 start at a point whose norm is below R, so solve does not warn
    code = (
        "import sys, warnings; sys.path.insert(0, sys.argv[1]); import scale_sweep; "
        "sn = scale_sweep.import_softnewt(); calls = scale_sweep.layers(sn, 128, 16, 64); "
        "warnings.simplefilter('error'); calls['solve_exact'](); calls['solve_sketched']()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCRIPTS)], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
"""


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # a session with this suite's pytest settings and conftest: a failing @given
    # test is reported as FAILED, and the tests after it still run
    (tmp_path / "pyproject.toml").write_text((TESTS.parent / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "tests" / "test_property.py").write_text(FAILING_PROPERTY)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-3000:]
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "FAILED tests/test_property.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
