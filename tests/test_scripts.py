import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"
TESTS = Path(__file__).resolve().parent


def test_run_experiment_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--n", "8", "--m", "4", "--d", "3", "--seed", "7", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("bound tightness")[1]
    assert any(line.split()[:1] == ["M"] for line in table.splitlines())
    for name in ("instance.json", "report_exact.json", "report_sketched.json", "bounds.json"):
        assert (tmp_path / name).is_file(), name


def test_loc_smoke():
    script = SCRIPT.parent / "loc.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    package = Path(script).resolve().parent.parent / "src" / "softnewt"
    assert [name for name, _ in rows[:-1]] == sorted(p.name for p in package.glob("*.py"))
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1]) > 0


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
        [sys.executable, "-c", code, str(SCRIPT.parent), str(out)], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["runs"]["parent"] == [parent]  # other runs are kept
    [run] = doc["runs"]["change"]
    assert run["env"]["OPENBLAS_NUM_THREADS"] == "1"
    layers = [row["layer"] for row in run["rows"]]
    assert layers == [
        "eval_forward", "grad", "hess_L", "kernel_diag", "kernel+spectral", "hess_L_entries", "leverage_scores",
        "subsample", "verify_sandwich", "cholesky_solve", "probe_empirical", "solve_exact", "solve_sketched",
    ]
    for row in run["rows"]:
        assert (row["n"], row["m"], row["d"]) == (16, 16, 8)
        assert row["best_s"] > 0 and row["rel"] == row["best_s"] / row["reference_s"] and row["peak_bytes"] >= 0
    assert [(row["layer"], row["runs"], row["rel_median"]) for row in doc["summary"]["parent"]] == [("grad", 1, 1.0)]
    summary = doc["summary"]["change"]
    assert [row["layer"] for row in summary] == layers
    for row, s in zip(run["rows"], summary):
        assert s["runs"] == 1 and s["rel_min"] == s["rel_median"] == s["rel_max"] == row["rel"]


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
