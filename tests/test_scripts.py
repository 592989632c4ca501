import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"


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
