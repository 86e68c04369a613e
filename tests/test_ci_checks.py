import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci_checks.py"


def test_ci_checks_pass(tmp_path):
    # the sweeps and the three pins, as the workflow runs them; the pinned
    # files go to a temporary directory, not the working one
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert sum(line.split()[-2:-1] == ["True"] for line in lines) == 12 + 8
    assert [line.split(":")[0] for line in lines if "sha256" in line] == [
        "bc-gl1-m7.json", "cert-2-4-40.json", "cert-3-4.json"
    ]
    assert list(tmp_path.iterdir()) == []


def test_ci_checks_name_each_failure(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("ci_checks", SCRIPT)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    monkeypatch.setattr(checks, "SWEEPS", [(["--max-r", "1", "--max-f", "1"], 2)])
    monkeypatch.setattr(checks, "PINS", [
        ("extquot.json", "00", ["extquot", "--n", "2"]),
        ("refused.json", "00", ["finiteness", "--r", "9", "--f", "2"]),
    ])
    monkeypatch.setattr(checks, "MAX_RSS_MIB", 0)
    assert checks.main() == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == 4
    assert failures[0].startswith("sweep ['--max-r', '1', '--max-f', '1'] exited 0 with 1 rows")
    assert failures[1].startswith("extquot.json changed: sha256 ")
    assert failures[2].startswith("extquot.json peaked at ") and failures[2].endswith("not below 0 MiB")
    assert failures[3] == "refused.json: ['finiteness', '--r', '9', '--f', '2'] exited 2"
