import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def test_a_tree_compared_with_itself_shows_no_difference():
    # every benchmark argv under the tree twice, in two children of their own, one per tree
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT)], capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, "")
    count, rest = proc.stderr.split(" argvs, ")
    assert int(count) > 600 and rest == "0 with a different exit code, stdout or stderr\n"


def test_each_differing_argv_is_reported(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    # a parent whose JSON carries another schema version, and whose text is the same
    shutil.copytree(ROOT / "src" / "basechange", tmp_path / "src" / "basechange",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "basechange" / "cli.py"
    cli.write_text(cli.read_text().replace("SCHEMA_VERSION = 1\n", "SCHEMA_VERSION = 2\n"))
    argvs = [["extquot", "--n", "3"], ["extquot", "--n", "3", "--format", "json"], ["extquot", "--n", "0"]]
    monkeypatch.setattr(compare, "benchmark_argvs", lambda: argvs)
    assert compare.main([str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == '["extquot", "--n", "3", "--format", "json"]\n'
    assert err == "3 argvs, 1 with a different exit code, stdout or stderr\n"
