import hashlib
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "worked_examples.py"

# stdout sha256 of the worked examples, unchanged since the script was written
DIGEST = "35ac4dcbc260526b13127c13afec35e5a81fda36a58fefd6c595fb156ff00553"


def test_worked_examples_output_is_pinned():
    src = str(SCRIPT.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGEST
