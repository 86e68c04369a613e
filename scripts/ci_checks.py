#!/usr/bin/env python3
"""Check the finiteness sweeps and the pinned CLI outputs; exit 1 naming each failure.

Two table-driven checks, run from any directory:

- each finiteness sweep (scripts/finiteness_sweep.py at the default
  windows, and at r <= 2 with window 24) must exit 0 and print the
  expected number of rows, each with rank ``ok`` and verified ``True``;
- each pinned CLI request (bc-gl1 at q=3 M=7, finiteness r=2 f=4 window
  40 and r=3 f=4) runs in a child of its own, writes its JSON into a
  temporary directory, and must keep its sha256 prefix and a peak RSS
  below 40 MiB.

    python3 scripts/ci_checks.py

Both print what they ran, and the failures go to stderr, one per line.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# sweep flags, expected row count
SWEEPS = [([], 12), (["--max-r", "2", "--window", "24"], 8)]

EXT = '{"q": 3, "p": 3, "e": 1, "f": 2, "galois": true, "cyclic": true, "filtration_orders": []}'
# output file, sha256 prefix, argv; 1,458 circles, 3,321 and 1,771 targets
PINS = [
    ("bc-gl1-m7.json", "c4dd9c4c6fc92a14", ["bc-gl1", "--extension", EXT, "--max-conductor", "7"]),
    ("cert-2-4-40.json", "f711c650dc704687", ["finiteness", "--r", "2", "--f", "4", "--window", "40", "--verify"]),
    ("cert-3-4.json", "fbf7afcbf008653b", ["finiteness", "--r", "3", "--f", "4", "--verify"]),
]
MAX_RSS_MIB = 40


def sweep_failures() -> list[str]:
    failures = []
    for flags, expected in SWEEPS:
        argv = [sys.executable, str(ROOT / "scripts" / "finiteness_sweep.py"), *flags]
        proc = subprocess.run(argv, env=ENV, capture_output=True, text=True)
        header, *rows = proc.stdout.splitlines() or [""]
        print(header, *rows, sep="\n")
        names = header.split()
        cells = [dict(zip(names, row.split())) for row in rows]
        bad = [row for row, cell in zip(rows, cells) if (cell.get("rank"), cell.get("verified")) != ("ok", "True")]
        if proc.returncode or len(rows) != expected or bad:
            failures.append(f"sweep {flags} exited {proc.returncode} with {len(rows)} rows,"
                            f" not rank ok and verified True: {bad} {proc.stderr}")
    return failures


def pin_failures(directory: str) -> list[str]:
    failures = []
    for name, prefix, request in PINS:
        path = os.path.join(directory, name)
        argv = [sys.executable, "-m", "basechange.cli", *request, "--format", "json", "--output", path]
        pid = os.spawnve(os.P_NOWAIT, sys.executable, argv, ENV)
        _, status, usage = os.wait4(pid, 0)  # the rusage of this child alone
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            failures.append(f"{name}: {request} exited {code}")
            continue
        with open(path, "rb") as out:
            digest = hashlib.sha256(out.read()).hexdigest()
        peak_mib = usage.ru_maxrss / 1024
        print(f"{name}: sha256 {digest}, peak RSS {peak_mib:.1f} MiB")
        if not digest.startswith(prefix):
            failures.append(f"{name} changed: sha256 {digest}, pinned {prefix}")
        if peak_mib >= MAX_RSS_MIB:
            failures.append(f"{name} peaked at {peak_mib:.1f} MiB RSS, not below {MAX_RSS_MIB} MiB")
    return failures


def main() -> int:
    failures = sweep_failures()
    with tempfile.TemporaryDirectory() as directory:
        failures += pin_failures(directory)
    if failures:
        print(*failures, sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
