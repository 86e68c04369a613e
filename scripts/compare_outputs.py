#!/usr/bin/env python3
"""Compare the CLI's outcome on every benchmark request under this tree and under PARENT_TREE.

Every distinct argv of bench/workloads.all_requests over the four
workloads runs under both trees, each in a child process of its own with
that tree's src as PYTHONPATH.  A request's outcome is the sha256
of its exit code, stdout and stderr.  Each argv whose outcome differs is
printed as a JSON list, one a line, and the script exits 1 if there is
one; a summary line goes to stderr.

    python3 scripts/compare_outputs.py PARENT_TREE
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

# children running at once; each is a small CLI process
WORKERS = 2


def benchmark_argvs() -> list[list[str]]:
    """Every distinct argv any seed of any workload can draw, in a fixed order."""
    seen = dict.fromkeys(
        tuple(req["argv"]) for workload in workloads.WORKLOADS for req in workloads.all_requests(workload)
    )
    return [list(argv) for argv in seen]


def outcome(tree: Path, argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of the CLI under tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "basechange.cli", *argv], env=env, capture_output=True)
    head = b"%d %d\n" % (proc.returncode, len(proc.stdout))  # where stdout ends and stderr starts
    return hashlib.sha256(head + proc.stdout + proc.stderr).hexdigest()


def differing_argvs(parent: Path, argvs: list[list[str]]) -> list[list[str]]:
    with ThreadPoolExecutor(WORKERS) as pool:
        ours = list(pool.map(lambda argv: outcome(ROOT, argv), argvs))
        theirs = list(pool.map(lambda argv: outcome(parent, argv), argvs))
    return [argv for argv, a, b in zip(argvs, ours, theirs) if a != b]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path, help="a checkout whose src/basechange is compared with this one")
    parent = parser.parse_args(argv).parent_tree.resolve()
    if not (parent / "src" / "basechange").is_dir():
        parser.error(f"{parent} has no src/basechange")
    argvs = benchmark_argvs()
    differ = differing_argvs(parent, argvs)
    for request in differ:
        print(json.dumps(request))
    print(f"{len(argvs)} argvs, {len(differ)} with a different exit code, stdout or stderr", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
