#!/usr/bin/env python3
"""Compare the CLI's outcome on every benchmark request under this tree and under PARENT_TREE.

Every distinct argv of bench/workloads.all_requests over the four
workloads runs under both trees.  Each tree runs its argvs in one child
process of its own, with that tree's src as PYTHONPATH, and the two
children run side by side.  A request's outcome is the sha256 of its
exit code, stdout and stderr.  Each argv whose outcome differs is
printed as a JSON list, one a line, and the script exits 1 if there is
one; a summary line goes to stderr.

    python3 scripts/compare_outputs.py PARENT_TREE

A child sends its argvs one after another through ``basechange.cli.main``,
as bench/child.py does, and takes main's return value, or a SystemExit's
code, as the exit code that ``console_main`` would pass to sys.exit.
Each request writes to a stdout and a stderr of its own, encoded as the
process's streams would encode them, and an uncaught exception prints
its traceback there and exits 1, as it would in a process.  The
module-level lru caches of ``basechange`` are cleared after every
request, so each starts as cold as a new CLI process.  What the requests
of one child still share: the imported modules and their module-level
values, the hash seed, the current directory, the warnings already
shown, and any file a request writes, which no benchmark argv does (none
uses --output).  Output that varies from process to process, such as
set order under the hash seed, still differs between the two children.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def benchmark_argvs() -> list[list[str]]:
    """Every distinct argv any seed of any workload can draw, in a fixed order."""
    seen = dict.fromkeys(
        tuple(req["argv"]) for workload in workloads.WORKLOADS for req in workloads.all_requests(workload)
    )
    return [list(argv) for argv in seen]


def outcome(code: int, stdout: bytes, stderr: bytes) -> str:
    """sha256 of an exit code, stdout and stderr."""
    head = b"%d %d\n" % (code, len(stdout))  # where stdout ends and stderr starts
    return hashlib.sha256(head + stdout + stderr).hexdigest()


def run_requests() -> None:
    """The child: each argv of the JSON list on stdin through cli.main, one outcome a line on stdout."""
    import basechange.cli as cli

    caches = [  # module-level lru caches; cli has imported every module of basechange
        obj
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "basechange"
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]
    for argv in json.load(sys.stdin):
        sys.stdout, sys.stderr = streams = [
            io.TextIOWrapper(io.BytesIO(), encoding=real.encoding, errors=real.errors)
            for real in (sys.__stdout__, sys.__stderr__)
        ]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        for stream in streams:
            stream.flush()
        print(outcome(code, *(stream.buffer.getvalue() for stream in streams)))
        for cache in caches:  # the next request starts cold, like a new CLI process
            cache.cache_clear()


def outcomes(tree: Path, argvs: list[list[str]]) -> list[str]:
    """The outcome of each argv, in one child running the CLI under tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(ROOT / "scripts")])}
    child = [sys.executable, "-c", "import compare_outputs; compare_outputs.run_requests()"]
    proc = subprocess.run(child, input=json.dumps(argvs), env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != len(argvs):
        raise SystemExit(f"the child running {tree} failed (exit {proc.returncode}):\n{proc.stderr}")
    return lines


def differing_argvs(parent: Path, argvs: list[list[str]]) -> list[list[str]]:
    with ThreadPoolExecutor(2) as pool:
        ours, theirs = pool.map(lambda tree: outcomes(tree, argvs), (ROOT, parent))
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
