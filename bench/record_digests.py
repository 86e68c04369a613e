#!/usr/bin/env python3
"""Record the reference stdout digest of every request any seed can draw.

Usage (from the repository root): python3 bench/record_digests.py

Runs each workload's whole request pool once, checks every result by
its exit code, stderr and oracle, and writes bench/digests.json, which
maps request ids to the sha256 of their stdout.  Known defects (inputs
that end in a traceback) get no entry.  Run it only at a commit whose
output is the reference; later runs of the benchmark require
byte-identical output.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    table, problems = {}, []
    deadline = time.perf_counter() + 3600
    for name in workloads.WORKLOADS:
        requests = workloads.all_requests(name)
        result = run.run_pass(requests, False, None, deadline)
        failed = {id(req): reason for req, reason in result["failures"]}
        for req, digest in zip(requests, result["digests"]):
            reason = failed.get(id(req))
            if req["defect"] is not None:
                print(f"known defect ({reason or 'now passes'}): {' '.join(req['argv'])[:120]}")
            elif reason is not None:
                problems.append(f"{' '.join(req['argv'])[:120]} -> {reason}")
            else:
                table[workloads.request_id(req["argv"])] = digest
        print(f"{name}: {len(requests)} requests in {result['wall_s']:.2f} s")
    if problems:
        print("not recorded, these requests fail:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
