#!/usr/bin/env python3
"""Benchmark of the ``basechange`` command line, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload cert-solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One parent process runs one workload in a closed loop with one client:
the next request starts when the previous one has returned.  A pass
sends the workload's seeded request list through ``basechange.cli.main``
inside one fresh child interpreter, so module caches start cold as they
do for a CLI user; passes repeat, one child at a time, until --seconds
have been spent.  Every request's output is checked against the digest
recorded at the seed commit and by the independent oracles.

--trace 0 prints the end-to-end metrics: set-up time, wall time of the
request list, median request time, peak RSS and success rate (each a
median over passes, set-up over every child).  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics of
``tracing.py`` plus the tracing overhead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
DIGESTS = BENCH_DIR / "digests.json"

# Time of one child.probe_kernel on an undisturbed core of the reference
# machine, warm and as the first work of a fresh interpreter; normalised
# request and set-up times are seconds at that speed.
PROBE_REF_S = 0.002
COLD_PROBE_REF_S = 0.0035
SETUP_SAMPLES = 6  # set-up-only children per run, besides one per pass
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run ends, whatever --seconds says, well before 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_s.p50", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed request)."""


def run_child(requests: list[list[str]], trace: bool, deadline: float) -> tuple[dict, Path]:
    """Run one child interpreter over the argv list; return its report and job dir."""
    job_dir = RUN_DIR / str(os.getpid())
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    (job_dir / "job.json").write_text(json.dumps({"requests": requests, "trace": trace}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_dir)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=max(5.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("a pass ran past the run's time limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise HarnessError("child interpreter failed: " + " | ".join(tail))
    return json.loads((job_dir / "report.json").read_text()), job_dir


def run_pass(requests: list[dict], trace: bool, digests, deadline: float) -> dict:
    """One pass over the request list, with every output checked.

    digests maps request ids to the recorded stdout sha256; None skips
    the digest comparison (used while recording the table).
    """
    report, job_dir = run_child([r["argv"] for r in requests], trace, deadline)
    failures, out_digests, exits = [], [], Counter()
    out_bytes = 0
    for i, (req, res) in enumerate(zip(requests, report["results"])):
        out = (job_dir / f"{i}.out").read_bytes()
        out_bytes += len(out)
        out_digests.append(hashlib.sha256(out).hexdigest())
        code = res["exit"]
        exits[str(code) if code in (0, 2, 3, 4) else "other"] += 1
        reference = None
        if digests is not None and req["defect"] is None:
            reference = digests.get(workloads.request_id(req["argv"]))
            if reference is None:
                failures.append((req, "no recorded reference digest"))
                continue
        reason = oracles.check(req, res, out, reference)
        if reason is not None:
            failures.append((req, reason))
    shutil.rmtree(job_dir)
    raw, times = request_times(report)
    return {
        "ids": [workloads.request_id(r["argv"]) for r in requests],
        "setup_s": setup_time(report),
        "raw_wall_s": sum(raw),
        "wall_s": sum(times),
        "times": times,
        "rss_mib": report["maxrss_kib"] / 1024,
        "failures": failures,
        "digests": out_digests,
        "output_bytes": out_bytes,
        "exits": exits,
        "layers": report.get("layers"),
        "missing": report.get("missing", []),
    }


def request_times(report: dict) -> tuple[list[float], list[float]]:
    """Per-request times with the probes' own time taken out: (raw, normalised).

    The normalised time divides each stretch of a request between two
    probes (or a probe and the request's start or end) by the mean of the
    probe just before and the probe just after it, times PROBE_REF_S.
    """
    probes = report["probes"]
    starts = [start for start, _, _ in probes]
    raw, normalised = [], []
    for res in report["results"]:
        begin, end = res["start"], res["start"] + res["t"]
        k = bisect.bisect_right(starts, begin) - 1  # last probe before the request
        plain = scaled = 0.0
        cursor = begin
        while True:
            nxt = probes[k + 1]
            stretch = min(nxt[0], end) - cursor
            plain += stretch
            scaled += stretch * PROBE_REF_S / ((probes[k][2] + nxt[2]) / 2)
            if nxt[0] >= end:
                break
            cursor, k = nxt[1], k + 1
        raw.append(plain)
        normalised.append(scaled)
    return raw, normalised


def setup_time(report: dict) -> float:
    """Set-up time rescaled by the cold probe that ran right after it."""
    return report["setup_s"] * COLD_PROBE_REF_S / report["cold_probe_s"]


def setup_samples(count: int, deadline: float) -> list[float]:
    """Set-up time of fresh children that run no request."""
    return [setup_time(run_child([], False, deadline)[0]) for _ in range(count)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, reduced to its metrics and failure counts."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    digests = json.loads(DIGESTS.read_text())
    requests = workloads.requests(workload, seed)
    setup_samples(1, deadline)  # writes the bytecode caches; not measured
    setups = setup_samples(SETUP_SAMPLES, deadline)

    plain, traced, durations = [], [], []
    begin = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        order = workloads.requests(workload, seed, len(plain) + len(traced))
        started = time.perf_counter()
        result = run_pass(order, use_trace, digests, deadline)
        durations.append(time.perf_counter() - started)
        (traced if use_trace else plain).append(result)
        setups.append(result["setup_s"])
        spent = time.perf_counter() - begin
        enough = len(plain) + len(traced) >= MIN_PASSES and (not trace or traced)
        if enough and spent + statistics.median(durations) > seconds:
            break
        if enough and deadline - time.perf_counter() < 2 * max(durations):
            break

    passes = plain + traced
    per_request = {}
    for p in plain:
        for rid, t in zip(p["ids"], p["times"]):
            per_request.setdefault(rid, []).append(t)
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return {
        "workload": workload,
        "requests": requests,
        "passes": len(passes),
        "attempted": attempted,
        "failures": failures,
        "unexpected": [f for f in failures if f[0]["defect"] is None],
        "e2e": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "request_s.p50": statistics.median(statistics.median(ts) for ts in per_request.values()),
            "peak_rss_mib": statistics.median(p["rss_mib"] for p in plain),
            "success_rate": 1 - len(failures) / attempted,
        },
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "per_layer": per_layer(plain, traced) if trace else None,
        "missing": sorted({m for p in traced for m in p["missing"]}),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Median over traced passes of each per-layer value (None: missing)."""
    rows = []
    for p in traced:
        values = dict(p["layers"])
        values["cli.output_bytes"] = p["output_bytes"]
        for code in ("0", "2", "3", "4", "other"):
            values[f"cli.exit.{code}"] = p["exits"][code]
        rows.append(values)
    out = {}
    for name, _ in tracing.PER_LAYER:
        column = [row.get(name) for row in rows]
        out[name] = None if None in column else statistics.median(column)
    traced_wall = statistics.median(p["raw_wall_s"] for p in traced)
    plain_wall = statistics.median(p["raw_wall_s"] for p in plain)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out


def metadata(seed: int, seconds: float, trace: bool, runs: list[dict]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests_per_pass": {r["workload"]: len(r["requests"]) for r in runs},
        "passes": {r["workload"]: r["passes"] for r in runs},
    }


def print_run(run: dict) -> None:
    units = dict(END_TO_END)
    error_rate = len(run["failures"]) / run["attempted"]
    print(f"[{run['workload']}] {run['passes']} passes x {len(run['requests'])} requests")
    for name, value in run["e2e"].items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    print(f"  {'raw_wall_s':<16} {run['raw_wall_s']:.6g} s (not normalised)")
    print(f"  {'error_rate':<16} {error_rate:.6g} ratio ({len(run['failures'])} of {run['attempted']})")
    seen = set()
    for req, reason in run["failures"]:
        key = (workloads.request_id(req["argv"]), reason)
        if key not in seen:
            seen.add(key)
            kind = "known defect" if req["defect"] else "FAILED"
            print(f"  {kind}: {' '.join(req['argv'])[:160]} -> {reason}")
    if run["missing"]:
        print(f"  missing from the trace: {', '.join(run['missing'])}")


def metric_objects(run: dict, trace: bool) -> dict:
    if trace:
        out = {}
        for name, unit in tracing.PER_LAYER:
            value = run["per_layer"][name]
            out[name] = {"value": value, "unit": unit}
            if value is None:  # renamed or removed in the library
                out[name] = {"value": 0, "unit": unit, "missing": True}
        return out
    units = dict(END_TO_END)
    return {name: {"value": value, "unit": units[name]} for name, value in run["e2e"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "basechange" / "cli.py").is_file():
        print(f"error: no basechange sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()  # only once no other run is using it

    for run in runs:
        print_run(run)
    print(json.dumps({"meta": metadata(args.seed, args.seconds, bool(args.trace), runs)}))
    if len(runs) == 1:
        metrics = metric_objects(runs[0], bool(args.trace))
    else:
        metrics = {
            f"{run['workload']}.{name}": obj
            for run in runs
            for name, obj in metric_objects(run, bool(args.trace)).items()
        }
    print(json.dumps({
        "correct": not any(run["unexpected"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(len(run["failures"]) for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
