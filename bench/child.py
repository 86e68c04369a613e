"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py JOB_DIR

Times the CLI set-up (import ``basechange.cli`` and build its parser)
before importing anything else, and right after it one cold run of the
speed probe, by which run.py rescales the set-up time.  Then, if
JOB_DIR/job.json lists requests, sends them one after another through
``basechange.cli.main``.  The module-level caches of ``basechange`` are
cleared after every request, so each request starts as cold as a new
CLI process does and no request's time depends on which ran before it.
Request i writes its stdout to JOB_DIR/i.out.  The pass ends by writing
JOB_DIR/report.json: set-up time, per-request exit code, stderr, start
and duration, the speed probes, peak RSS and, for a traced pass, the
per-layer values.

The speed probe is a fixed piece of standard-library work (exact
fractions, dict building, JSON rendering).  An untraced pass runs it
before every request, from an interval timer every PROBE_EVERY_S (also
in the middle of a request), and once more after the last request.
run.py takes the probes' own time out of the request times and divides
each stretch between two probes by their mean, which removes the
machine's changing speed; see README.md.
"""

import sys
import time

PROBE_EVERY_S = 0.1


def probe_kernel(fraction, dumps) -> None:
    acc = fraction(0)
    for i in range(1, 100):
        acc += fraction(i % 7, i % 5 + 1)
    table = {(i, i % 13): [i, str(i)] for i in range(300)}
    dumps(sorted(table.items()), indent=1)


def peak_rss_kib() -> int:
    """Peak RSS of this interpreter since its exec (Linux VmHWM).

    getrusage's ru_maxrss would also count the parent's RSS at the time of
    the fork that started this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    start = time.perf_counter()
    import basechange.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import io
    import json
    import os
    import signal
    import traceback
    from fractions import Fraction

    begin = time.perf_counter()
    probe_kernel(Fraction, json.dumps)
    cold_probe_s = time.perf_counter() - begin
    probes = []  # (start, end, best of two kernel times), in time order
    probing = False

    def probe(*_signal_args) -> None:
        nonlocal probing
        if probing:  # the timer fired during a probe
            return
        probing = True
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            begin = time.perf_counter()
            probe_kernel(Fraction, json.dumps)
            best = min(best, time.perf_counter() - begin)
        probes.append((start, time.perf_counter(), best))
        probing = False

    job_dir = sys.argv[1]
    with open(os.path.join(job_dir, "job.json")) as fh:
        job = json.load(fh)
    caches = {  # module-level lru caches, found before any wrapper hides them
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "basechange"
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    }.values()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    probe()
    if job["requests"] and tracer is None:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    results = []
    for i, argv in enumerate(job["requests"]):
        if tracer is None:
            probe()
        err = io.StringIO()
        raised = None
        if tracer is not None:
            tracer.request = i
        with open(os.path.join(job_dir, f"{i}.out"), "w", encoding="utf-8") as out:
            sys.stdout, sys.stderr = out, err
            begin = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a request failure, not a harness one
                code = 1
                raised = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
            out.flush()
            elapsed = time.perf_counter() - begin
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        results.append({"exit": code, "stderr": err.getvalue(), "raised": raised,
                        "start": begin, "t": elapsed})
        for cache in caches:  # the next request starts cold, like a new CLI process
            if tracer is not None:
                tracer.count_cache(cache)
            cache.cache_clear()
    signal.setitimer(signal.ITIMER_REAL, 0)
    probe()

    report = {
        "setup_s": setup_s,
        "cold_probe_s": cold_probe_s,
        "maxrss_kib": peak_rss_kib(),
        "probes": probes,
        "results": results,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        report["missing"] = sorted(tracer.missing | tracer.broken_observers)
    with open(os.path.join(job_dir, "report.json"), "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
