"""Self-tests of the benchmark: request lists, oracles, tracer, result names.

Run from the repository root: python3 -m pytest bench
"""

import contextlib
import io
import json
import sys
import time
import types

import pytest

import oracles
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from basechange.cli import main as cli_main  # noqa: E402

SEEDS = range(12)


def cli_output(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    assert workloads.requests(workload, 5) == workloads.requests(workload, 5)


def test_seed_changes_the_draw():
    assert workloads.requests("cli-mix", 5) != workloads.requests("cli-mix", 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_send_the_same_requests_in_their_own_order(workload):
    passes = [workloads.requests(workload, 5, k) for k in range(3)]
    ids = [[workloads.request_id(r["argv"]) for r in p] for p in passes]
    assert len({tuple(sorted(i)) for i in ids}) == 1
    assert len({tuple(i) for i in ids}) == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_argv_repeats_within_a_pass(workload):
    for seed in SEEDS:
        ids = [workloads.request_id(r["argv"]) for r in workloads.requests(workload, seed)]
        assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_the_amount_and_mix_of_work(workload):
    def shape(seed):
        reqs = workloads.requests(workload, seed)
        return (len(reqs), sum(r["expect"] != 0 for r in reqs), sum(r["defect"] is not None for r in reqs))

    assert len({shape(seed) for seed in SEEDS}) == 1


def test_cli_mix_has_error_and_defect_slices():
    reqs = workloads.requests("cli-mix", 0)
    assert {r["expect"] for r in reqs} == {0, 2, 3, 4}
    assert any(r["defect"] for r in reqs)
    assert {r["argv"][0] for r in reqs} == set(tracing.CLI_COMMANDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_a_recorded_digest(workload):
    table = json.loads(run.DIGESTS.read_text())
    for req in workloads.all_requests(workload):
        if req["defect"] is None:
            assert workloads.request_id(req["argv"]) in table, req["argv"]


def test_partition_count():
    assert [oracles.partition_count(n) for n in range(1, 11)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_certificate_oracle_rejects_corruption():
    params = {"r": 2, "f": 2, "verify": True}
    good = json.loads(cli_output("finiteness", "--r", "2", "--f", "2", "--verify", "--format", "json"))
    assert oracles.certificate(params, json.dumps(good).encode()) is None

    dropped = json.loads(json.dumps(good))
    dropped["certificate"]["generators"].pop()
    dropped["summary"]["generator_count"] -= 1
    assert "generators" in oracles.certificate(params, json.dumps(dropped).encode())

    unverified = json.loads(json.dumps(good))
    unverified["summary"]["verified"] = False
    assert "verified" in oracles.certificate(params, json.dumps(unverified).encode())

    off_lattice = json.loads(json.dumps(good))
    term = next(t for e in off_lattice["certificate"]["reductions"] for t in e["terms"] if t["coefficient"])
    term["coefficient"][0]["exponents"][0] += 1
    assert "multiple" in oracles.certificate(params, json.dumps(off_lattice).encode())


def test_bc_gl1_oracle_rejects_corruption():
    ext = '{"q":3,"p":3,"e":1,"f":2,"galois":true,"cyclic":true,"filtration_orders":[]}'
    params = {"q": 3, "M": 3, "f": 2}
    good = json.loads(cli_output("bc-gl1", "--extension", ext, "--max-conductor", "3", "--format", "json"))
    assert oracles.bc_gl1(params, json.dumps(good).encode()) is None

    flipped = json.loads(json.dumps(good))
    flipped["k1"]["triplets"][3][2] += 1
    assert "K^1" in oracles.bc_gl1(params, json.dumps(flipped).encode())

    dropped_row = json.loads(json.dumps(good))
    dropped_row["k1"]["triplets"].pop(0)
    assert "one entry per source row" in oracles.bc_gl1(params, json.dumps(dropped_row).encode())

    k0 = json.loads(json.dumps(good))
    k0["k0"]["triplets"][0][2] = 2
    assert "K^0" in oracles.bc_gl1(params, json.dumps(k0).encode())

    assert "circles" in oracles.bc_gl1({**params, "M": 4}, json.dumps(good).encode())


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_extquot_oracle_rejects_corruption(fmt):
    params = {"n": 7, "fmt": fmt}
    argv = ["extquot", "--n", "7"] + (["--format", "json"] if fmt == "json" else [])
    good = cli_output(*argv)
    assert oracles.extquot(params, good) is None
    if fmt == "json":
        payload = json.loads(good)
        payload["components"].pop()
        bad = json.dumps(payload).encode()
    else:
        bad = b"\n".join(good.splitlines()[1:])
    assert "p(7)" in oracles.extquot(params, bad)


def test_check_rejects_each_failure_kind():
    ok = {"exit": 0, "stderr": "", "raised": None}
    request = {"expect": 0, "oracle": None, "params": {}}
    error_request = {"expect": 2, "oracle": None, "params": {}}
    digest = "0" * 64
    assert oracles.check(request, ok, b"x", None) is None
    assert "exit" in oracles.check(request, {**ok, "exit": 3}, b"", None)
    assert "traceback" in oracles.check(request, {**ok, "exit": 1, "raised": "ZeroDivisionError: x"}, b"", None)
    assert "stderr" in oracles.check(request, {**ok, "stderr": "a\nb\n"}, b"", None)
    assert "digest" in oracles.check(request, ok, b"x", digest)
    assert oracles.check(error_request, {**ok, "exit": 2, "stderr": "error: bad\n"}, b"", None) is None
    assert "stderr" in oracles.check(error_request, {**ok, "exit": 2, "stderr": "usage\nerror: bad\n"}, b"", None)
    assert "one-line" in oracles.check(error_request, {**ok, "exit": 2}, b"", None)


FAKE_SOURCE = """
def helper(x):
    return x * 2

class Ring:
    def mul(self, other):
        return helper(other)

    @staticmethod
    def make(n):
        return list(range(n))
"""


def _fake_module():
    mod = types.ModuleType("fakelib.core")
    exec(FAKE_SOURCE, mod.__dict__)
    return mod


def test_tracer_spans_nesting_and_renames(monkeypatch):
    mod = _fake_module()
    user = types.ModuleType("fakelib.user")
    user.helper = mod.helper  # bound by name, as ``from .core import helper`` does
    monkeypatch.setitem(sys.modules, "fakelib", types.ModuleType("fakelib"))
    monkeypatch.setitem(sys.modules, "fakelib.core", mod)
    monkeypatch.setitem(sys.modules, "fakelib.user", user)
    targets = {
        "core.mul": ("fakelib.core", "Ring.mul"),
        "core.make": ("fakelib.core", "Ring.make"),
        "core.helper": ("fakelib.core", "helper"),
        "core.renamed": ("fakelib.core", "Ring.old_name"),
        "gone.fn": ("fakelib.gone", "fn"),
    }
    observers = {"core.make": (("core.made",), lambda args, res: (len(res),))}
    tracer = tracing.Tracer(targets, observers)
    tracer.install()
    assert tracer.missing == {"core.renamed", "gone.fn"}

    tracer.request = 4
    assert mod.Ring().mul(3) == 6
    assert mod.Ring.make(5) == [0, 1, 2, 3, 4]
    assert user.helper(1) == 2
    assert [tracer.names[s[0]] for s in tracer.spans] == ["core.mul", "core.helper", "core.make", "core.helper"]
    assert tracer.spans[1][3] == 0  # helper's parent is the mul span
    assert all(s[4] == 4 for s in tracer.spans)

    values = tracer.summary()
    assert values["core.helper.calls"] == 2
    assert values["core.made"] == 5
    assert values["core.mul.self_s"] <= values["core.mul.busy_s"]
    assert "core.renamed.calls" not in values and "gone.fn.busy_s" not in values


def test_traced_pass_reports_every_layer():
    requests = [r for r in workloads.requests("cli-mix", 0) if r["argv"][0] in ("psi", "bc-gl1", "finiteness")][:6]
    digests = json.loads(run.DIGESTS.read_text())
    result = run.run_pass(requests, True, digests, time.perf_counter() + 120)
    assert [f for f in result["failures"] if f[0]["defect"] is None] == []
    assert result["missing"] == []
    assert result["layers"]["cli.main.calls"] == len(requests)
    assert result["layers"]["cli.parse_s"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
