"""Request pools and seeded request lists for the four benchmark workloads.

A workload is a list of slots; each slot is a pool of interchangeable
requests and the number drawn from it.  The seed picks the draw and the
orders, never the slot sizes, so every seed asks for the same amount of
work.  Requests inside one pool cost about the same.  Within one request
list no argv repeats.

Every request is a dict:
  argv    the CLI arguments, handed to ``basechange.cli.main``
  expect  the documented exit code (0, 2, 3 or 4)
  oracle  name of the independent check in ``oracles.py`` (or None)
  params  the request's inputs, as the oracle needs them
  defect  for inputs that end in a traceback at the seed commit: a short
          description of the known defect (otherwise None)
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("cert-solve", "cert-reduce", "kdual", "cli-mix")


def request_id(argv: list[str]) -> str:
    """Stable short key of one request, used by the digest table."""
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def _req(argv, expect=0, oracle=None, defect=None, **params):
    return {
        "argv": [str(a) for a in argv],
        "expect": expect,
        "oracle": oracle,
        "params": params,
        "defect": defect,
    }


def _ext(q, p, e, f, orders, galois=True, cyclic=True):
    obj = {"q": q, "p": p, "e": e, "f": f, "galois": galois, "cyclic": cyclic,
           "filtration_orders": orders}
    return json.dumps(obj, separators=(",", ":"))


def _fmt(argv, fmt):
    return argv + ["--format", fmt] if fmt == "json" else argv


# -- finiteness certificates ---------------------------------------------


def _cert(r, f, window=None, verify=True, fmt="json"):
    argv = ["finiteness", "--r", r, "--f", f]
    if window is not None:
        argv += ["--window", window]
    if verify:
        argv.append("--verify")
    oracle = "certificate" if fmt == "json" else None
    return _req(_fmt(argv, fmt), oracle=oracle, r=r, f=f, verify=verify)


def _cert_solve():
    # r = 3, f = 2 at the default window 6 and the next window up, plus
    # every r <= 2 case at its default window.
    pool = [_cert(3, 2), _cert(3, 2, window=7)]
    pool += [_cert(r, f) for r in (1, 2) for f in (1, 2, 3, 4)]
    return [(pool, len(pool))]


def _cert_reduce():
    # Wide windows at r <= 2: the constructive reduction, verify and the
    # certificate rendering do the work, the exact solver stays small.
    pool = [_cert(2, 4, window=40), _cert(2, 3, window=30), _cert(2, 2, window=24)]
    pool += [_cert(1, f, window=200) for f in (2, 3, 4)]
    return [(pool, len(pool))]


# -- GL(1) K-theory ------------------------------------------------------


def _gl1_extensions(q, p):
    """Unramified f = 2 and f = 3, tame quadratic, wild cyclic of degree p."""
    return [
        _ext(q, p, 1, 2, []),
        _ext(q, p, 1, 3, []),
        _ext(q, p, 2, 1, [2]),
        _ext(q, p, p, 1, [p, p]),
    ]


def _bc_gl1(ext, q, M, fmt="json"):
    f = json.loads(ext)["f"]
    argv = ["bc-gl1", "--extension", ext, "--max-conductor", M]
    oracle = "bc-gl1" if fmt == "json" else None
    return _req(_fmt(argv, fmt), oracle=oracle, q=q, M=M, f=f)


def _kdual():
    # (q, M) -> circles: (3,6) 486, (5,4) 500, (7,3) 294, (3,5) 162.
    slots = []
    for (q, M), count in (((3, 6), 2), ((5, 4), 2), ((7, 3), 1), ((3, 5), 1)):
        pool = [_bc_gl1(ext, q, M) for ext in _gl1_extensions(q, q)]
        slots.append((pool, count))
    return slots


# -- small mixed requests ------------------------------------------------

PSI_ORDERS = ["", "2", "3", "3,3", "4,2", "4,4,2", "5,5", "9,3,3", "6,3", "8,4,2"]
PSI_POINTS = [["2"], ["7/2"], ["1", "5/3"], ["0", "4", "9/2"], ["11/4", "3"], ["13/7"]]


def _psi_pool():
    return [
        _req(_fmt(["psi", "--orders", orders] + [a for x in xs for a in ("--x", x)], fmt))
        for orders in PSI_ORDERS
        for xs in PSI_POINTS
        for fmt in ("text", "json")
    ]


def _norm_level_pool():
    # (extension, levels v with an integer preimage): unramified levels
    # are all fine, tame ones need e | level, the certified wild one
    # needs level >= 2 with level = 1 mod p.
    cases = []
    for q, p in ((3, 3), (5, 5), (7, 7), (9, 3)):
        cases.append((_ext(q, p, 1, 2, []), [0, 1, 2, 3, 5, 8]))
        cases.append((_ext(q, p, 2, 1, [2]), [0, 2, 4, 6, 10, 16]))
    cases.append((_ext(5, 5, 4, 1, [4]), [0, 4, 8, 12, 20, 32]))
    cases.append((_ext(3, 3, 3, 1, [3, 3]), [4, 7, 10, 13, 19, 31]))
    return [
        _req(_fmt(["norm-level", "--extension", ext, "--level", level], fmt))
        for ext, levels in cases
        for level in levels
        for fmt in ("text", "json")
    ]


def _pair(q, p, conductor):
    return json.dumps(
        {
            "quad": json.loads(_ext(q, p, 2, 1, [2])),
            "xi": {"conductor": conductor, "index": 0, "unitary": True},
            "flags": {"not_norm_factor": True, "level_one_norm_factor": False},
        },
        separators=(",", ":"),
    )


def _bc_gl2_pool():
    return [
        _req(_fmt(["bc-gl2", "--pair", _pair(q, p, c), "--lift", _ext(q, p, 1, f, [])], fmt))
        for q, p in ((3, 3), (5, 5), (7, 7), (9, 3), (25, 5))
        for c in (1, 2, 3, 4)
        for f in (1, 3, 5, 7)
        for fmt in ("text", "json")
    ]


def _kmap_pool():
    rng = random.Random("kmap-pool")  # fixed: the pool is the same for every seed
    pool = []
    for k in range(40):
        n_src, n_tgt = rng.randint(2, 12), rng.randint(1, 8)
        source = [f"a{i}" for i in range(n_src)]
        target = [f"b{j}" for j in range(n_tgt)]
        matches = [
            {"from": s, "to": rng.choice(target), "degree": rng.randint(1, 5)}
            for s in source
            if rng.random() < 0.8
        ]
        desc = json.dumps({"source": source, "target": target, "matches": matches},
                          separators=(",", ":"))
        pool.append(_req(_fmt(["kmap", "--map", desc], "json" if k % 2 else "text")))
    return pool


def _extquot(n, fmt):
    return _req(_fmt(["extquot", "--n", n], fmt), oracle="extquot", n=n, fmt=fmt)


def _small_bc_gl1_pool():
    exts = lambda q, p: _gl1_extensions(q, p) + [_ext(q, p, 2, 2, [2])]
    return [
        _bc_gl1(ext, q, M, fmt)
        for q, Ms in ((3, (1, 2, 3)), (5, (1, 2)), (7, (1, 2)))
        for M in Ms
        for ext in exts(q, q)
        for fmt in ("text", "json")
    ]


def _error_pool():
    """Invalid or out-of-scope inputs with their documented exit codes."""
    tame = _ext(3, 3, 2, 1, [2])
    wild_uncertified = _ext(3, 3, 3, 1, [3, 3], galois=False, cyclic=False)
    wild_not_cyclic = _ext(3, 3, 3, 1, [3, 3], cyclic=False)
    pool = [_req(["extquot", "--n", n], 2) for n in (0, 31, 32, 50)]
    pool += [_req(["norm-level", "--extension", tame, "--level", lv], 2) for lv in (1, 3, 5, 7)]
    pool += [_req(["norm-level", "--extension", wild_uncertified, "--level", lv], 3) for lv in (4, 7)]
    pool += [
        _req(["bc-gl2", "--pair", _pair(q, q, 2), "--lift", _ext(q, q, 1, f, [])], 3)
        for q in (3, 5)
        for f in (2, 4)
    ]
    pool += [
        _req(["bc-gl1", "--extension", wild_not_cyclic, "--max-conductor", M], 3) for M in (1, 2)
    ]
    pool += [_req(["finiteness", "--r", r, "--f", f, "--window", w], 4)
             for r, f, w in ((2, 4, 1), (2, 3, 3), (2, 4, 2), (2, 3, 1))]
    pool += [_req(["finiteness", "--r", r, "--f", f], 2) for r, f in ((4, 2), (2, 5))]
    pool += [_req(["psi", "--orders", "2,3", "--x", "1"], 2), _req(["psi", "--orders", "3", "--x", "-1"], 2)]
    pool += [
        _req(["kmap", "--map", '{"source":["a"],"target":["x"],"matches":[{"from":"z","to":"x","degree":1}]}'], 2),
        _req(["kmap", "--map", '{"source":["a"],"target":["x"],"matches":[{"from":"a","to":"x","degree":0}]}'], 2),
    ]
    return pool


def _defect_pool():
    """Malformed inputs that end in a traceback at the seed commit.

    Their documented outcome is exit 2 with one line; until the strict
    input reader lands they fail and count against the success rate.
    """
    zero_div = "ZeroDivisionError from Fraction(p, 0)"
    type_err = "TypeError from an unchecked JSON type"
    pool = [_req(["psi", "--orders", "3", "--x", x], 2, defect=zero_div) for x in ("1/0", "7/0", "5/0")]
    pool += [
        _req(["norm-level", "--extension", _ext(3, 3, 2, 1, 5), "--level", "2"], 2, defect=type_err),
        _req(["bc-gl1", "--extension", _ext(3, 3, 1, 2, 5), "--max-conductor", "2"], 2, defect=type_err),
        _req(["norm-level", "--extension", _ext([3], 3, 2, 1, [2]), "--level", "2"], 2, defect=type_err),
        _req(["bc-gl1", "--extension", _ext([3], 3, 1, 2, []), "--max-conductor", "1"], 2, defect=type_err),
        _req(["kmap", "--map", '{"source":[["a"],"b"],"target":["x"],"matches":[{"from":"b","to":"x","degree":2}]}'],
             2, defect=type_err),
    ]
    return pool


def _cli_mix():
    slots = [
        (_psi_pool(), 60),
        (_norm_level_pool(), 50),
        (_bc_gl2_pool(), 30),
        (_kmap_pool(), 30),
        (_small_bc_gl1_pool(), 30),
    ]
    # one request per n and per (r, f): these pools differ in cost, so the
    # seed only picks the rendering format
    slots += [([_extquot(n, "json"), _extquot(n, "text")], 1) for n in range(1, 21)]
    slots += [
        ([_cert(r, f, fmt="json"), _cert(r, f, fmt="text")], 1)
        for r in (1, 2)
        for f in (1, 2, 3, 4)
    ]
    slots += [
        ([_cert(r, f, window=2 * f + 4, verify=False, fmt=fmt) for fmt in ("json", "text")], 1)
        for r in (1, 2)
        for f in (1, 2, 3, 4)
    ]
    slots += [(_error_pool(), 26), (_defect_pool(), 6)]
    return slots


SLOTS = {
    "cert-solve": _cert_solve,
    "cert-reduce": _cert_reduce,
    "kdual": _kdual,
    "cli-mix": _cli_mix,
}


def requests(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The request list of one pass.

    The seed draws the requests from each slot; the seed and the pass
    index fix their order.  Every pass of a run sends the same requests,
    each pass in its own order, so that the run's per-request medians do
    not hinge on one order of the warm-up of shared caches.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for pool, count in SLOTS[workload]():
        out += rng.sample(pool, count)
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(out)
    return out


def all_requests(workload: str) -> list[dict]:
    """Every request any seed can draw for the workload, each once."""
    seen = {}
    for pool, _ in SLOTS[workload]():
        for req in pool:
            seen.setdefault(request_id(req["argv"]), req)
    return list(seen.values())
