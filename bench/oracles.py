"""Output checks that do not share code with ``basechange``.

Each oracle takes the request's ``params`` and the raw stdout bytes and
returns None when the output passes, or a one-line reason when it does
not.  They parse the CLI's JSON with the standard library only.
"""

from __future__ import annotations

import hashlib
import json


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= m:
                    total += sign * table[m - g]
            k += 1
        table[m] = total
    return table[n]


def certificate(params: dict, out: bytes):
    """f**r generators, B-membership of every coefficient, verified flag."""
    r, f = params["r"], params["f"]
    payload = json.loads(out)
    summary, cert = payload["summary"], payload["certificate"]
    if summary["generator_count"] != f**r or len(cert["generators"]) != f**r:
        return f"expected {f**r} generators, got {len(cert['generators'])}"
    if params["verify"] and summary.get("verified") is not True:
        return "certificate is not marked verified"
    tables = [e["terms"] for e in cert["reductions"]] + [e["terms"] for e in cert["pruned"]]
    for terms in tables:
        for term in terms:
            for coeff in term["coefficient"]:
                if any(x % f for x in coeff["exponents"]):
                    return f"coefficient exponent {coeff['exponents']} is not a multiple of {f}"
    return None


def bc_gl1(params: dict, out: bytes):
    """(q-1)q^(M-1) circles; one K^1 entry f per source row; K^0 entries 1."""
    q, M, f = params["q"], params["M"], params["f"]
    payload = json.loads(out)
    circles = len(payload["dual"]["circles"])
    if circles != (q - 1) * q ** (M - 1):
        return f"expected {(q - 1) * q ** (M - 1)} circles, got {circles}"
    k0, k1 = payload["k0"], payload["k1"]
    rows = [i for i, _, _ in k1["triplets"]]
    if sorted(rows) != list(range(len(k1["rows"]))) or len(k1["rows"]) != circles:
        return "K^1 does not have exactly one entry per source row"
    if any(v != f for _, _, v in k1["triplets"]):
        return f"a K^1 entry differs from the degree {f}"
    if any(v != 1 for _, _, v in k0["triplets"]):
        return "a K^0 entry differs from 1"
    return None


def extquot(params: dict, out: bytes):
    """One component per partition of n, counted by the pentagonal recurrence."""
    n = params["n"]
    if params["fmt"] == "json":
        count = len(json.loads(out)["components"])
    else:
        count = len(out.decode().splitlines())
    if count != partition_count(n):
        return f"expected p({n}) = {partition_count(n)} components, got {count}"
    return None


ORACLES = {"certificate": certificate, "bc-gl1": bc_gl1, "extquot": extquot}


def check(request: dict, result: dict, out: bytes, reference):
    """Why one executed request failed, or None when it passed.

    result is the pass's record of the request (exit code, stderr, the
    exception that escaped ``main`` if any).  reference is the stdout
    sha256 recorded at the seed commit, or None where nothing was
    recorded (the known defects, and the recording run itself).
    """
    lines = result["stderr"].splitlines()
    if result["raised"] is not None:
        return f"traceback: {result['raised']}"
    if result["exit"] != request["expect"]:
        return f"exit {result['exit']}, expected {request['expect']}"
    if len(lines) > 1:
        return f"{len(lines)} stderr lines"
    if request["expect"] != 0 and len(lines) != 1:
        return "an error exit without its one-line message"
    if reference is not None and hashlib.sha256(out).hexdigest() != reference:
        return "output digest differs from the recorded reference"
    oracle = ORACLES.get(request["oracle"])
    if oracle is not None:
        try:
            return oracle(request["params"], out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
    return None
