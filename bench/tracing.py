"""Per-layer spans for the traced benchmark pass.

The tracer wraps public names of the ``basechange`` modules by attribute,
from this file, without touching the library's source.  Every call of a
wrapped name records a span (name, start, end, parent span, request id)
in memory; the pass reduces them to per-layer metrics when it ends.

A name that no longer resolves (a later change renamed or removed it) is
reported as missing, together with every metric derived from it; the
pass still runs.

Time the tracer spends on its own bookkeeping inside a span is measured
and left out of that span's busy and self time, so the wrappers do not
inflate the layers above them.  The overall cost still shows as the
difference between traced and untraced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import factorial
from time import perf_counter

CLI_COMMANDS = {
    "extquot": "cmd_extquot",
    "psi": "cmd_psi",
    "norm-level": "cmd_norm_level",
    "bc-gl1": "cmd_bc_gl1",
    "bc-gl2": "cmd_bc_gl2",
    "kmap": "cmd_kmap",
    "finiteness": "cmd_finiteness",
}

# span name -> (module, attribute path)
TARGETS = {
    "finiteness.finiteness_certificate": ("basechange.finiteness", "finiteness_certificate"),
    "finiteness.linear_reduction": ("basechange.finiteness", "linear_reduction"),
    "finiteness.constructive_reduction": ("basechange.finiteness", "constructive_reduction"),
    "finiteness.verify": ("basechange.finiteness", "FinitenessCertificate.verify"),
    "finiteness.to_json": ("basechange.finiteness", "FinitenessCertificate.to_json"),
    "laurent.mul": ("basechange.laurent", "InvariantLaurentPoly.__mul__"),
    "laurent.staircase_decompose": ("basechange.laurent", "staircase_decompose"),
    "laurent.divexact_diff": ("basechange.laurent", "LaurentPoly.divexact_diff"),
    "ktheory.induced_map": ("basechange.ktheory", "induced_map"),
    "ktheory.proper_map_check": ("basechange.ktheory", "ProperCircleMap.__post_init__"),
    "ktheory.to_json": ("basechange.ktheory", "KMorphism.to_json"),
    "gl1.enumerate": ("basechange.gl1", "TemperedDualGL1.enumerate"),
    "gl1.bc_gl1": ("basechange.gl1", "bc_gl1"),
    "gl1.circle_map": ("basechange.gl1", "circle_map"),
    "localfield.conductor_transport": ("basechange.localfield", "conductor_transport"),
    "localfield.from_json": ("basechange.localfield", "ExtensionData.from_json"),
    "localfield.psi": ("basechange.localfield", "psi"),
    "localfield.phi": ("basechange.localfield", "phi"),
    "localfield.norm_level_image": ("basechange.localfield", "norm_level_image"),
    "extquot.extended_quotient": ("basechange.extquot", "extended_quotient"),
    "gl2.bc_gl2": ("basechange.gl2", "bc_gl2"),
    "cli.main": ("basechange.cli", "main"),
    **{f"cli.{cmd}": ("basechange.cli", fn) for cmd, fn in CLI_COMMANDS.items()},
}


def _orbit_size(lam) -> int:
    counts: dict[int, int] = {}
    for v in lam:
        counts[v] = counts.get(v, 0) + 1
    size = factorial(len(lam))
    for c in counts.values():
        size //= factorial(c)
    return size


def _expanded_terms(poly) -> int:
    """Monomials in the full orbit expansion: sum of r!/stabiliser over classes."""
    return sum(_orbit_size(lam) for lam in poly.terms)


# Counters read at a span boundary:
# span name -> (counter names, fn(args, result) -> increments in that order)
OBSERVERS = {
    "laurent.mul": (
        ("laurent.mul.expanded_term_pairs",),
        lambda args, res: (_expanded_terms(args[0]) * _expanded_terms(args[1]),),
    ),
    "finiteness.linear_reduction": (
        ("finiteness.linear_reduction.returned",),
        lambda args, res: (int(res is not None),),
    ),
    "finiteness.finiteness_certificate": (
        ("finiteness.generators", "finiteness.reductions", "finiteness.fallback_targets"),
        lambda args, res: (len(res.generators), len(res.reductions), len(res.fallback_targets)),
    ),
    "ktheory.induced_map": (
        # one K^0 and one K^1 matrix per call, one nonzero per match in each
        ("ktheory.matrix_cells", "ktheory.nonzeros"),
        lambda args, res: (
            2 * len(args[0].source.components) * len(args[0].target.components),
            2 * len(args[0].matches),
        ),
    ),
    "gl1.enumerate": (("gl1.circles",), lambda args, res: (len(res.circles),)),
    "extquot.extended_quotient": (
        ("extquot.partitions",),
        lambda args, res: (len(res.components),),
    ),
}


def _span_metrics(name, unit_list):
    return [(f"{name}.{field}", unit) for field, unit in unit_list]


CALLS, BUSY, SELF = ("calls", "count"), ("busy_s", "s"), ("self_s", "s")

# Every per-layer metric the traced pass reports, with its unit.
PER_LAYER = (
    _span_metrics("finiteness.linear_reduction", [CALLS, BUSY, SELF, ("pruned_ratio", "ratio")])
    + _span_metrics("finiteness.constructive_reduction", [CALLS, BUSY])
    + [("finiteness.verify.busy_s", "s"), ("finiteness.to_json.busy_s", "s")]
    + [("finiteness.generators", "count"), ("finiteness.reductions", "count"),
       ("finiteness.fallback_targets", "count")]
    + _span_metrics("laurent.mul", [CALLS, BUSY, ("expanded_term_pairs", "count")])
    + _span_metrics("laurent.staircase_decompose", [CALLS, BUSY, ("hit_ratio", "ratio")])
    + _span_metrics("laurent.divexact_diff", [CALLS, BUSY])
    + _span_metrics("ktheory.induced_map", [CALLS, BUSY])
    + [("ktheory.matrix_cells", "count"), ("ktheory.fill_ratio", "ratio"),
       ("ktheory.proper_map_check.busy_s", "s"), ("ktheory.to_json.busy_s", "s")]
    + [("gl1.enumerate.busy_s", "s"), ("gl1.bc_gl1.busy_s", "s"),
       ("gl1.circle_map.busy_s", "s"), ("gl1.circles", "count")]
    + _span_metrics("localfield.conductor_transport", [CALLS, BUSY])
    + _span_metrics("localfield.from_json", [CALLS, BUSY])
    + [("localfield.psi.calls", "count"), ("localfield.phi.calls", "count"),
       ("localfield.norm_level_image.busy_s", "s")]
    + [("extquot.extended_quotient.busy_s", "s"), ("extquot.partitions", "count")]
    + _span_metrics("gl2.bc_gl2", [CALLS, BUSY])
    + [m for cmd in CLI_COMMANDS for m in _span_metrics(f"cli.{cmd}", [BUSY, SELF])]
    + [("cli.parse_s", "s"), ("cli.output_bytes", "bytes")]
    + [(f"cli.exit.{code}", "count") for code in ("0", "2", "3", "4", "other")]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Wraps the TARGETS and keeps their spans in memory."""

    def __init__(self, targets=TARGETS, observers=OBSERVERS):
        self.targets = targets
        self.observers = observers
        self.names: list[str] = []
        # (name index, start, end, parent span or -1, request id, outermost, hidden)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.hidden = 0.0  # bookkeeping seconds spent by wrappers so far
        self.request = -1
        self.counters: dict[str, int] = {}
        self.missing: set[str] = set()
        self.broken_observers: set[str] = set()
        self.originals: dict[str, object] = {}
        self.staircase_cache = [0, 0]  # hits, misses of the cleared caches

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, path) in self.targets.items():
            try:
                self._install_one(name, module_name, path)
            except (ImportError, AttributeError):
                self.missing.add(name)

    def _install_one(self, name: str, module_name: str, path: str) -> None:
        module = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            self.originals[name] = raw.__func__
            setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
            return
        if not callable(raw):
            raise AttributeError(f"{module_name}.{path} is not callable")
        self.originals[name] = raw
        wrapper = self._wrap(name, raw)
        if owner is not module:
            setattr(owner, attr, wrapper)
            return
        # module functions are also bound by name in the modules importing them
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != module_name.split(".")[0]:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        index = len(self.names)
        self.names.append(name)
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = tracer.stack[-1] if tracer.stack else -1
            slot = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(slot)
            depth = tracer.depth.get(index, 0)
            tracer.depth[index] = depth + 1
            hidden_at_start = tracer.hidden
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                hidden_inside = tracer.hidden - hidden_at_start
                tracer.stack.pop()
                tracer.depth[index] = depth
                tracer.spans[slot] = (index, start, end, parent, tracer.request, depth == 0, hidden_inside)
            if observe is not None:
                tracer._observe(name, observe, args, result)
            tracer.hidden += (start - entered) + (perf_counter() - end)
            return result

        return wrapper

    def _observe(self, name, observe, args, result) -> None:
        keys, fn = observe
        try:
            increments = fn(args, result)
        except (AttributeError, TypeError, IndexError):
            self.broken_observers.add(name)
            return
        for key, value in zip(keys, increments):
            self.counters[key] = self.counters.get(key, 0) + value

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict[str, float | None]:
        """Per-layer metric values; None marks a metric whose source is missing."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        own = [0.0] * n
        child_busy = [0.0] * len(self.spans)
        for slot in range(len(self.spans) - 1, -1, -1):  # children come after parents
            index, start, end, parent, _, outermost, hidden = self.spans[slot]
            span_busy = end - start - hidden
            calls[index] += 1
            if outermost:
                busy[index] += span_busy
            own[index] += end - start - hidden - child_busy[slot]
            if parent >= 0:
                child_busy[parent] += span_busy
        per_name = {}
        for i, name in enumerate(self.names):
            per_name[name] = {"calls": calls[i], "busy_s": busy[i], "self_s": own[i]}

        values: dict[str, float | None] = {}
        for name in self.targets:
            if name in per_name:
                for field, value in per_name[name].items():
                    values[f"{name}.{field}"] = value
        for name, (keys, _) in self.observers.items():
            if name in per_name and name not in self.broken_observers:
                for key in keys:
                    values[key] = self.counters.get(key, 0)

        def ratio(num_key, den_key):
            num, den = values.get(num_key), values.get(den_key)
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        values["finiteness.linear_reduction.pruned_ratio"] = ratio(
            "finiteness.linear_reduction.returned", "finiteness.linear_reduction.calls"
        )
        values["ktheory.fill_ratio"] = ratio("ktheory.nonzeros", "ktheory.matrix_cells")
        values["laurent.staircase_decompose.hit_ratio"] = self._hit_ratio()
        values["cli.parse_s"] = values.get("cli.main.self_s")
        return values

    def count_cache(self, cache) -> None:
        """Keep the statistics of a cache the pass is about to clear."""
        if cache is self.originals.get("laurent.staircase_decompose"):
            info = cache.cache_info()
            self.staircase_cache[0] += info.hits
            self.staircase_cache[1] += info.misses

    def _hit_ratio(self):
        if not hasattr(self.originals.get("laurent.staircase_decompose"), "cache_info"):
            return None
        hits, misses = self.staircase_cache
        return hits / (hits + misses) if hits + misses else 0.0
