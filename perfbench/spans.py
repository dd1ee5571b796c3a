"""Spans around flagflow's public functions, recorded from outside the package.

Tracer.installed() replaces each timed function, in every flagflow module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and request id. Spans stay in memory until the run
ends. The program is single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.

Span times are read from a clock that stops while the tracer does its own
bookkeeping (opening and closing spans, counting the cost of a call), so
that work lands in no span's self time. What remains in the spans is the
wrapper's call itself, about ten microseconds per timed call.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

# layer -> public functions timed and reported one by one; the cli layer's
# span is opened by the caller
LAYERS = {
    "rootsys": ("build_root_system",),
    "parabolic": ("build_flag",),
    "flow": ("make_flow", "bounds_report", "lambda1_bounds", "class_at", "volume"),
    "invariants": ("invariants_of", "lct_lower"),
    "dimcount": ("weyl_dim",),
    "oracle": ("run_suite", "check_scalar_volume_identity", "check_ricci_identity",
               "check_trajectory_bounds", "check_nef_consistency", "brute_nef",
               "check_scale_laws", "check_weyl_gt_grid"),
}
# timed too, so that the oracle's direct calls into these layers count in the
# layer totals rather than in oracle self time
LAYER_ONLY = {
    "flow": ("scalar_curvature", "ricci_norm_sq"),
    "invariants": ("degree", "nef_value", "script_T", "script_C"),
    "dimcount": ("gt_count",),
}
MODULES = ("cli", "rootsys", "parabolic", "flow", "invariants", "dimcount", "oracle")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _bits(x) -> int:
    if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
        f = Fraction(x)
        return max(f.numerator.bit_length(), f.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((_bits(v) for v in x), default=0)
    return 0


def _flow_bits(value) -> int:
    """Widest exact number among an argument or result of a flow call."""
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is None:
        return _bits(value)
    if "flag" in fields:  # FlowSolution: the class, T and the root constants
        return max(_bits(value.b0), _bits(value.T), _bits(value.p_const))
    if "rs" in fields:    # ParabolicFlag
        return 0
    return max(_bits(getattr(value, name)) for name in fields)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # clock time spent in open(), close() and _observe(), left out of spans
        self.hidden_s = 0.0
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = -1
        self.errors: Counter[str] = Counter()
        # counters kept per request: rank, positive_roots, n
        self.costs: dict[int, Counter[str]] = defaultdict(Counter)
        self.flow_root_terms = 0
        self.flow_max_bits = 0
        self.brute_nef_certified = 0
        self.oracle_instances = 0

    def open(self, name: str, layer: str) -> Span:
        t = self.clock()
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, self.request, parent, t - self.hidden_s)
        self.spans.append(span)
        self._stack.append(span)
        self.hidden_s += self.clock() - t
        return span

    def close(self, span: Span, observed: tuple | None = None) -> None:
        """End the span; observed = (layer, name, args, result) of a timed call."""
        t = self.clock()
        span.end = t - self.hidden_s
        popped = self._stack.pop()
        assert popped is span, "spans closed out of order"
        if self._stack:
            self._stack[-1].children_s += span.duration
        if observed is not None:
            self._observe(*observed)
        self.hidden_s += self.clock() - t

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        full = f"{layer}.{name}"

        def timed(*args, **kwargs):
            span = tracer.open(full, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.close(span)
                tracer.errors[layer] += 1
                raise
            tracer.close(span, (layer, name, args, result))
            return result

        return timed

    def _observe(self, layer: str, name: str, args, result) -> None:
        cost = self.costs[self.request]
        if name == "build_root_system":
            cost["rank"] += result.rank
            cost["positive_roots"] += len(result.positive_roots)
        elif name == "build_flag":
            cost["n"] += result.n
        elif layer == "flow":
            owner = args[0]
            self.flow_root_terms += owner.flag.n if hasattr(owner, "flag") else owner.n
            self.flow_max_bits = max(self.flow_max_bits, _flow_bits(result),
                                     *(_flow_bits(a) for a in args))
        elif name == "brute_nef":
            self.brute_nef_certified += result is not None
        elif name == "run_suite":
            self.oracle_instances += result.instances

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every flagflow module, and back out afterwards."""
        modules = [importlib.import_module("flagflow")] + [
            importlib.import_module(f"flagflow.{m}") for m in MODULES]
        swapped = []
        try:
            for layer in LAYERS:
                home = importlib.import_module(f"flagflow.{layer}")
                for name in LAYERS[layer] + LAYER_ONLY.get(layer, ()):
                    orig = getattr(home, name)
                    wrapper = self.wrap(layer, name, orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                swapped.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(swapped):
                setattr(mod, attr, orig)


def summarize(spans: list[Span]) -> dict[str, float]:
    """calls and busy_s per span name; busy_s and self_s per layer.

    A layer's busy_s counts only its outermost spans, so a layer function
    calling another of the same layer is not counted twice.
    """
    out: dict[str, float] = defaultdict(int)
    by_id = {s.id: s for s in spans}
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += s.duration
        out[f"{s.layer}.self_s"] += s.self_s
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[f"{s.layer}.busy_s"] += s.duration
    return dict(out)
