"""Outside-in tracing of thmc's layers, for the traced benchmark run.

Every traced function is wrapped under each module-level name that binds
it, because thmc imports functions by name: ``hilbert`` calls its own
binding of ``smith_normal_form``, so patching ``thmc.intlinalg`` alone
would count nothing. Each wrapper knows which module's binding it
replaced, which is how SNF calls made from ``hilbert`` are told apart
from the others. Spans nest on one stack; a span's self time is its
duration minus the spans of the traced calls made inside it. The
originals are put back when the tracer closes.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

# (layer module, public function) pairs that get wrapped.
TARGETS = (
    ("design", "distinct_columns"),
    ("design", "column_of_word"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "det_bareiss"),
    ("hilbert", "hilbert_basis"),
    ("polyhedra", "linear_feasible"),
    ("polyhedra", "cone_facets"),
    ("polyhedra", "vertices_by_facet_rank"),
    ("polyhedra", "f_vector"),
    ("polyhedra", "f_vector_from_incidence"),
    ("stategraph", "classify_Gmn"),
    ("markov", "minimal_connecting_degree"),
    ("markov", "enumerate_fiber"),
    ("markov", "moves_up_to_degree"),
    ("markov", "fiber_connected"),
)

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "hilbert.hilbert_basis_s": "s",
    "hilbert.self_s": "s",
    "hilbert.elements": "count",
    "hilbert.simplices": "count",
    "hilbert.unimodular_share": "ratio",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_s": "s",
    "intlinalg.det_calls": "count",
    "intlinalg.det_s": "s",
    "polyhedra.lp_calls": "count",
    "polyhedra.lp_s": "s",
    "polyhedra.lp_p50_us": "us",
    "polyhedra.lp_p99_us": "us",
    "polyhedra.cone_facets_calls": "count",
    "polyhedra.cone_facets_s": "s",
    "polyhedra.facets": "count",
    "polyhedra.vertices_s": "s",
    "polyhedra.f_vector_s": "s",
    "polyhedra.incidence_s": "s",
    "design.distinct_columns_s": "s",
    "design.columns": "count",
    "design.column_of_word_calls": "count",
    "design.column_of_word_s": "s",
    "stategraph.classify_calls": "count",
    "stategraph.classify_s": "s",
    "markov.probe_s": "s",
    "markov.fibers_checked": "count",
    "markov.multi_class_share": "ratio",
    "markov.enumerate_fiber_s": "s",
    "markov.fiber_elements": "count",
    "markov.moves_s": "s",
    "markov.moves": "count",
    "markov.walk_s": "s",
    "trace.overhead_s": "s",
}


def _observe_hilbert(counters: Counter, binding: str, result) -> None:
    counters["hilbert.elements"] += result.count


def _observe_snf(counters: Counter, binding: str, result) -> None:
    # hilbert runs one SNF per simplex of its triangulation; the product of
    # the invariant factors is the simplex volume.
    if binding == "thmc.hilbert":
        counters["hilbert.unimodular"] += math.prod(result.diagonal) == 1


def _observe_facets(counters: Counter, binding: str, result) -> None:
    counters["polyhedra.facets"] += len(result.inequalities)


def _observe_columns(counters: Counter, binding: str, result) -> None:
    counters["design.columns"] += len(result)


def _observe_probe(counters: Counter, binding: str, result) -> None:
    counters["markov.fibers_checked"] += result.fibers_checked
    # the workload asks for a report limit above the fiber count, so every
    # fiber with more than one column-multiset class is listed
    counters["markov.multi_class"] += len(result.interesting_fibers) + len(result.disconnected_fibers)


def _observe_fiber(counters: Counter, binding: str, result) -> None:
    counters["markov.fiber_elements"] += result.size


def _observe_moves(counters: Counter, binding: str, result) -> None:
    counters["markov.moves"] += len(result)


OBSERVERS: dict[str, Callable[[Counter, str, object], None]] = {
    "hilbert.hilbert_basis": _observe_hilbert,
    "intlinalg.smith_normal_form": _observe_snf,
    "polyhedra.cone_facets": _observe_facets,
    "design.distinct_columns": _observe_columns,
    "markov.minimal_connecting_degree": _observe_probe,
    "markov.enumerate_fiber": _observe_fiber,
    "markov.moves_up_to_degree": _observe_moves,
}

SAMPLED = "polyhedra.linear_feasible"  # per-call durations kept for percentiles


class _Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps the TARGETS in the given thmc modules until ``close``."""

    def __init__(self, modules: Iterable[ModuleType]):
        self._modules = list(modules)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[ModuleType, str, object]] = []
        self.reset()
        bindings = []
        for layer, name in TARGETS:
            original = getattr(by_name[layer], name)
            key = f"{layer}.{name}"
            for module in self._modules:
                for attr, value in vars(module).items():
                    if value is original:
                        bindings.append((module, attr, key, original))
        for module, attr, key, original in bindings:
            setattr(module, attr, self._wrap(key, module.__name__, original))
            self._restore.append((module, attr, original))

    def reset(self) -> None:
        """Drop everything recorded so far (one pass is traced at a time)."""
        self.spans: dict[tuple[str, str], _Span] = defaultdict(_Span)
        self.counters: Counter = Counter()
        self.samples: list[float] = []

    def close(self) -> None:
        for module, attr, original in self._restore:
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, key: str, binding: str, fn: Callable) -> Callable:
        stack = self._stack
        observe = OBSERVERS.get(key)
        sampled = key == SAMPLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span = self.spans[(key, binding)]
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children[0]
                if sampled:
                    self.samples.append(elapsed)
            if observe is not None:
                observe(self.counters, binding, result)
            return result

        return traced

    def calls(self, key: str, binding: str | None = None) -> int:
        return sum(s.calls for (k, b), s in self.spans.items() if k == key and binding in (None, b))

    def total(self, key: str) -> float:
        return sum(s.total for (k, _), s in self.spans.items() if k == key)

    def self_time(self, key: str) -> float:
        return sum(s.self_time for (k, _), s in self.spans.items() if k == key)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the pass recorded since the last reset.

        ``trace.overhead_s`` needs an untraced pass and is left to the caller.
        """
        c = self.counters
        simplices = self.calls("intlinalg.smith_normal_form", "thmc.hilbert")
        fibers = c["markov.fibers_checked"]
        lp = sorted(self.samples)
        return {
            "hilbert.hilbert_basis_s": self.total("hilbert.hilbert_basis"),
            "hilbert.self_s": self.self_time("hilbert.hilbert_basis"),
            "hilbert.elements": c["hilbert.elements"],
            "hilbert.simplices": simplices,
            "hilbert.unimodular_share": c["hilbert.unimodular"] / simplices if simplices else 0.0,
            "intlinalg.snf_calls": self.calls("intlinalg.smith_normal_form"),
            "intlinalg.snf_s": self.total("intlinalg.smith_normal_form"),
            "intlinalg.det_calls": self.calls("intlinalg.det_bareiss"),
            "intlinalg.det_s": self.total("intlinalg.det_bareiss"),
            "polyhedra.lp_calls": len(lp),
            "polyhedra.lp_s": sum(lp),
            "polyhedra.lp_p50_us": statistics.median(lp) * 1e6 if lp else 0.0,
            "polyhedra.lp_p99_us": percentile(lp, 0.99) * 1e6 if lp else 0.0,
            "polyhedra.cone_facets_calls": self.calls("polyhedra.cone_facets"),
            "polyhedra.cone_facets_s": self.total("polyhedra.cone_facets"),
            "polyhedra.facets": c["polyhedra.facets"],
            "polyhedra.vertices_s": self.total("polyhedra.vertices_by_facet_rank"),
            "polyhedra.f_vector_s": self.total("polyhedra.f_vector"),
            "polyhedra.incidence_s": self.total("polyhedra.f_vector_from_incidence"),
            "design.distinct_columns_s": self.total("design.distinct_columns"),
            "design.columns": c["design.columns"],
            "design.column_of_word_calls": self.calls("design.column_of_word"),
            "design.column_of_word_s": self.total("design.column_of_word"),
            "stategraph.classify_calls": self.calls("stategraph.classify_Gmn"),
            "stategraph.classify_s": self.total("stategraph.classify_Gmn"),
            "markov.probe_s": self.total("markov.minimal_connecting_degree"),
            "markov.fibers_checked": fibers,
            "markov.multi_class_share": c["markov.multi_class"] / fibers if fibers else 0.0,
            "markov.enumerate_fiber_s": self.total("markov.enumerate_fiber"),
            "markov.fiber_elements": c["markov.fiber_elements"],
            "markov.moves_s": self.total("markov.moves_up_to_degree"),
            "markov.moves": c["markov.moves"],
            "markov.walk_s": self.total("markov.fiber_connected"),
        }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
