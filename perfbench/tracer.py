"""Per-layer spans recorded from outside the library.

The traced run replaces the public functions one ``triwalk`` module calls
in another (``triwalk.pipeline.estimate_all_apexes``,
``triwalk.harness.uncovered_pairs``, ...) with timing wrappers, and puts
the originals back when it ends. Nothing under ``src/`` changes. Each span
records its name, trial, parent span and start and end times; a layer's
self time is its span's duration minus the time of its child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Optional

import triwalk.harness
import triwalk.pipeline

from workloads import exit_path


def _observe_sizes(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("pairs.cover_size.sum", int(result.size))
    tracer.add("pairs.cover_size.n", 1)


def _observe_surviving(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("pairs.uncovered_pairs.selected", len(result))
    tracer.add("pairs.uncovered_pairs.universe", result.universe_size)


def _observe_estimator(tracer: "Tracer", args, kwargs, result) -> None:
    probes = int(result[1])
    tracer.add("estimator.estimate_all_apexes.calls", 1)
    tracer.add("estimator.raw_probes", probes)
    tracer.add("estimator.empty_exits", int(probes == 0))


def _observe_report(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add(f"pipeline.exit.{exit_path(result)}", 1)


def _observe_graph(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("graph.edges.sum", result.edge_count)
    tracer.add("graph.edges.n", 1)


def _observe_trial(tracer: "Tracer", args, kwargs, trial) -> None:
    if trial.graph is not None:
        _observe_graph(tracer, args, kwargs, trial.graph)


# (module, attribute, span name, observer). A function is wrapped in the
# namespace of each module that calls it from another module; the bench's
# own calls go through triwalk.pipeline and triwalk.harness attributes.
TARGETS: tuple[tuple[object, str, str, Optional[Callable]], ...] = tuple(
    (module, attr, span, observe)
    for attr, span, observe, modules in (
        ("erdos_renyi", "graph.generate", _observe_graph, (triwalk.harness,)),
        ("random_bipartite", "graph.generate", _observe_graph, (triwalk.harness,)),
        ("planted_instance", "graph.generate", _observe_graph, (triwalk.harness,)),
        (
            "brute_force_triangle",
            "graph.brute_force_triangle",
            None,
            (triwalk.harness, triwalk.pipeline),
        ),
        ("sample_cover", "pairs.sample_cover", _observe_sizes, (triwalk.harness, triwalk.pipeline)),
        (
            "uncovered_pairs",
            "pairs.uncovered_pairs",
            _observe_surviving,
            (triwalk.harness, triwalk.pipeline),
        ),
        (
            "uncovered_pairs_at",
            "pairs.uncovered_pairs_at",
            None,
            (triwalk.harness, triwalk.pipeline),
        ),
        ("cover_is_sparsifying", "pairs.cover_is_sparsifying", None, (triwalk.harness,)),
        (
            "estimate_all_apexes",
            "estimator.estimate_all_apexes",
            _observe_estimator,
            (triwalk.harness, triwalk.pipeline),
        ),
        ("search_cover_triangles", "pipeline.search_cover_triangles", None, (triwalk.pipeline,)),
        ("search_blocks", "pipeline.search_blocks", None, (triwalk.pipeline,)),
        ("find_apex_witness", "pipeline.find_apex_witness", None, (triwalk.pipeline,)),
        (
            "find_triangle",
            "pipeline.find_triangle",
            _observe_report,
            (triwalk.harness, triwalk.pipeline),
        ),
        ("verify_cover_sparsity", "harness.verify_cover_sparsity", None, (triwalk.harness,)),
        ("verify_estimator_bounds", "harness.verify_estimator_bounds", None, (triwalk.harness,)),
        ("verify_subset_cap", "harness.verify_subset_cap", None, (triwalk.harness,)),
        ("correctness_suite", "harness.correctness_suite", None, (triwalk.harness,)),
        ("scaling_fit", "harness.scaling_fit", None, (triwalk.harness,)),
    )
    for module in modules
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))


class Tracer:
    """In-memory span recorder; a context manager that installs and restores wrappers.

    Span records are [name, trial, parent index, start ns, end ns, child ns].
    Counts are taken only while ``counting`` is true, so the bench can
    restrict them to a fixed window of trials that repeats exactly.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial = -1
        self.counting = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    observe_trial = staticmethod(_observe_trial)

    def add(self, key: str, amount: int) -> None:
        if self.counting:
            self.counts[key] += amount

    def span(self, name: str, fn: Callable, *args, observe=None, **kwargs):
        """Call fn inside a span called name; observe(tracer, args, kwargs, result) after."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, self.trial, parent, 0, 0, 0]
        self.spans.append(record)
        self._stack.append(idx)
        record[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += record[4] - record[3]
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def _wrap(self, fn: Callable, name: str, observe) -> Callable:
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, observe=observe, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, observe in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in ms; 0 for spans that never ran."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, _, _, start, end, child in self.spans:
            out[name] += (end - start - child) / 1e6
        return out
