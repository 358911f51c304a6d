"""Spans and counters recorded around the public callables of each ``repro`` layer.

The traced run (``--trace 1``) installs thin wrappers from this file -- no
file under ``src/`` changes.  A wrapper opens a span (name, start, end,
parent id, trace id) around the call and, where the layer exposes them,
adds counters.  Spans are kept in memory and written as JSONL at exit.

Layers are the package's modules.  Functions the engines import *by name*
(``from ..primitives.exploration import centralized_engine_exploration``)
are replaced in the namespace of the module that calls them; methods are
replaced on their class.  :meth:`Instrumentation.uninstall` restores every
original attribute.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`); the per-layer table sums self times,
so nested layers are never double counted.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from concurrent.futures import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout: a list, mutated in place while the span is open.
SID, PARENT, NAME, START, END, TRACE = range(6)


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self, max_kept_spans: int = 200_000) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.kept: List[list] = []
        self.max_kept_spans = max_kept_spans
        self.dropped_spans = 0
        self._stack: List[list] = []
        self._root_marks: List[int] = []
        self._next_sid = 0
        self._root_seq: Dict[str, int] = defaultdict(int)
        #: Index of the unit being recorded (advanced by :meth:`take_unit`).
        self.unit = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        self._next_sid += 1
        parent = self._stack[-1][SID] if self._stack else None
        span = [self._next_sid, parent, name, time.perf_counter(), 0.0, None]
        if parent is None:
            self._root_marks.append(len(self.spans))
        self._stack.append(span)
        return span

    def close(self, span: list, trace: Optional[str] = None) -> None:
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")
        self.spans.append(span)
        if span[PARENT] is None:
            mark = self._root_marks.pop()
            if trace is None:
                self._root_seq[span[NAME]] += 1
                trace = f"{span[NAME]}-{self._root_seq[span[NAME]]}"
            # Every span finished since the root opened is its descendant.
            for index in range(mark, len(self.spans)):
                self.spans[index][TRACE] = trace

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def take_unit(self) -> Tuple[List[list], Dict[str, float]]:
        """Hand over the spans and counters recorded since the last call."""
        if self._stack:
            raise RuntimeError("take_unit called with open spans")
        spans, counters = self.spans, dict(self.counters)
        room = self.max_kept_spans - len(self.kept)
        self.kept.extend(spans[: max(room, 0)])
        self.dropped_spans += max(len(spans) - max(room, 0), 0)
        self.spans = []
        self.counters = defaultdict(float)
        self.unit += 1
        return spans, counters

    def write_jsonl(self, path) -> int:
        """Write the kept spans as JSON lines; returns the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.kept:
                handle.write(
                    json.dumps(
                        {
                            "id": span[SID],
                            "parent": span[PARENT],
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "trace": span[TRACE],
                        }
                    )
                    + "\n"
                )
        return len(self.kept)


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to the parent's interval and overlapping children
    are merged, so concurrent or ill-nested children never drive a self time
    below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[SID], ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[SID]] = (end - start) - covered
    return result


def span_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own[span[SID]]
    return dict(totals)


def child_total(spans: Sequence[list], child: str, parent: str) -> float:
    """Inclusive seconds of ``child`` spans whose direct parent is a ``parent`` span."""
    parents = {span[SID] for span in spans if span[NAME] == parent}
    return sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] == child and span[PARENT] in parents
    )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _spanned(
    recorder: Recorder,
    name: str,
    func: Callable,
    after: Optional[Callable] = None,
    trace_of: Optional[Callable] = None,
) -> Callable:
    """``func`` wrapped in a span; ``after(args, result)`` adds counters,
    ``trace_of(args, result)`` names the trace when the span is a root."""

    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            recorder.close(span)
            raise
        if after is not None:
            after(args, result)
        recorder.close(span, trace_of(args, result) if trace_of is not None else None)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    return wrapper


class Instrumentation:
    """Installs and removes the layer wrappers for one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, after=None, trace_of=None) -> None:
        func = getattr(module, attr)
        self._replace(module, attr, _spanned(self.recorder, name, func, after, trace_of))

    def wrap_method(self, cls, attr: str, name: str, after=None, trace_of=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                _spanned(self.recorder, name, raw.__func__, after, trace_of)
            )
        else:
            wrapped = _spanned(self.recorder, name, raw, after, trace_of)
        self._replace(cls, attr, wrapped)

    def wrap_public_methods(self, cls, name: str) -> None:
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod) or (
                callable(raw) and not isinstance(raw, (staticmethod, type))
            ):
                self.wrap_method(cls, attr, name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The layer map
    # ------------------------------------------------------------------
    def install(self) -> "Instrumentation":
        """Wrap the public callables of every layer of ``repro``."""
        from repro.algorithms.registry import AlgorithmSpec
        from repro.analysis import stretch as stretch_module
        from repro.congest.simulator import Simulator
        from repro.core import centralized, distributed, spanner
        from repro.core.certificate import SpannerCertificate
        from repro.core.cluster_table import ClusterTable
        from repro.dynamic.maintenance import DynamicSpanner
        from repro.experiments.store import ResultStore
        from repro.graphs.csr import CSRGraph
        from repro.graphs.distances import DistanceCache
        from repro.graphs.graph import Graph
        from repro.serve import tasks as serve_tasks
        from repro.serve.service import SpannerService

        rec = self.recorder

        # graphs -------------------------------------------------------
        self.wrap_method(Graph, "add_edges", "graphs.add_edges")
        self.wrap_method(CSRGraph, "from_graph", "graphs.csr")
        vector = DistanceCache.__dict__["vector"]
        bfs = _spanned(rec, "graphs.bfs", vector)

        def cached_vector(cache, source):
            if source in cache:
                rec.counters["graphs.cache_hits"] += 1
                return vector(cache, source)
            rec.counters["graphs.cache_misses"] += 1
            return bfs(cache, source)

        self._replace(DistanceCache, "vector", cached_vector)
        invalidate = Graph.__dict__["_invalidate"]

        def counted_invalidate(graph):
            # Only a mutation that drops a built CSR snapshot or distance
            # cache costs anything downstream.
            if graph._csr is not None or graph._dcache is not None:
                rec.counters["graphs.invalidations"] += 1
            return invalidate(graph)

        self._replace(Graph, "_invalidate", counted_invalidate)

        # primitives, called by name from the two engines ----------------
        for module, attr, name in (
            (centralized, "centralized_engine_exploration", "primitives.exploration"),
            (centralized, "centralized_ruling_set", "primitives.ruling_set"),
            (centralized, "deterministic_forest", "primitives.bfs_forest"),
            (centralized, "centralized_traceback_flat", "primitives.traceback"),
            (distributed, "run_bounded_exploration", "primitives.exploration"),
            (distributed, "run_ruling_set", "primitives.ruling_set"),
            (distributed, "run_bfs_forest", "primitives.bfs_forest"),
            (distributed, "run_forest_path_markup", "primitives.traceback"),
            (distributed, "run_traceback", "primitives.traceback"),
        ):
            self.wrap_function(module, attr, name)

        # core -----------------------------------------------------------
        self.wrap_function(spanner, "build_spanner_centralized", "core.driver")
        self.wrap_function(spanner, "build_spanner_distributed", "core.driver")
        self.wrap_public_methods(ClusterTable, "core.cluster_table")
        self.wrap_method(SpannerCertificate, "record", "core.certificate")

        # congest ----------------------------------------------------------
        self.wrap_method(Simulator, "run_protocol", "congest.run_protocol")

        # algorithms: build outcomes feed the core and congest counters ----
        def after_run(_args, run) -> None:
            rec.count("algorithms.builds")
            rec.count("algorithms.graph_edges", run.graph.num_edges)
            rec.count("algorithms.spanner_edges", run.num_edges)
            for phase in run.phases:
                rec.count("core.popular_clusters", phase.get("num_popular", 0))
                rec.count("core.cluster_merges", phase.get("cluster_merges", 0))
            if run.ledger_summary:
                for key in ("messages", "words", "simulated_rounds"):
                    rec.count(f"congest.{key}", run.ledger_summary[key])

        self.wrap_method(AlgorithmSpec, "run", "algorithms.run", after=after_run)

        # analysis -----------------------------------------------------------
        def after_stretch(_args, report) -> None:
            rec.count("analysis.pairs_checked", report.pairs_checked)

        stretch = _spanned(rec, "analysis.stretch", stretch_module.evaluate_stretch, after_stretch)
        self._replace(stretch_module, "evaluate_stretch", stretch)
        self._replace(serve_tasks, "evaluate_stretch", stretch)

        # experiments (the store) --------------------------------------------
        def after_get(_args, payload) -> None:
            rec.count("experiments.store_hits" if payload is not None else "experiments.store_misses")

        self.wrap_method(ResultStore, "get", "experiments.store_get", after=after_get)
        self.wrap_method(ResultStore, "put", "experiments.store_put")

        # serve: one trace id per request, shared by its submit and resolve --
        self.wrap_method(
            SpannerService,
            "submit",
            "serve.submit",
            trace_of=lambda _args, ticket: f"req-{ticket.index}",
        )
        resolve = SpannerService.__dict__["resolve"]

        def traced_resolve(service, ticket):
            span = rec.open("serve.resolve")
            try:
                future = ticket.future
                if ticket.response is None and future is not None and not future.done():
                    waiting = rec.open("serve.pool_wait")
                    wait([future])
                    rec.close(waiting)
                response = resolve(service, ticket)
            finally:
                rec.close(span, f"req-{ticket.index}")
            return response

        self._replace(SpannerService, "resolve", traced_resolve)

        # dynamic: one trace id per churn step ---------------------------------
        def after_maintain(_args, record) -> None:
            rec.count("dynamic.work_units", record.work_units)
            rec.count(f"dynamic.{record.decision}")

        self.wrap_method(
            DynamicSpanner,
            "maintain",
            "dynamic.maintain",
            after=after_maintain,
            trace_of=lambda _args, record: f"step-{rec.unit}-{record.step}",
        )
        return self


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (the text before the first dot)."""
    return span_name.split(".", 1)[0]


def layer_table(totals: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts summed per layer."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, entry in totals.items():
        row = table[layer_of(name)]
        row["calls"] += entry["calls"]
        row["self_s"] += entry["self_s"]
    return dict(table)
