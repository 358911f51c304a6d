"""Self-time arithmetic, trace ids and the install/uninstall contract of the wrappers."""

import pytest

from perfbench.tracing import (
    END,
    NAME,
    PARENT,
    START,
    TRACE,
    Instrumentation,
    Recorder,
    child_total,
    layer_table,
    self_times,
    span_totals,
)


def span(sid, parent, name, start, end):
    return [sid, parent, name, start, end, None]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(1, None, "a.root", 0.0, 10.0),
        span(2, 1, "b.child", 1.0, 3.0),
        span(3, 1, "b.child", 2.0, 5.0),  # overlaps the first child
        span(4, 1, "c.child", 9.0, 12.0),  # runs past the parent's end
        span(5, 2, "d.grandchild", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_self_times_of_a_sequential_tree_sum_to_the_root_duration():
    spans = [
        span(1, None, "core.driver", 0.0, 8.0),
        span(2, 1, "primitives.exploration", 1.0, 4.0),
        span(3, 2, "graphs.csr", 1.5, 2.0),
        span(4, 1, "graphs.add_edges", 5.0, 6.0),
    ]
    totals = span_totals(spans)
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(8.0)
    layers = layer_table(totals)
    assert layers["graphs"]["self_s"] == pytest.approx(1.5)
    assert layers["graphs"]["calls"] == 2
    assert layers["primitives"]["self_s"] == pytest.approx(2.5)
    assert child_total(spans, "graphs.add_edges", "core.driver") == pytest.approx(1.0)
    assert child_total(spans, "graphs.csr", "core.driver") == 0.0


def test_recorder_nests_spans_and_shares_the_root_trace_id():
    recorder = Recorder()
    root = recorder.open("serve.submit")
    child = recorder.open("experiments.store_get")
    recorder.close(child)
    recorder.close(root, "req-7")
    other = recorder.open("serve.resolve")
    recorder.close(other)
    spans, _ = recorder.take_unit()
    assert [s[NAME] for s in spans] == ["experiments.store_get", "serve.submit", "serve.resolve"]
    assert spans[0][PARENT] == spans[1][0]
    assert spans[0][TRACE] == spans[1][TRACE] == "req-7"
    assert spans[2][TRACE] == "serve.resolve-1"
    assert all(s[END] >= s[START] for s in spans)
    assert recorder.spans == [] and len(recorder.kept) == 3


def test_instrumentation_records_layers_and_leaves_outputs_unchanged():
    from repro import build
    from repro.graphs.generators import sparse_gnp_random_graph
    from repro.graphs.graph import Graph

    def spanner_edges():
        graph = sparse_gnp_random_graph(300, 0.1, seed=3)
        return sorted(build("new-centralized", graph).spanner.edge_set())

    original = Graph.__dict__["add_edges"]
    untraced = spanner_edges()
    recorder = Recorder()
    instrumentation = Instrumentation(recorder).install()
    try:
        traced = spanner_edges()
    finally:
        instrumentation.uninstall()
    assert traced == untraced
    assert Graph.__dict__["add_edges"] is original
    spans, counters = recorder.take_unit()
    layers = {s[NAME].split(".")[0] for s in spans}
    assert {"algorithms", "core", "primitives", "graphs"} <= layers
    assert counters["algorithms.builds"] == 1
    assert counters["core.cluster_merges"] > 0
