"""Tests for the deterministic fault-injection layer (congest/faults.py)."""

from __future__ import annotations

from typing import List

import pytest

from repro.congest import (
    CongestionViolation,
    FaultPlan,
    LinkOutage,
    Message,
    NodeContext,
    NodeProgram,
    ProtocolFault,
    RecordingTracer,
    RoundLimitExceeded,
    Simulator,
    fault_round_limit,
)
from repro.congest.faults import fresh_fault_counters, run_with_retries
from repro.graphs import cycle_graph, path_graph
from repro.primitives.bfs_forest import run_bfs_forest


# ----------------------------------------------------------------------
# FaultPlan determinism and validation
# ----------------------------------------------------------------------
def test_same_seed_same_schedule():
    a = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.4, max_delay=3)
    b = FaultPlan(seed=7, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.4, max_delay=3)
    events = [(r, s, t, c) for r in range(5) for s in range(4) for t in range(4) for c in range(2)]
    assert [a.drops(*e) for e in events] == [b.drops(*e) for e in events]
    assert [a.duplicates(*e) for e in events] == [b.duplicates(*e) for e in events]
    assert [a.delay(*e) for e in events] == [b.delay(*e) for e in events]


def test_different_seed_different_schedule():
    a = FaultPlan(seed=1, drop_rate=0.5)
    b = FaultPlan(seed=2, drop_rate=0.5)
    events = [(r, s, t, 0) for r in range(20) for s in range(5) for t in range(5)]
    assert [a.drops(*e) for e in events] != [b.drops(*e) for e in events]


def test_rates_roughly_respected():
    plan = FaultPlan(seed=11, drop_rate=0.25)
    events = [(r, s, t, 0) for r in range(40) for s in range(10) for t in range(10)]
    hit = sum(plan.drops(*e) for e in events)
    assert 0.18 < hit / len(events) < 0.32


def test_delay_bounds():
    plan = FaultPlan(seed=3, delay_rate=1.0, max_delay=4)
    delays = {plan.delay(r, s, t, 0) for r in range(10) for s in range(5) for t in range(5)}
    assert delays <= {1, 2, 3, 4}
    assert len(delays) > 1


def test_validation_errors():
    with pytest.raises(ValueError):
        FaultPlan(seed=0, drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, delay_rate=0.5)  # max_delay missing
    with pytest.raises(ValueError):
        FaultPlan(seed=0, max_delay=-1)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, crash_round=0)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, crashes={3: -1})


def test_inactive_plan():
    assert not FaultPlan(seed=5).active
    assert FaultPlan(seed=5, drop_rate=0.1).active
    assert FaultPlan(seed=5, crashes={0: 2}).active
    assert FaultPlan(seed=5, link_outages=[LinkOutage(0, 1, 0, 3)]).active


def test_crash_schedule_sampling():
    plan = FaultPlan(seed=9, crash_fraction=0.25, crash_round=5)
    schedule = plan.crash_schedule(40)
    assert len(schedule) == 10
    assert all(1 <= r <= 5 for r in schedule.values())
    assert schedule == plan.crash_schedule(40)
    # Explicit crashes override sampling.
    explicit = FaultPlan(seed=9, crash_fraction=0.25, crash_round=5, crashes={0: 7})
    assert explicit.crash_schedule(40)[0] == 7


def test_link_down_symmetric_interval():
    plan = FaultPlan(seed=0, link_outages=[LinkOutage(2, 5, 3, 6)])
    assert not plan.link_down(2, 2, 5)
    assert plan.link_down(3, 2, 5)
    assert plan.link_down(6, 5, 2)
    assert not plan.link_down(7, 2, 5)
    assert not plan.link_down(4, 2, 4)


def test_retry_derives_new_schedule():
    plan = FaultPlan(seed=13, drop_rate=0.5)
    assert plan.retry(0) is plan
    retry1 = plan.retry(1)
    assert retry1.seed != plan.seed
    assert retry1.drop_rate == plan.drop_rate
    assert plan.retry(1) == retry1  # deterministic derivation
    assert plan.retry(2) != retry1


def test_run_with_retries_passes_derived_plans_and_attempt_numbers():
    plan = FaultPlan(seed=13, drop_rate=0.5)
    seen = []

    def attempt(p, number):
        seen.append((p, number))
        if number < 3:
            raise RoundLimitExceeded(1)
        return "ok"

    assert run_with_retries(attempt, plan, 5, "lbl", "why") == "ok"
    assert seen == [(plan.retry(0), 1), (plan.retry(1), 2), (plan.retry(2), 3)]


def test_run_with_retries_raises_typed_fault_after_last_attempt():
    def attempt(p, number):
        raise RoundLimitExceeded(1)

    with pytest.raises(ProtocolFault) as info:
        run_with_retries(attempt, FaultPlan(seed=1, drop_rate=0.1), 0, "lbl", "why")
    assert (info.value.label, info.value.reason, info.value.attempts) == ("lbl", "why", 1)


def test_run_with_retries_lets_other_errors_through():
    def attempt(p, number):
        raise ValueError("not a timeout")

    with pytest.raises(ValueError):
        run_with_retries(attempt, FaultPlan(seed=1, drop_rate=0.1), 3, "lbl", "why")


def test_sub_protocol_projects_crashes_onto_local_rounds():
    plan = FaultPlan(seed=3, drop_rate=0.2, crash_fraction=0.5, crash_round=9)
    sub = plan.sub_protocol(4, {1: 2, 2: 5, 3: 7, 4: 9}, start=5, length=3)
    assert sub.seed == plan.derive(4).seed
    assert sub.drop_rate == plan.drop_rate
    assert sub.crash_fraction == 0.0
    # dead before the window, dies inside it, crashes after it (omitted)
    assert sub.crashes == ((1, 0), (2, 0), (3, 2))


def test_describe_round_trip():
    plan = FaultPlan(
        seed=21,
        drop_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.2,
        max_delay=3,
        crash_fraction=0.1,
        crash_round=4,
        crashes={2: 3},
        link_outages=[LinkOutage(0, 1, 1, 2)],
    )
    rebuilt = FaultPlan.from_dict(plan.describe())
    assert rebuilt == plan
    import json

    json.dumps(plan.describe())  # JSON-safe


def test_fault_round_limit_scales_with_delay():
    base = fault_round_limit(10, None)
    delayed = fault_round_limit(10, FaultPlan(seed=0, delay_rate=0.5, max_delay=3))
    assert delayed > base >= 10


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
def _forest(graph, sources, depth, plan=None):
    simulator = Simulator(graph)
    n = graph.num_vertices
    root: List = [None] * n
    dist: List = [None] * n
    parent: List = [None] * n
    from repro.primitives.bfs_forest import _ForestProgram

    programs = [_ForestProgram(v, v in set(sources), depth, (root, dist, parent)) for v in range(n)]
    run = simulator.run_protocol(programs, label="forest", nominal_rounds=depth, fault_plan=plan)
    return run, root, dist, parent


def test_no_plan_and_inactive_plan_identical():
    graph = cycle_graph(12)
    run_none, root_none, dist_none, _ = _forest(graph, [0], 4, plan=None)
    run_inactive, root_inactive, dist_inactive, _ = _forest(graph, [0], 4, plan=FaultPlan(seed=99))
    assert run_none.fault_counters is None
    assert run_inactive.fault_counters is None  # inactive plan takes the fault-free path
    assert (run_none.rounds_executed, run_none.messages_delivered, run_none.words_delivered) == (
        run_inactive.rounds_executed,
        run_inactive.messages_delivered,
        run_inactive.words_delivered,
    )
    assert root_none == root_inactive and dist_none == dist_inactive


def test_faulted_run_is_deterministic():
    graph = cycle_graph(16)
    plan = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.3, max_delay=2)
    run_a, root_a, dist_a, parent_a = _forest(graph, [0, 8], 5, plan)
    run_b, root_b, dist_b, parent_b = _forest(graph, [0, 8], 5, plan)
    assert run_a.fault_counters == run_b.fault_counters
    assert (root_a, dist_a, parent_a) == (root_b, dist_b, parent_b)
    assert run_a.rounds_executed == run_b.rounds_executed
    assert run_a.messages_delivered == run_b.messages_delivered


def test_drop_everything_strands_non_sources():
    graph = path_graph(8)
    plan = FaultPlan(seed=1, drop_rate=1.0)
    run, root, dist, _ = _forest(graph, [3], 4, plan)
    assert root == [None, None, None, 3, None, None, None, None]
    assert run.fault_counters["dropped"] > 0
    assert run.messages_delivered == 0


def test_duplicates_count_and_do_not_break_forest():
    graph = path_graph(6)
    clean_run, clean_root, clean_dist, _ = _forest(graph, [0], 5, None)
    plan = FaultPlan(seed=2, duplicate_rate=1.0)
    run, root, dist, _ = _forest(graph, [0], 5, plan)
    # Duplicates are harmless to the forest; labels match the clean run.
    assert root == clean_root and dist == clean_dist
    assert run.fault_counters["duplicated"] > 0
    assert run.messages_delivered > clean_run.messages_delivered


def test_delays_keep_parents_real_edges():
    graph = cycle_graph(10)
    plan = FaultPlan(seed=5, delay_rate=1.0, max_delay=3)
    _, root, dist, parent = _forest(graph, [0], 9, plan)
    neighbors = {v: set(graph.neighbors(v)) for v in range(10)}
    for v in range(10):
        if parent[v] is not None:
            assert parent[v] in neighbors[v]
            assert dist[v] == dist[parent[v]] + 1


def test_crash_stop_node_never_participates():
    graph = path_graph(6)
    plan = FaultPlan(seed=0, crashes={2: 0})  # crashed before round 0
    run, root, dist, _ = _forest(graph, [0], 5, plan)
    # Node 2 never forwards, so the chain stops at node 1.
    assert root[:3] == [0, 0, None]
    assert root[3:] == [None, None, None]
    assert run.fault_counters["crashed_nodes"] == 1
    assert run.fault_counters["lost_to_crash"] > 0


def test_crash_at_later_round_forwards_first():
    graph = path_graph(6)
    plan = FaultPlan(seed=0, crashes={2: 3})  # alive for rounds 0..2
    _, root, dist, _ = _forest(graph, [0], 5, plan)
    # Node 2 hears at round 2, forwards, then crashes: the chain survives.
    assert root == [0] * 6
    assert dist == [0, 1, 2, 3, 4, 5]


def test_link_outage_blocks_edge_both_ways():
    graph = path_graph(4)
    plan = FaultPlan(seed=0, link_outages=[LinkOutage(1, 2, 0, 100)])
    run, root, _, _ = _forest(graph, [0], 3, plan)
    assert root == [0, 0, None, None]
    assert run.fault_counters["link_down"] > 0


def test_congestion_audit_is_pre_fault():
    class DoubleSend(NodeProgram):
        def __init__(self, node_id: int) -> None:
            self.node_id = node_id

        def on_start(self, ctx: NodeContext) -> None:
            if self.node_id == 0:
                ctx.send(1, "a")
                ctx.send(1, "b")

        def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
            return None

    graph = path_graph(2)
    simulator = Simulator(graph)
    # Even with every message dropped, the attempted sends violate bandwidth.
    plan = FaultPlan(seed=0, drop_rate=1.0)
    with pytest.raises(CongestionViolation):
        simulator.run_protocol([DoubleSend(0), DoubleSend(1)], fault_plan=plan)


def test_injected_duplicates_do_not_violate_bandwidth():
    graph = path_graph(3)
    plan = FaultPlan(seed=0, duplicate_rate=1.0)
    run, _, _, _ = _forest(graph, [0], 2, plan)
    assert run.congestion_violations == []
    assert run.max_edge_congestion == 1  # audit sees the attempted single send


def test_round_limit_in_fault_mode():
    class Chatterbox(NodeProgram):
        def __init__(self, node_id: int) -> None:
            self.node_id = node_id

        def on_start(self, ctx: NodeContext) -> None:
            ctx.broadcast("tick")

        def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
            ctx.broadcast("tock")

    graph = cycle_graph(4)
    simulator = Simulator(graph)
    plan = FaultPlan(seed=0, drop_rate=0.1)
    with pytest.raises(RoundLimitExceeded):
        simulator.run_protocol(
            [Chatterbox(v) for v in range(4)], max_rounds=10, fault_plan=plan
        )
    # The simulator scrubs the aborted run; a fresh protocol still works.
    run, root, _, _ = _forest(graph, [0], 4, None)
    assert root == [0, 0, 0, 0]


def test_tracer_sees_fault_mode_rounds():
    graph = path_graph(5)
    tracer = RecordingTracer()
    simulator = Simulator(graph, tracer=tracer)
    from repro.primitives.bfs_forest import _ForestProgram

    n = 5
    shared = ([None] * n, [None] * n, [None] * n)
    programs = [_ForestProgram(v, v == 0, 4, shared) for v in range(n)]
    simulator.run_protocol(programs, fault_plan=FaultPlan(seed=3, duplicate_rate=0.5))
    assert tracer.events  # fault scheduler reports per-round deliveries


def test_fresh_counters_shape():
    counters = fresh_fault_counters()
    assert set(counters) == {
        "dropped",
        "duplicated",
        "delayed",
        "delay_rounds",
        "link_down",
        "crashed_nodes",
        "lost_to_crash",
    }
    assert all(v == 0 for v in counters.values())


def test_run_bfs_forest_accepts_plan_and_counts():
    graph = cycle_graph(12)
    simulator = Simulator(graph)
    forest = run_bfs_forest(
        simulator, sources=[0], depth=6, fault_plan=FaultPlan(seed=8, drop_rate=0.4)
    )
    assert forest.run.fault_counters is not None
    assert forest.run.fault_counters["dropped"] > 0
