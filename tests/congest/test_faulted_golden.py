"""Golden outcomes of the fault-hardened primitives under injected faults.

Run-to-run determinism alone cannot catch a scheduler change that alters
faulted outcomes: both runs of the changed code agree with each other.  This
module pins the outcomes themselves.  For every (graph, fault profile) case it
runs the BFS forest, Algorithm 1's bounded exploration and the ruling set
under the plan (with retries), and compares against committed values:

* ``attempts`` -- how many derived plans were needed (or the typed fault);
* ``faults`` -- the per-class fault counters, in
  :func:`~repro.congest.faults.fresh_fault_counters` key order;
* ``ledger`` -- the simulator ledger's summary totals;
* ``digest`` -- a content digest of the primitive's full output (forest
  ``root``/``dist``/``parent`` and run counters, exploration ``known``
  tables and popular set, the ruling set) and of every ledger charge.

The ``none`` profile is an inactive plan, so it pins the fault-free path too.
To re-record after an intended behaviour change, run this file as a script
and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import pytest

from repro.congest import (
    FaultPlan,
    LinkOutage,
    ProtocolFault,
    RoundLimitExceeded,
    Simulator,
)
from repro.congest.faults import fresh_fault_counters
from repro.graphs.generators import make_workload
from repro.primitives.bfs_forest import run_bfs_forest
from repro.primitives.exploration import run_bounded_exploration
from repro.primitives.ruling_set import run_ruling_set

GRAPHS = {"g48": (48, 3), "g64": (64, 11)}
FAULT_SEED = 7
MAX_ATTEMPTS = 3

PROFILES: Dict[str, Dict[str, object]] = {
    "none": {},
    "drops": {"drop_rate": 0.25},
    "duplicates": {"duplicate_rate": 0.3},
    "delays": {"delay_rate": 0.3, "max_delay": 2},
    "heavy-delays": {"delay_rate": 0.7, "max_delay": 4},
    "crash-sampled": {"crash_fraction": 0.1, "crash_round": 3},
    "crash-round0": {"crashes": ((0, 0), (5, 0), (17, 0))},
    "crash-later": {"crashes": ((1, 2), (16, 1), (33, 3))},
    "link-outages": {},  # filled per graph: every fifth edge down for rounds 0..2
    "mixed": {
        "drop_rate": 0.15,
        "duplicate_rate": 0.1,
        "delay_rate": 0.15,
        "max_delay": 2,
        "crash_fraction": 0.05,
        "crash_round": 4,
    },
}

PRIMITIVES = ("forest", "exploration", "ruling-set")


def _digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _plan(graph, profile: str) -> FaultPlan:
    overrides = dict(PROFILES[profile])
    if profile == "link-outages":
        edges = sorted(graph.edges())
        overrides["link_outages"] = tuple(
            LinkOutage(u, v, 0, 2) for u, v in edges[::5]
        )
    return FaultPlan(seed=FAULT_SEED, **overrides)


def _run(primitive: str, simulator: Simulator, plan: FaultPlan):
    """Run one primitive; returns ``(attempts, fault counters, output)``."""
    n = simulator.graph.num_vertices
    kwargs = {"fault_plan": plan, "max_attempts": MAX_ATTEMPTS}
    if primitive == "forest":
        sources = sorted({0, n // 3, (2 * n) // 3})
        result = run_bfs_forest(simulator, sources, depth=4, **kwargs)
        run = result.run
        output = [
            result.root,
            result.dist,
            result.parent,
            run.rounds_executed,
            run.messages_delivered,
            run.words_delivered,
            run.max_edge_congestion,
            run.congestion_violations,
            run.results,
        ]
        return result.attempts, run.fault_counters, output
    if primitive == "exploration":
        centers = list(range(0, n, 4))
        result = run_bounded_exploration(simulator, centers, depth=3, cap=3, **kwargs)
        output = [
            [sorted(d.items()) for d in result.known_dist],
            [sorted(d.items()) for d in result.known_via],
            sorted(result.popular),
            result.nominal_rounds,
            result.simulated_rounds,
            result.messages,
        ]
        return result.attempts, result.fault_counters, output
    result = run_ruling_set(simulator, range(n), q=2, c=2, **kwargs)
    output = [sorted(result.ruling_set), result.nominal_rounds, result.simulated_rounds]
    return result.attempts, result.fault_counters, output


def outcome(graph_name: str, profile: str, primitive: str) -> Dict[str, object]:
    """The pinned record of one (graph, profile, primitive) case."""
    n, seed = GRAPHS[graph_name]
    graph = make_workload("sparse_gnp", n, seed=seed)
    plan = _plan(graph, profile)
    simulator = Simulator(graph)
    try:
        attempts, counters, output = _run(primitive, simulator, plan)
    except ProtocolFault as fault:
        return {"attempts": f"{fault.reason}/{fault.attempts}"}
    keys = list(fresh_fault_counters())
    ledger = simulator.ledger
    charges = [
        [c.label, c.nominal_rounds, c.simulated_rounds, c.messages, c.words,
         c.max_edge_congestion]
        for c in ledger.charges
    ]
    return {
        "attempts": attempts,
        "faults": None if counters is None else [counters[k] for k in keys],
        "ledger": list(ledger.summary().values()),
        "digest": _digest([output, charges]),
    }


CASES: List[Tuple[str, str, str]] = [
    (g, profile, primitive)
    for g in GRAPHS
    for profile in PROFILES
    for primitive in PRIMITIVES
]

GOLDEN: Dict[str, Dict[str, object]] = {
    "g48/none/forest": {"attempts": 1, "faults": None, "ledger": [4, 4, 152, 456, 1, 1], "digest": "9ee47830d09e6141"},
    "g48/none/exploration": {"attempts": 1, "faults": None, "ledger": [10, 6, 390, 1170, 1, 3], "digest": "2aefd014c30719dd"},
    "g48/none/ruling-set": {"attempts": 1, "faults": None, "ledger": [28, 16, 190, 570, 1, 9], "digest": "8a9a884f85055159"},
    "g48/drops/forest": {"attempts": 1, "faults": [29, 0, 0, 0, 0, 0, 0], "ledger": [4, 4, 101, 303, 1, 1], "digest": "943439b4f4bddacf"},
    "g48/drops/exploration": {"attempts": 1, "faults": [66, 0, 0, 0, 0, 0, 0], "ledger": [10, 6, 209, 627, 1, 3], "digest": "48dd9cb1e5043165"},
    "g48/drops/ruling-set": {"attempts": 1, "faults": [44, 0, 0, 0, 0, 0, 0], "ledger": [28, 18, 140, 420, 1, 10], "digest": "d4e2b802e4458f34"},
    "g48/duplicates/forest": {"attempts": 1, "faults": [0, 47, 0, 0, 0, 0, 0], "ledger": [4, 4, 199, 597, 1, 1], "digest": "c37d26d96f2cebce"},
    "g48/duplicates/exploration": {"attempts": 1, "faults": [0, 122, 0, 0, 0, 0, 0], "ledger": [10, 6, 512, 1536, 1, 3], "digest": "7dff872ad14c78cd"},
    "g48/duplicates/ruling-set": {"attempts": 1, "faults": [0, 62, 0, 0, 0, 0, 0], "ledger": [28, 16, 252, 756, 1, 9], "digest": "962f08130f7f7d7c"},
    "g48/delays/forest": {"attempts": 1, "faults": [0, 0, 35, 51, 0, 0, 0], "ledger": [4, 6, 142, 426, 1, 1], "digest": "61239e8030502b75"},
    "g48/delays/exploration": {"attempts": 1, "faults": [0, 0, 106, 157, 0, 0, 0], "ledger": [10, 12, 390, 1170, 1, 3], "digest": "64c07e220f177709"},
    "g48/delays/ruling-set": {"attempts": 1, "faults": [0, 0, 51, 76, 0, 0, 0], "ledger": [28, 31, 186, 558, 1, 9], "digest": "b4245e7341262d74"},
    "g48/heavy-delays/forest": {"attempts": 1, "faults": [0, 0, 103, 249, 0, 0, 0], "ledger": [4, 12, 140, 420, 1, 1], "digest": "742ccf3f67694239"},
    "g48/heavy-delays/exploration": {"attempts": 1, "faults": [0, 0, 264, 662, 0, 0, 0], "ledger": [10, 18, 390, 1170, 1, 3], "digest": "066e0d1bc164bc23"},
    "g48/heavy-delays/ruling-set": {"attempts": 1, "faults": [0, 0, 137, 345, 0, 0, 0], "ledger": [28, 56, 191, 573, 1, 10], "digest": "d1d7a3ed035871ff"},
    "g48/crash-sampled/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 4, 10], "ledger": [4, 4, 134, 402, 1, 1], "digest": "f118145c88a32e4f"},
    "g48/crash-sampled/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 4, 25], "ledger": [10, 6, 324, 972, 1, 3], "digest": "e7d39aef48d7164d"},
    "g48/crash-sampled/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 4, 10], "ledger": [28, 14, 170, 510, 1, 8], "digest": "07057b0406728461"},
    "g48/crash-round0/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 6], "ledger": [4, 4, 90, 270, 1, 1], "digest": "101f76360f87f33d"},
    "g48/crash-round0/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 22], "ledger": [10, 6, 280, 840, 1, 3], "digest": "ea7647de4964f9a7"},
    "g48/crash-round0/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 17], "ledger": [28, 18, 186, 558, 1, 11], "digest": "fdf85de3319eb948"},
    "g48/crash-later/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 8], "ledger": [4, 4, 144, 432, 1, 1], "digest": "045df8a27beb2d87"},
    "g48/crash-later/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 19], "ledger": [10, 6, 334, 1002, 1, 3], "digest": "65053273000ccdd3"},
    "g48/crash-later/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 7], "ledger": [28, 16, 178, 534, 1, 9], "digest": "d8d4f93238c0d7e0"},
    "g48/link-outages/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 13, 0, 0], "ledger": [4, 4, 105, 315, 1, 1], "digest": "a01bec7a6fc9d7f6"},
    "g48/link-outages/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 58, 0, 0], "ledger": [10, 6, 231, 693, 1, 3], "digest": "861ebee64b6bb573"},
    "g48/link-outages/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 47, 0, 0], "ledger": [28, 18, 179, 537, 1, 10], "digest": "9b41c3d60a577ced"},
    "g48/mixed/forest": {"attempts": 1, "faults": [20, 15, 17, 23, 0, 2, 5], "ledger": [4, 6, 137, 411, 1, 1], "digest": "321b9f4b184a4419"},
    "g48/mixed/exploration": {"attempts": 1, "faults": [49, 26, 40, 59, 0, 2, 6], "ledger": [10, 10, 291, 873, 1, 3], "digest": "191b05e84058e4f0"},
    "g48/mixed/ruling-set": {"attempts": 1, "faults": [26, 24, 24, 38, 0, 2, 4], "ledger": [28, 29, 174, 522, 1, 11], "digest": "c1b7aeb0f787e1cf"},
    "g64/none/forest": {"attempts": 1, "faults": None, "ledger": [4, 4, 237, 711, 1, 1], "digest": "58f467dbfe36a9da"},
    "g64/none/exploration": {"attempts": 1, "faults": None, "ledger": [10, 7, 993, 2979, 1, 3], "digest": "936c8db5d491a294"},
    "g64/none/ruling-set": {"attempts": 1, "faults": None, "ledger": [32, 12, 218, 654, 1, 8], "digest": "bb64691449a1e24d"},
    "g64/drops/forest": {"attempts": 1, "faults": [57, 0, 0, 0, 0, 0, 0], "ledger": [4, 4, 158, 474, 1, 1], "digest": "5c6fa83886fd35b1"},
    "g64/drops/exploration": {"attempts": 1, "faults": [195, 0, 0, 0, 0, 0, 0], "ledger": [10, 7, 617, 1851, 1, 3], "digest": "e801c8eb2ccb46f8"},
    "g64/drops/ruling-set": {"attempts": 1, "faults": [54, 0, 0, 0, 0, 0, 0], "ledger": [32, 12, 167, 501, 1, 9], "digest": "0738d4ca38f4102f"},
    "g64/duplicates/forest": {"attempts": 1, "faults": [0, 80, 0, 0, 0, 0, 0], "ledger": [4, 4, 317, 951, 1, 1], "digest": "cf725f16903850c1"},
    "g64/duplicates/exploration": {"attempts": 1, "faults": [0, 298, 0, 0, 0, 0, 0], "ledger": [10, 7, 1291, 3873, 1, 3], "digest": "7477a75ccce1bb92"},
    "g64/duplicates/ruling-set": {"attempts": 1, "faults": [0, 75, 0, 0, 0, 0, 0], "ledger": [32, 12, 293, 879, 1, 8], "digest": "d8ca58f3373f9d45"},
    "g64/delays/forest": {"attempts": 1, "faults": [0, 0, 70, 106, 0, 0, 0], "ledger": [4, 8, 229, 687, 1, 1], "digest": "01100c1048c495e5"},
    "g64/delays/exploration": {"attempts": 1, "faults": [0, 0, 287, 430, 0, 0, 0], "ledger": [10, 13, 993, 2979, 1, 3], "digest": "fd713c843bc2ad5f"},
    "g64/delays/ruling-set": {"attempts": 1, "faults": [0, 0, 73, 109, 0, 0, 0], "ledger": [32, 27, 218, 654, 1, 8], "digest": "9eed6a8781f47535"},
    "g64/heavy-delays/forest": {"attempts": 1, "faults": [0, 0, 133, 324, 0, 0, 0], "ledger": [4, 14, 199, 597, 1, 1], "digest": "f92b256e429ef557"},
    "g64/heavy-delays/exploration": {"attempts": 1, "faults": [0, 0, 695, 1768, 0, 0, 0], "ledger": [10, 19, 993, 2979, 1, 3], "digest": "077deaa6ef6803ee"},
    "g64/heavy-delays/ruling-set": {"attempts": 1, "faults": [0, 0, 186, 459, 0, 0, 0], "ledger": [32, 45, 231, 693, 1, 8], "digest": "d5ecfe280d157a8d"},
    "g64/crash-sampled/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 6, 24], "ledger": [4, 4, 195, 585, 1, 1], "digest": "c12cada8a1bee28e"},
    "g64/crash-sampled/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 6, 79], "ledger": [10, 7, 717, 2151, 1, 3], "digest": "554f245a837dd0b8"},
    "g64/crash-sampled/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 6, 10], "ledger": [32, 12, 194, 582, 1, 11], "digest": "0e6bb958c039ae97"},
    "g64/crash-round0/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 7], "ledger": [4, 4, 209, 627, 1, 1], "digest": "a62de1f33363337c"},
    "g64/crash-round0/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 30], "ledger": [10, 7, 901, 2703, 1, 3], "digest": "2d9e95b430e85e78"},
    "g64/crash-round0/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 10], "ledger": [32, 12, 198, 594, 1, 11], "digest": "3b59f2a409455eeb"},
    "g64/crash-later/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 9], "ledger": [4, 4, 222, 666, 1, 1], "digest": "46f79e26e76a5eb2"},
    "g64/crash-later/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 40], "ledger": [10, 7, 902, 2706, 1, 3], "digest": "25823a2cfcab06cb"},
    "g64/crash-later/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 0, 3, 5], "ledger": [32, 14, 219, 657, 1, 9], "digest": "fdf606315bf53e75"},
    "g64/link-outages/forest": {"attempts": 1, "faults": [0, 0, 0, 0, 23, 0, 0], "ledger": [4, 4, 197, 591, 1, 1], "digest": "748c2f35c20644d4"},
    "g64/link-outages/exploration": {"attempts": 1, "faults": [0, 0, 0, 0, 163, 0, 0], "ledger": [10, 7, 659, 1977, 1, 3], "digest": "ceecabfe03ccc614"},
    "g64/link-outages/ruling-set": {"attempts": 1, "faults": [0, 0, 0, 0, 64, 0, 0], "ledger": [32, 18, 223, 669, 1, 10], "digest": "29cc24081364a979"},
    "g64/mixed/forest": {"attempts": 1, "faults": [33, 19, 17, 29, 0, 3, 10], "ledger": [4, 7, 188, 564, 1, 1], "digest": "b93fcc0241253e42"},
    "g64/mixed/exploration": {"attempts": 1, "faults": [125, 67, 106, 161, 0, 3, 28], "ledger": [10, 13, 775, 2325, 1, 3], "digest": "e2af4c7e640b9e50"},
    "g64/mixed/ruling-set": {"attempts": 1, "faults": [34, 23, 30, 49, 0, 3, 7], "ledger": [32, 24, 214, 642, 1, 9], "digest": "e85348562d081524"},
}


@pytest.mark.parametrize("graph_name,profile,primitive", CASES)
def test_faulted_outcome_matches_golden(graph_name, profile, primitive):
    key = f"{graph_name}/{profile}/{primitive}"
    assert outcome(graph_name, profile, primitive) == GOLDEN[key]


def test_golden_covers_every_fault_class():
    # Every counter class fires somewhere, and the inactive plan reports no
    # counters (the fault-free path ran).
    totals = [0] * len(fresh_fault_counters())
    for record in GOLDEN.values():
        for i, count in enumerate(record.get("faults") or ()):
            totals[i] += count
    assert all(totals), dict(zip(fresh_fault_counters(), totals))
    assert all(
        GOLDEN[f"{g}/none/{p}"]["faults"] is None for g in GRAPHS for p in PRIMITIVES
    )


class _TimeoutSimulator(Simulator):
    """Times out the first ``failures`` faulted protocol runs."""

    def __init__(self, graph, failures: int) -> None:
        super().__init__(graph)
        self.failures = failures

    def run_protocol(self, programs, **kwargs):
        if kwargs.get("fault_plan") is not None and self.failures > 0:
            self.failures -= 1
            raise RoundLimitExceeded(kwargs.get("max_rounds", 0))
        return super().run_protocol(programs, **kwargs)


class TestRetryPolicy:
    """Every hardened primitive retries timeouts under derived plans."""

    # primitive -> (default label, timeout reason)
    FAULTS = {
        "forest": ("bfs-forest", "round-timeout"),
        "exploration": ("exploration", "round-timeout"),
        "ruling-set": ("ruling-set", "knock-out-timeout"),
    }

    def _graph(self):
        return make_workload("sparse_gnp", 48, seed=3)

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_timeout_then_success_counts_attempts(self, primitive):
        plan = FaultPlan(seed=FAULT_SEED, drop_rate=0.1)
        attempts, _, _ = _run(primitive, _TimeoutSimulator(self._graph(), 1), plan)
        assert attempts == 2

    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_every_attempt_timing_out_raises_typed_fault(self, primitive):
        plan = FaultPlan(seed=FAULT_SEED, drop_rate=0.1)
        simulator = _TimeoutSimulator(self._graph(), 10**6)
        with pytest.raises(ProtocolFault) as info:
            _run(primitive, simulator, plan)
        fault = info.value
        assert (fault.label, fault.reason) == self.FAULTS[primitive]
        assert fault.attempts == MAX_ATTEMPTS


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, object]] = {")
    for case in CASES:
        record = repr(outcome(*case)).replace("'", '"')
        print(f'    "{"/".join(case)}": {record},')
    print("}")
