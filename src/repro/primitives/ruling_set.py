"""Deterministic distributed ruling sets (paper Theorem 2.2, [SEW13]/[KMW18]).

Given a vertex set ``W`` and parameters ``q >= 1`` and an integer ``c >= 1``,
the procedure computes an ``(q+1, c*q)``-ruling set ``RS`` for ``W``:

* (separation)  every two distinct vertices of ``RS`` are at distance >= q+1;
* (domination)  every vertex of ``W`` has a vertex of ``RS`` within distance
  ``c*q``.

The construction is the classical digit-by-digit one that realizes the
[SEW13]/[KMW18] bound: vertex IDs are read as ``c`` digits in base
``b = ceil(n^(1/c))``.  The algorithm processes the digit positions one at a
time; within a position it processes the ``b`` digit values from the largest
to the smallest.  When value ``d`` is processed, every still-active candidate
whose current digit equals ``d`` joins the position's selected set ``T`` and a
depth-``q`` BFS is issued from the newly selected vertices; every still-active
candidate reached by that BFS (and not itself in ``T``) is knocked out.  After
all values are processed the active set becomes ``T`` and the next digit
position starts.  Survivors after the last position form ``RS``.

*Separation*: two survivors must differ in some digit position; at the first
processed position where they differ, the one with the larger digit is already
in ``T`` when the other one's value is processed, so if they were within
distance ``q`` the latter would have been knocked out.

*Domination*: a knocked-out candidate is within ``q`` of a vertex that
survives the current position; following such links crosses each of the ``c``
positions at most once, giving distance at most ``c*q``.

*Round complexity*: ``c`` positions x ``b`` values x a depth-``q`` BFS, i.e.
``O(q * c * n^(1/c))`` rounds -- exactly Theorem 2.2.  Digit values for which
no candidate exists consume their scheduled rounds idly; the simulator skips
them as a wall-clock optimization but the nominal cost charged to the ledger
is the full schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..congest.errors import ProtocolFault
from ..congest.faults import FaultPlan, fresh_fault_counters, run_with_retries
from ..congest.simulator import Simulator
from ..graphs.bfs import _flat_bfs_distances, frontier_forest
from ..kernels import use_numpy
from .bfs_forest import run_bfs_forest


@dataclass
class RulingSetResult:
    """Outcome of the deterministic ruling-set construction.

    Attributes
    ----------
    ruling_set:
        The computed set ``RS``.
    candidates:
        The input set ``W`` (sorted).
    q / c / base:
        Parameters: separation parameter, digit count, digit base.
    separation:
        Guaranteed minimum pairwise distance (``q + 1``).
    domination_radius:
        Guaranteed maximum distance of a candidate from ``RS`` (``c * q``).
    nominal_rounds:
        Scheduled rounds: ``c * base * q``.
    """

    ruling_set: Set[int]
    candidates: List[int]
    q: int
    c: int
    base: int
    separation: int
    domination_radius: int
    nominal_rounds: int
    simulated_rounds: int = 0
    attempts: int = 1
    fault_counters: Optional[Dict[str, int]] = None


def id_digits(vertex_id: int, base: int, num_digits: int) -> Tuple[int, ...]:
    """Return ``vertex_id`` written as ``num_digits`` digits in ``base`` (most significant first)."""
    if base < 2:
        base = 2
    digits = []
    value = vertex_id
    for _ in range(num_digits):
        digits.append(value % base)
        value //= base
    return tuple(reversed(digits))


def _digit_base(num_vertices: int, c: int) -> int:
    """The digit base ``b = ceil(n^(1/c))`` (at least 2)."""
    if num_vertices <= 1:
        return 2
    return max(2, math.ceil(num_vertices ** (1.0 / c)))


def _checked_candidates(n: int, candidates: Iterable[int], q: int, c: int) -> List[int]:
    """The sorted distinct candidates, after the checks both variants share."""
    candidate_list = sorted(set(candidates))
    for v in candidate_list:
        if not 0 <= v < n:
            raise ValueError(f"candidate {v} out of range")
    if q < 1:
        raise ValueError("q must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    return candidate_list


def _digit_scan(
    num_vertices: int,
    candidate_list: List[int],
    base: int,
    c: int,
    knock_out,
) -> List[int]:
    """The shared flat digit scan both ruling-set variants run.

    Candidates are bucketed by their current digit in one sweep per position
    (no per-candidate digit tuples, no per-value scans over a shrinking set);
    liveness is a dense flag array.  ``knock_out(position, value, group)``
    runs the depth-``q`` reachability step for a selected value group (a
    CONGEST BFS forest or the centralized kernel) and returns a
    ``reached(v) -> bool`` predicate; both variants must knock out exactly
    the same candidates for the engines to agree.  Returns the survivors
    (the ruling set), sorted.
    """
    active: List[int] = list(candidate_list)
    alive = bytearray(num_vertices)
    for position in range(c):
        if not active:
            break
        shift = base ** (c - 1 - position)
        buckets: List[List[int]] = [[] for _ in range(base)]
        for v in active:
            buckets[(v // shift) % base].append(v)
            alive[v] = 1
        selected: List[int] = []
        remaining_count = len(active)
        for value in range(base - 1, -1, -1):
            group = [v for v in buckets[value] if alive[v]]
            if not group:
                continue
            selected.extend(group)
            for v in group:
                alive[v] = 0
            remaining_count -= len(group)
            if not remaining_count:
                # Nobody left to knock out at this position.
                continue
            reached = knock_out(position, value, group)
            for lower in range(value):
                for v in buckets[lower]:
                    if alive[v] and reached(v):
                        alive[v] = 0
                        remaining_count -= 1
        selected.sort()
        active = selected
    return active


def run_ruling_set(
    simulator: Simulator,
    candidates: Iterable[int],
    q: int,
    c: int,
    label: str = "ruling-set",
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> RulingSetResult:
    """Compute a ``(q+1, c*q)``-ruling set for ``candidates`` on the simulator.

    The per-value knock-out BFS runs as a genuine CONGEST protocol; the digit
    schedule itself depends only on ``n``, ``q`` and ``c`` (global knowledge)
    and on each candidate's own ID (local knowledge), so coordinating it does
    not require communication.

    ``fault_plan`` runs every knock-out BFS under an injected fault schedule;
    the plan's crash schedule is computed once against the nominal global
    round numbering and projected onto each knock-out, so a crash-stopped
    node stays dead for the rest of the construction.  The whole construction
    is retried up to ``max_attempts`` times under derived plans; when every
    attempt fails a typed :class:`~repro.congest.errors.ProtocolFault` is
    raised.  Under faults a knock-out still only ever reaches vertices via
    real paths of length <= ``q``, so the *domination* guarantee survives;
    lost knock-out messages can leave extra survivors, so *separation* may
    degrade.
    """
    graph = simulator.graph
    n = graph.num_vertices
    candidate_list = _checked_candidates(n, candidates, q, c)
    base = _digit_base(n, c)
    if fault_plan is None or not fault_plan.active:
        return _run_ruling_set_once(
            simulator, n, candidate_list, q, c, base, label, None, 1
        )
    # A knock-out forest that times out raises ProtocolFault itself.
    return run_with_retries(
        partial(_run_ruling_set_once, simulator, n, candidate_list, q, c, base, label),
        fault_plan, max_attempts, label, "knock-out-timeout", retry_on=ProtocolFault,
    )


def _run_ruling_set_once(
    simulator: Simulator,
    n: int,
    candidate_list: List[int],
    q: int,
    c: int,
    base: int,
    label: str,
    plan: Optional[FaultPlan],
    attempt_number: int,
) -> RulingSetResult:
    """One (possibly faulted) execution of the digit-by-digit construction."""
    nominal_rounds = c * base * q
    rounds = {"simulated": 0, "charged": 0}
    crash_at = plan.crash_schedule(n) if plan is not None else {}
    fault_totals = None
    if plan is not None:
        fault_totals = fresh_fault_counters()
        fault_totals["crashed_nodes"] = len(crash_at)

    def knock_out(position: int, value: int, group: List[int]):
        ko_plan = None
        if plan is not None:
            ko_plan = plan.sub_protocol(
                1_000_003 * (position + 1) + value, crash_at, rounds["charged"], q
            )
        forest = run_bfs_forest(
            simulator,
            sources=group,
            depth=q,
            label=f"{label}:pos{position}:val{value}",
            collect_node_results=False,
            fault_plan=ko_plan,
        )
        rounds["simulated"] += forest.run.rounds_executed
        rounds["charged"] += forest.nominal_rounds
        if fault_totals is not None and forest.run.fault_counters is not None:
            for key, count in forest.run.fault_counters.items():
                if key != "crashed_nodes":
                    fault_totals[key] += count
        root = forest.root
        return lambda v: root[v] is not None

    active = _digit_scan(n, candidate_list, base, c, knock_out)

    # Charge the idle part of the schedule so the ledger totals the paper's
    # O(q * c * n^{1/c}) figure.
    idle_rounds = max(0, nominal_rounds - rounds["charged"])
    if idle_rounds:
        simulator.ledger.charge(label=f"{label}:idle-schedule", nominal_rounds=idle_rounds)

    return RulingSetResult(
        ruling_set=set(active),
        candidates=candidate_list,
        q=q,
        c=c,
        base=base,
        separation=q + 1,
        domination_radius=c * q,
        nominal_rounds=nominal_rounds,
        simulated_rounds=rounds["simulated"],
        attempts=attempt_number,
        fault_counters=fault_totals,
    )


def centralized_ruling_set(
    graph,
    candidates: Iterable[int],
    q: int,
    c: int,
) -> RulingSetResult:
    """Centralized reference implementation of the same digit-by-digit procedure.

    Produces exactly the same set as :func:`run_ruling_set` (the construction
    is deterministic), using centralized BFS instead of the simulator.
    """
    n = graph.num_vertices
    candidate_list = _checked_candidates(n, candidates, q, c)
    base = _digit_base(n, c)

    # The same shared digit scan as :func:`run_ruling_set`, with the
    # centralized BFS kernel doing the knock-outs.
    vectorized = use_numpy(n)

    def knock_out(_position: int, _value: int, group: List[int]):
        if vectorized:
            reached_dist = frontier_forest(graph.csr(), group, max_depth=q)[1]
        else:
            reached_dist, _ = _flat_bfs_distances(graph, group, max_depth=q)
        return lambda v: reached_dist[v] >= 0

    active = _digit_scan(n, candidate_list, base, c, knock_out)

    return RulingSetResult(
        ruling_set=set(active),
        candidates=candidate_list,
        q=q,
        c=c,
        base=base,
        separation=q + 1,
        domination_radius=c * q,
        nominal_rounds=c * base * q,
    )


def verify_ruling_set(
    graph,
    candidates: Iterable[int],
    ruling_set: Set[int],
    separation: int,
    domination_radius: int,
) -> List[str]:
    """Check the ruling-set properties; return a list of violation descriptions.

    An empty list means the set satisfies subset-ness, pairwise separation and
    domination of every candidate within ``domination_radius``.
    """
    from ..graphs.bfs import bfs_distances, multi_source_bfs

    violations: List[str] = []
    candidate_set = set(candidates)
    if not set(ruling_set) <= candidate_set:
        extra = sorted(set(ruling_set) - candidate_set)
        violations.append(f"ruling set contains non-candidates: {extra}")
    members = sorted(ruling_set)
    for index, u in enumerate(members):
        dist = bfs_distances(graph, u, max_depth=separation - 1)
        for v in members[index + 1:]:
            if v in dist:
                violations.append(
                    f"vertices {u} and {v} are at distance {dist[v]} < {separation}"
                )
    if members:
        reached = multi_source_bfs(graph, members, max_depth=domination_radius)
        for w in sorted(candidate_set):
            if reached.dist[w] is None:
                violations.append(
                    f"candidate {w} is not dominated within {domination_radius}"
                )
    elif candidate_set:
        violations.append("ruling set is empty while candidates exist")
    return violations
