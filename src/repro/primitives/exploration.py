"""Bounded multi-source exploration -- the paper's Algorithm 1 (Appendix A).

``Procedure "Number of near neighbors"``: given a set of cluster centers
``S_i``, a distance threshold ``delta_i`` and a degree threshold ``deg_i``,
every vertex learns up to ``deg_i`` centers within distance ``delta_i`` of it
(together with the exact distance and the neighbour that delivered the
information), and every center that learned about at least ``deg_i`` *other*
centers declares itself *popular*.

The paper schedules the procedure as ``delta_i`` phases of ``deg_i`` rounds
each (plus the initial round 0): in phase ``j`` every vertex forwards the
messages it learned in phase ``j-1`` -- at most ``deg_i`` of them, one per
round, so the CONGEST bandwidth is respected.

Our implementation runs each phase as a sub-protocol on the simulator (the
per-round pacing inside a phase is faithfully one message per edge per round);
phases in which the network is already quiet are skipped by the simulator as a
wall-clock optimization, but the *nominal* cost charged to the ledger is the
full ``1 + deg_i * delta_i`` rounds exactly as the paper counts it.

Guarantees verified by the test-suite (Theorem 2.1 / Lemma A.1):

1. the popular set is exactly the set of centers with at least ``deg_i``
   other centers within distance ``delta_i``;
2. every non-popular center knows *all* centers within ``delta_i`` of it,
   at their exact distances, with a trace-back pointer chain realizing a
   shortest path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..congest.errors import ProtocolFault, RoundLimitExceeded
from ..congest.faults import FaultPlan, fault_round_limit, fresh_fault_counters
from ..congest.message import Message
from ..congest.node import NodeContext, NodeProgram
from ..congest.simulator import Simulator
from ..graphs.bfs import _flat_bfs_distances, compiled_bfs
from ..kernels import require_numpy, use_numpy

EXPLORE_TAG = "explore"

# Shared empty phase buffer for vertices with nothing to forward.
_NO_BUFFER: List[Tuple[int, int]] = []

# KnownCenter is a NamedTuple with no constructor logic, so the hot loops
# build entries through tuple.__new__ directly -- ~2x faster than going
# through the generated __new__, with an identical resulting object.
_new_entry = tuple.__new__


class KnownCenter(NamedTuple):
    """What a vertex knows about one center: its distance and the via-neighbour."""

    distance: int
    via: Optional[int]


class ExplorationResult:
    """Outcome of Algorithm 1.

    The knowledge is carried in two flat per-vertex int dictionaries --
    ``known_dist[v]`` maps center -> recorded distance and ``known_via[v]``
    maps center -> the neighbour that delivered the information (``None`` for
    the center itself).  Storing plain ints keeps the learn event of the
    exploration protocol allocation-free, which dominates the whole build's
    message volume.

    ``known`` materializes the legacy ``center ->``
    :class:`KnownCenter` maps lazily for callers that want the combined
    records (tests, notebooks); the hot paths read the int dicts directly.

    Attributes
    ----------
    known_dist / known_via:
        Flat per-vertex knowledge (vertices that are centers know themselves
        at distance 0 with via ``None``).
    popular:
        The set ``W_i`` of popular centers.
    centers:
        The input center set ``S_i`` (sorted).
    depth / cap:
        The parameters ``delta_i`` and ``deg_i``.
    nominal_rounds:
        ``1 + cap * depth`` -- the scheduled number of rounds.
    """

    __slots__ = (
        "known_dist",
        "known_via",
        "popular",
        "centers",
        "depth",
        "cap",
        "nominal_rounds",
        "simulated_rounds",
        "messages",
        "fault_counters",
        "attempts",
        "_known",
    )

    def __init__(
        self,
        known_dist: List[Dict[int, int]],
        known_via: List[Dict[int, Optional[int]]],
        popular: Set[int],
        centers: List[int],
        depth: int,
        cap: int,
        nominal_rounds: int,
        simulated_rounds: int = 0,
        messages: int = 0,
        fault_counters: Optional[Dict[int, int]] = None,
        attempts: int = 1,
    ) -> None:
        self.known_dist = known_dist
        self.known_via = known_via
        self.popular = popular
        self.centers = centers
        self.depth = depth
        self.cap = cap
        self.nominal_rounds = nominal_rounds
        self.simulated_rounds = simulated_rounds
        self.messages = messages
        self.fault_counters = fault_counters
        self.attempts = attempts
        self._known: Optional[List[Dict[int, KnownCenter]]] = None

    @property
    def known(self) -> List[Dict[int, KnownCenter]]:
        """``known[v]``: center -> :class:`KnownCenter` (lazy combined view)."""
        if self._known is None:
            known_via = self.known_via
            self._known = [
                {
                    center: _new_entry(KnownCenter, (distance, via_v[center]))
                    for center, distance in dist_v.items()
                }
                for dist_v, via_v in zip(self.known_dist, known_via)
            ]
        return self._known

    def known_centers(self, v: int) -> List[int]:
        """Centers known to ``v``, sorted."""
        return sorted(self.known_dist[v].keys())

    def distance_to(self, v: int, center: int) -> Optional[int]:
        """Recorded distance from ``v`` to ``center`` (``None`` if unknown)."""
        return self.known_dist[v].get(center)

    def trace_path(self, v: int, center: int) -> List[int]:
        """Follow via-pointers from ``v`` to ``center``; returns the vertex path."""
        if center not in self.known_dist[v]:
            raise ValueError(f"vertex {v} does not know center {center}")
        path = [v]
        current = v
        known_via = self.known_via
        while current != center:
            via = known_via[current].get(center)
            if via is None:
                raise ValueError(
                    f"broken via chain while tracing from {v} to {center} at {current}"
                )
            current = via
            path.append(current)
        return path


class _ExplorationPhaseProgram(NodeProgram):
    """One phase of Algorithm 1: flush the phase buffer at one message/edge/round."""

    __slots__ = ("node_id", "outbuf", "_next_send", "known_dist", "known_via", "newly_learned", "learners")

    def __init__(
        self,
        node_id: int,
        outbuf: List[Tuple[int, int]],
        known_dist: Dict[int, int],
        known_via: Dict[int, Optional[int]],
        newly_learned: List[int],
        learners: List[int],
    ) -> None:
        self.node_id = node_id
        # The phase driver hands over a fresh (or shared-empty) buffer per
        # phase and the program never mutates it, so no defensive copy.
        self.outbuf = outbuf
        self._next_send = 0
        self.known_dist = known_dist
        self.known_via = known_via
        self.newly_learned = newly_learned
        # Shared registry: a program appends its id on the phase's first
        # learning event, so the driver resets only the touched programs.
        self.learners = learners

    def on_start(self, ctx: NodeContext) -> None:
        self._send_next(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        # The historical implementation processed the inbox sorted by
        # (center, sender).  Inboxes arrive in ascending sender order (the
        # scheduler drains outboxes sender-by-sender) with at most one
        # message per sender per round, so for every center the first
        # arrival already is the smallest announcing sender: processing in
        # arrival order adopts bit-identical (distance, via) entries.
        # Exploration phases carry only EXPLORE messages, so the payload is
        # always ``(tag, center, distance)``; a learn event is two int dict
        # inserts -- no record objects on this, the build's hottest path.
        # Messages are NamedTuples: unpacking them beats two attribute reads
        # per message on this, the highest-volume inbox loop of the build.
        known_dist = self.known_dist
        known_via = self.known_via
        newly = self.newly_learned
        for sender, content, _ in inbox:
            center = content[1]
            if center not in known_dist:
                known_dist[center] = content[2] + 1
                known_via[center] = sender
                if not newly:
                    self.learners.append(self.node_id)
                newly.append(center)
        # Inlined _send_next: this runs once per activation, which makes the
        # extra method call measurable.
        i = self._next_send
        outbuf = self.outbuf
        if i < len(outbuf):
            center, distance = outbuf[i]
            self._next_send = i + 1
            ctx.broadcast_flat(EXPLORE_TAG, center, distance)

    def _send_next(self, ctx: NodeContext) -> None:
        if self._next_send < len(self.outbuf):
            center, distance = self.outbuf[self._next_send]
            self._next_send += 1
            ctx.broadcast_flat(EXPLORE_TAG, center, distance)

    def is_idle(self) -> bool:
        return self._next_send >= len(self.outbuf)

    def result(self):
        return None


def run_bounded_exploration(
    simulator: Simulator,
    centers: Iterable[int],
    depth: int,
    cap: int,
    label: str = "exploration",
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1,
) -> ExplorationResult:
    """Run Algorithm 1 with center set ``centers``, depth ``delta`` and cap ``deg``.

    Returns an :class:`ExplorationResult` whose ``popular`` set is the paper's
    ``W_i`` and whose ``known`` maps drive both the interconnection step and
    its path trace-back.

    ``fault_plan`` runs the phases under an injected fault schedule (see
    :mod:`repro.congest.faults`): each phase gets a bounded round budget
    (:func:`fault_round_limit`) so a wedged phase terminates, and the whole
    primitive is retried up to ``max_attempts`` times under derived plans.
    When every attempt times out a typed
    :class:`~repro.congest.errors.ProtocolFault` is raised.  Under faults the
    recorded (distance, via) entries still describe *real* walks in the graph
    (safety), but knowledge may be incomplete and recorded distances may
    exceed the true ones (see :mod:`repro.analysis.degradation`).
    """
    graph = simulator.graph
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 1:
        raise ValueError("cap (deg_i) must be >= 1")

    if fault_plan is None or not fault_plan.active:
        return _run_exploration_once(simulator, center_list, depth, cap, label, None, 1)
    attempts = max(1, max_attempts)
    for attempt in range(attempts):
        try:
            return _run_exploration_once(
                simulator, center_list, depth, cap, label,
                fault_plan.retry(attempt), attempt + 1,
            )
        except RoundLimitExceeded:
            if attempt == attempts - 1:
                raise ProtocolFault(label, "round-timeout", attempts=attempts)
    raise AssertionError("unreachable")


def _run_exploration_once(
    simulator: Simulator,
    center_list: List[int],
    depth: int,
    cap: int,
    label: str,
    plan: Optional[FaultPlan],
    attempt_number: int,
) -> ExplorationResult:
    """One (possibly faulted) execution of Algorithm 1 from fresh state."""
    n = simulator.graph.num_vertices
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    # Non-senders share the one empty buffer; only centers start with a real
    # phase-1 buffer (programs never mutate their buffer).
    outbufs: List[List[Tuple[int, int]]] = [_NO_BUFFER] * n
    for center in center_list:
        known_dist[center][center] = 0
        known_via[center][center] = None
        outbufs[center] = [(center, 0)]

    nominal_rounds = 1 + cap * depth
    simulated_rounds = 0
    messages = 0
    charged_rounds = 0

    # Vertices holding a non-empty phase buffer -- the only candidates for
    # sending (and for being awake) when a phase protocol starts; passed to
    # the scheduler so round 0 and the idle poll touch only them.  Programs
    # and their newly-learned accumulators are created once and reset between
    # phases instead of reallocated ``n``-at-a-time per phase.
    senders: List[int] = list(center_list)
    newly: List[List[int]] = [[] for _ in range(n)]
    learners: List[int] = []
    programs = [
        _ExplorationPhaseProgram(
            v, outbufs[v], known_dist[v], known_via[v], newly[v], learners
        )
        for v in range(n)
    ]
    counters = {"charged": 0, "simulated": 0, "messages": 0}
    fault_totals = fresh_fault_counters() if plan is not None else None
    try:
        _run_exploration_phases(
            simulator, programs, newly, known_dist, senders, learners,
            depth, cap, label, counters, plan, fault_totals,
        )
    finally:
        # The phase programs are finished (or the run aborted); let the
        # scheduler's binding cache go so it does not pin them (and the
        # knowledge they reference) alive.
        simulator.release_program_bindings()
    charged_rounds = counters["charged"]
    simulated_rounds = counters["simulated"]
    messages = counters["messages"]

    # The paper's schedule always occupies 1 + cap * depth rounds even when
    # the network goes quiet early; charge the idle remainder so the ledger
    # reflects the nominal cost of Algorithm 1.
    idle_rounds = max(0, nominal_rounds - charged_rounds)
    if idle_rounds:
        simulator.ledger.charge(label=f"{label}:idle-schedule", nominal_rounds=idle_rounds)

    popular = {
        center
        for center in center_list
        if len(known_dist[center]) - 1 >= cap
    }
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=nominal_rounds,
        simulated_rounds=simulated_rounds,
        messages=messages,
        fault_counters=fault_totals,
        attempts=attempt_number,
    )


def _phase_crashes(
    crash_at: Dict[int, int], phase_start: int, phase_len: int
) -> Dict[int, int]:
    """Project a global crash schedule onto one phase's local round numbering.

    A node crashing at global round ``r`` is dead from local round 0 if the
    crash predates the phase, from local round ``r - phase_start`` if it
    falls inside the phase, and alive (omitted) otherwise.
    """
    local: Dict[int, int] = {}
    for v, r in crash_at.items():
        if r <= phase_start:
            local[v] = 0
        elif r < phase_start + phase_len:
            local[v] = r - phase_start
    return local


def _run_exploration_phases(
    simulator: Simulator,
    programs: List[_ExplorationPhaseProgram],
    newly: List[List[int]],
    known_dist: List[Dict[int, int]],
    senders: List[int],
    learners: List[int],
    depth: int,
    cap: int,
    label: str,
    counters: Dict[str, int],
    plan: Optional[FaultPlan] = None,
    fault_totals: Optional[Dict[str, int]] = None,
) -> None:
    """The phase loop of Algorithm 1 (split out so the caller can guarantee
    the scheduler's binding cache is released even on an aborted run).

    Under a fault plan each phase runs as its own faulted sub-protocol under
    a phase-derived plan; the plan's crash schedule is computed once against
    the *nominal* global round numbering and projected onto each phase, so a
    crash-stopped node stays dead for the rest of the exploration.
    """
    crash_at = plan.crash_schedule(len(programs)) if plan is not None else {}
    if fault_totals is not None:
        fault_totals["crashed_nodes"] = len(crash_at)
    for phase in range(1, depth + 1):
        if not senders:
            break
        phase_nominal = cap if phase > 1 else cap + 1
        phase_kwargs = {}
        if plan is not None:
            phase_plan = replace(
                plan.derive(phase),
                crash_fraction=0.0,
                crashes=tuple(
                    sorted(_phase_crashes(crash_at, counters["charged"], phase_nominal).items())
                ),
            )
            phase_kwargs = dict(
                fault_plan=phase_plan,
                max_rounds=fault_round_limit(phase_nominal, phase_plan),
            )
        run = simulator.run_protocol(
            programs,
            label=f"{label}:phase{phase}",
            nominal_rounds=phase_nominal,
            initially_awake=senders,
            collect_results=False,
            starters=senders,
            reuse_bindings=True,
            **phase_kwargs,
        )
        counters["charged"] += phase_nominal
        counters["simulated"] += run.rounds_executed
        counters["messages"] += run.messages_delivered
        if fault_totals is not None and run.fault_counters is not None:
            for key, value in run.fault_counters.items():
                if key != "crashed_nodes":
                    fault_totals[key] += value
        # Build the next phase's buffers: forward up to ``cap`` newly learned
        # centers (deterministically the smallest IDs; the paper allows an
        # arbitrary choice).  Only the programs that sent or learned this
        # phase are touched -- last phase's senders are rewound, the learners
        # (from the shared registry) become the new senders.
        for v in senders:
            program = programs[v]
            program.outbuf = _NO_BUFFER
            program._next_send = 0
        senders = sorted(learners)
        learners.clear()
        for v in senders:
            program = programs[v]
            known_v = known_dist[v]
            fresh_centers = newly[v]
            # A center enters ``newly`` at most once per phase (it is in
            # ``known`` from then on), so the list is duplicate-free.
            fresh_centers.sort()
            program.outbuf = [
                (center, known_v[center]) for center in fresh_centers[:cap]
            ]
            fresh_centers.clear()
            program._next_send = 0


class LazyParents(Mapping):
    """Read-only ``center -> parent array`` mapping that sweeps on first access.

    Iterating it yields every center, but a center's dense parent array is
    only computed (by ``sweep(center)``, then cached) when it is read.
    ``sweep`` is bound to the CSR snapshot taken at exploration time, so a
    late read still describes the explored topology.
    """

    __slots__ = ("_centers", "_sweep", "_arrays")

    def __init__(self, centers: List[int], sweep: Callable[[int], Sequence[int]]) -> None:
        self._centers = centers
        self._sweep = sweep
        self._arrays: Dict[int, Sequence[int]] = {}

    def __getitem__(self, center: int) -> Sequence[int]:
        array = self._arrays.get(center)
        if array is None:
            if center not in self:
                raise KeyError(center)
            array = self._arrays[center] = self._sweep(center)
        return array

    def __contains__(self, center: object) -> bool:
        index = bisect_left(self._centers, center)
        return index < len(self._centers) and self._centers[index] == center

    def __iter__(self) -> Iterator[int]:
        return iter(self._centers)

    def __len__(self) -> int:
        return len(self._centers)


@dataclass
class CenterExploration:
    """Flat-array exploration summary used by the centralized engine.

    Holds exactly what the engine consumes from Algorithm 1's exact
    (untruncated) knowledge, in flat-array form instead of per-vertex
    dictionaries of :class:`KnownCenter`:

    * ``near_centers[c]`` -- the sorted centers within ``depth`` of center
      ``c`` (excluding ``c``); drives popularity and the interconnection
      requests.
    * ``parents[c]`` -- the BFS-tree parent of every vertex *toward* ``c``
      (``-1`` for unreached vertices, ``c`` for the root itself), with the
      same sorted-neighbour tie-breaking as :func:`centralized_bounded_exploration`'s
      via-pointers; drives the shortest-path trace-back.  It is a
      :class:`LazyParents` mapping: a center's dense array is swept the first
      time the trace-back reads it, so an exploration whose centers are
      mostly popular (few or no interconnection targets) never pays one
      O(n + m) array per center.  Depth 1 therefore needs no special case:
      its trace-back emits each path as the direct edge
      ``(initiator, target)`` and never reads a parent array.

    The full per-vertex knowledge of :func:`centralized_bounded_exploration`
    is a strict superset of this; the engine only ever reads the parts kept
    here, so both produce identical spanners.
    """

    near_centers: Dict[int, Sequence[int]]
    # Dense per-center parent arrays: Python lists on the pure backend,
    # ``numpy.int64`` arrays on the vectorized one (element-identical).
    parents: LazyParents
    popular: Set[int]
    centers: List[int]
    depth: int
    cap: int
    nominal_rounds: int


def centralized_engine_exploration(
    graph,
    centers: Iterable[int],
    depth: int,
    cap: int,
) -> CenterExploration:
    """Exact per-center exploration in flat arrays (centralized engine hot path).

    Past depth 1 the work is one full sweep per connected component that
    holds a center, from its smallest center ``c0``: it yields the hop
    counts ``hops0`` and the eccentricity ``ecc(c0)``.  By the triangle
    inequality every vertex of the component lies within
    ``hops0[c] + ecc(c0)`` of a center ``c``, so when that is at most
    ``depth`` the ball of ``c`` is the whole component and its near centers
    are all the component's other centers -- no sweep of its own.  Only the
    centers failing that test get a depth-bounded sweep (on the vectorized
    tier, one compiled BFS cut at ``depth``).  Parent arrays are swept
    lazily (see :class:`CenterExploration`); their visit order matches
    :func:`centralized_bounded_exploration` exactly, so the parent chains
    equal its via chains.
    """
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 1:
        raise ValueError("cap (deg_i) must be >= 1")

    csr = graph.csr()
    if use_numpy(n):
        component_sweep, parent_sweep, reached_among = (
            _numpy_component, _numpy_parents, _numpy_reached
        )
    else:
        component_sweep, parent_sweep, reached_among = (
            _python_component, _python_parents, _python_reached
        )
    parents = LazyParents(center_list, lambda center: parent_sweep(csr, center, depth))
    near_centers: Dict[int, Sequence[int]] = {}
    is_center = bytearray(n)
    for center in center_list:
        is_center[center] = 1
    if depth == 1:
        # Phase-0 shape: every ball is just the neighbour row (already
        # sorted), so skip the frontier machinery entirely.
        rows = csr.rows()
        if len(center_list) == n:
            for center in center_list:
                # Rows are sorted tuples; share them instead of copying (the
                # CenterExploration contract declares the lists read-only).
                near_centers[center] = rows[center]
        else:
            for center in center_list:
                near_centers[center] = [v for v in rows[center] if is_center[v]]
    else:
        for c0 in center_list:
            if c0 in near_centers:
                continue
            members, hops, eccentricity = component_sweep(graph, c0, is_center)
            for index, center in enumerate(members):
                if hops[index] + eccentricity <= depth:
                    # The ball of ``center`` holds the whole component.
                    near_centers[center] = members[:index] + members[index + 1:]
                else:
                    near_centers[center] = [
                        c for c in reached_among(parents[center], members) if c != center
                    ]

    popular = {center for center in center_list if len(near_centers[center]) >= cap}
    return CenterExploration(
        near_centers=near_centers,
        parents=parents,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )


def _python_component(graph, c0: int, is_center: bytearray):
    """One full pure-Python sweep from ``c0`` over its component.

    Returns the component's centers (sorted), their hop counts from ``c0``
    and the eccentricity of ``c0``.
    """
    hops, order = _flat_bfs_distances(graph, (c0,))
    members = sorted(v for v in order if is_center[v])
    return members, [hops[c] for c in members], hops[order[-1]]


def _python_parents(csr, center: int, depth: int) -> List[int]:
    """Dense parent list toward ``center`` from a sweep cut at ``depth``."""
    # ``parent`` doubles as the visited marker: >= 0 means reached.  A dense
    # list beats a ball-local dict here (measured ~1.6x on depth-saturating
    # balls), and only the trace-back's targets are ever swept.
    rows = csr.rows()
    parent = [-1] * len(rows)
    parent[center] = center
    frontier = [center]
    d = 0
    while frontier and d < depth:
        d += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            for v in rows[u]:
                if parent[v] < 0:
                    parent[v] = u
                    push(v)
        frontier = next_frontier
    return parent


def _python_reached(parent: List[int], members: List[int]) -> List[int]:
    return [c for c in members if parent[c] >= 0]


def _numpy_component(graph, c0: int, is_center: bytearray):
    """:func:`_python_component` as one compiled sweep."""
    np = require_numpy()
    order, _, bounds = compiled_bfs(graph.csr(), c0)
    positions = np.flatnonzero(np.frombuffer(is_center, dtype=np.uint8)[order])
    by_id = np.argsort(order[positions])
    hops = np.searchsorted(bounds, positions[by_id], side="right") - 1
    return order[positions[by_id]].tolist(), hops.tolist(), len(bounds) - 2


def _numpy_parents(csr, center: int, depth: int):
    """:func:`_python_parents` as one compiled BFS cut at ``depth``.

    csgraph's FIFO sweep over sorted CSR rows picks the loop's first-toucher
    parents (see :func:`~repro.graphs.bfs.compiled_bfs`).
    """
    np = require_numpy()
    order, predecessors, _ = compiled_bfs(csr, center, max_depth=depth)
    parent = np.full(csr.num_vertices, -1, dtype=np.int64)
    parent[order] = predecessors[order]
    parent[center] = center
    return parent


def _numpy_reached(parent, members: List[int]) -> List[int]:
    np = require_numpy()
    members_np = np.asarray(members, dtype=np.int64)
    return members_np[parent[members_np] >= 0].tolist()


def centralized_bounded_exploration(
    graph,
    centers: Iterable[int],
    depth: int,
    cap: int,
) -> ExplorationResult:
    """Centralized reference implementation of Algorithm 1.

    Produces the *exact* knowledge (no truncation at intermediate vertices):
    every vertex knows every center within ``depth`` of it, and popularity is
    decided against the true neighbourhood counts.  This matches the guarantee
    of Theorem 2.1 for the vertices the algorithm cares about (non-popular
    centers know everything; popular centers are exactly those with ``>= cap``
    near centers) and is what the centralized reference engine uses.

    Each center's sweep is a depth-bounded frontier walk over the CSR
    snapshot, so the work is proportional to the explored balls rather than
    ``|centers| * n``.  Visit order matches a sorted-neighbour BFS exactly,
    which keeps the recorded via-pointers (the BFS-tree parents pointing
    toward the center) bit-identical to the historical implementation.
    """
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    rows = graph.csr().rows()
    for center in center_list:
        known_dist[center][center] = 0
        known_via[center][center] = None
        seen = {center}
        seen_add = seen.add
        frontier = [center]
        d = 0
        while frontier and d < depth:
            d += 1
            next_frontier: List[int] = []
            push = next_frontier.append
            for u in frontier:
                for v in rows[u]:
                    if v not in seen:
                        seen_add(v)
                        # ``u`` is the BFS-tree parent of ``v``, i.e. the
                        # direction a trace-back toward the center must walk.
                        known_dist[v][center] = d
                        known_via[v][center] = u
                        push(v)
            frontier = next_frontier
    popular = {
        center for center in center_list if len(known_dist[center]) - 1 >= cap
    }
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )
