"""Synchronous CONGEST-model simulator.

The simulator executes a protocol (one :class:`~repro.congest.node.NodeProgram`
per vertex) in synchronous rounds:

1. every node's outbox from the previous round is delivered,
2. per-edge bandwidth is audited (CONGEST: O(1) words per edge per round),
3. every node that received messages -- or is not yet idle -- gets to run and
   queue messages for the next round.

Rounds in which no message is in flight and every node is idle terminate the
protocol.  As a wall-clock optimization the simulator *fast-forwards* rounds
in which nothing at all would happen; protocols report their scheduled
("nominal") round counts separately through the ledger (see
:mod:`repro.congest.ledger`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from .errors import CongestionViolation, ProtocolError, RoundLimitExceeded
from .faults import NEVER, FaultPlan, fresh_fault_counters
from .ledger import RoundLedger
from .message import Message
from .node import BROADCAST_DEST, NodeContext, NodeProgram
from .tracing import NullTracer, Tracer

DEFAULT_MAX_WORDS_PER_MESSAGE = 4
DEFAULT_BANDWIDTH_MESSAGES = 1


@dataclass
class ProtocolRun:
    """Outcome of executing one protocol to quiescence."""

    rounds_executed: int
    messages_delivered: int
    words_delivered: int
    max_edge_congestion: int
    results: List[Any]
    congestion_violations: List[Tuple[int, int, int, int]] = field(default_factory=list)
    # Per-fault-class counters recorded under an active fault plan; ``None``
    # for every fault-free run.
    fault_counters: Optional[Dict[str, int]] = None

    @property
    def violated_congestion(self) -> bool:
        """Whether any per-edge bandwidth violation was observed (non-strict mode)."""
        return bool(self.congestion_violations)


class Simulator:
    """Executes CONGEST protocols over a fixed communication graph.

    Parameters
    ----------
    graph:
        The communication topology.
    bandwidth_messages:
        Maximum number of messages a node may send over a single edge in one
        round.  The CONGEST model allows O(1) words per round; the default of
        one message of at most ``max_words_per_message`` words enforces that.
    max_words_per_message:
        Maximum payload size of a single message, in machine words.
    strict_congestion:
        When true (default), exceeding the per-edge bandwidth raises
        :class:`CongestionViolation`; when false, violations are recorded in
        the :class:`ProtocolRun` so tests can assert on them.
    tracer:
        Optional :class:`~repro.congest.tracing.Tracer` receiving round events.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_messages: int = DEFAULT_BANDWIDTH_MESSAGES,
        max_words_per_message: int = DEFAULT_MAX_WORDS_PER_MESSAGE,
        strict_congestion: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if bandwidth_messages < 1:
            raise ValueError("bandwidth_messages must be >= 1")
        self.graph = graph
        self.bandwidth_messages = bandwidth_messages
        self.max_words_per_message = max_words_per_message
        self.strict_congestion = strict_congestion
        self.tracer = tracer if tracer is not None else NullTracer()
        self.ledger = RoundLedger()
        # Per-node contexts and inbox buffers are reused across every
        # run_protocol call (the spanner build runs dozens of sub-protocols
        # over the same topology); they are rebuilt only if the graph mutates.
        # ``_dirty`` marks buffers left non-empty by an aborted run.
        self._contexts: Optional[List[NodeContext]] = None
        self._inboxes: List[List[Message]] = []
        # Shared per-round sender registry: every context appends itself on
        # its first queueing of a round (see NodeContext), so delivery drains
        # exactly the senders, in run order (= ascending node id).
        self._pending: List[NodeContext] = []
        self._contexts_version = -1
        self._dirty = False
        # Bound-method cache keyed on the programs list identity: protocols
        # that re-run the same program objects (the exploration phases) skip
        # rebinding n callbacks per run.
        self._program_bindings: Optional[Tuple[object, list, list]] = None

    def _node_contexts(self) -> List[NodeContext]:
        """Shared per-vertex contexts built from the graph's CSR snapshot."""
        if self._contexts is None or self._contexts_version != self.graph.version:
            csr = self.graph.csr()
            rows = csr.rows()
            max_words = self.max_words_per_message
            contexts = [
                NodeContext(v, rows[v], max_words) for v in range(self.graph.num_vertices)
            ]
            inboxes = [[] for _ in range(self.graph.num_vertices)]
            # Pre-resolve each node's (neighbour, inbox) pairs so broadcast
            # delivery iterates one prebuilt tuple instead of zipping the
            # neighbour list against the global inbox table per broadcast,
            # and install the shared sender registry.
            pending: List[NodeContext] = []
            for ctx in contexts:
                ctx._neighbor_pairs = tuple((nb, inboxes[nb]) for nb in ctx.neighbors)
                ctx._pending = pending
            self._contexts = contexts
            self._inboxes = inboxes
            self._pending = pending
            self._contexts_version = self.graph.version
        return self._contexts

    def release_program_bindings(self) -> None:
        """Drop the bound-method cache seeded by ``reuse_bindings=True``."""
        self._program_bindings = None

    # ------------------------------------------------------------------
    # Protocol execution
    # ------------------------------------------------------------------
    def run_protocol(
        self,
        programs: Sequence[NodeProgram],
        max_rounds: int = 10_000_000,
        label: str = "protocol",
        nominal_rounds: Optional[int] = None,
        initially_awake: Optional[Iterable[int]] = None,
        collect_results: bool = True,
        message_driven: bool = False,
        starters: Optional[Sequence[int]] = None,
        reuse_bindings: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> ProtocolRun:
        """Run ``programs`` (one per vertex) to quiescence.

        ``nominal_rounds`` is the scheduled round count the caller wants
        charged to the ledger; when omitted, the executed round count is
        charged.

        ``starters`` is a wall-clock hint: the ascending list of nodes whose
        ``on_start`` does anything at all (sends or state changes).  Round 0
        then only invokes those programs and only drains their outboxes;
        every other program's ``on_start`` must be a no-op, which the caller
        guarantees.  Protocol outcomes are identical either way.

        ``initially_awake`` is a wall-clock hint: a superset of the nodes
        whose ``is_idle()`` could return false right after ``on_start``.  The
        scheduler polls only those programs instead of all ``n`` (protocols
        with a handful of initiators pay O(#initiators), not O(n)).  Passing
        a set that misses a non-idle node would silently starve it, so only
        callers that know their programs' idle structure pass it.  Protocol
        outcomes are identical either way.

        ``message_driven=True`` declares that every program's ``is_idle()``
        is constantly true (all progress happens in reaction to received
        messages, as in the BFS-forest and forest-markup protocols); the
        scheduler then skips idle tracking altogether.

        ``collect_results=False`` skips the per-node ``result()`` sweep
        (``ProtocolRun.results`` is empty) for protocols whose programs
        report through shared driver-side state.

        ``reuse_bindings=True`` caches the per-program bound callbacks keyed
        on the programs list identity, so a driver that re-runs the same
        program objects (the exploration phases) skips rebinding ``n``
        methods per run.  The caller must drop the cache with
        :meth:`release_program_bindings` when done, otherwise the simulator
        pins the programs (and everything they reference) alive.

        ``fault_plan`` injects a deterministic fault schedule (see
        :mod:`repro.congest.faults`): the same round loop applies drops,
        duplications, delays, link outages and crash-stops at delivery time
        and records per-fault-class counters in ``ProtocolRun.fault_counters``.
        No plan (or an inactive one) delivers every message on time.  The
        wall-clock hints above hold in both modes; they never change
        protocol outcomes, only speed.
        """
        n = self.graph.num_vertices
        if len(programs) != n:
            raise ProtocolError(f"expected {n} programs, got {len(programs)}")

        contexts = self._node_contexts()
        inboxes = self._inboxes
        if self._dirty:
            # A previous run aborted mid-round (congestion violation, round
            # limit, program error); scrub its leftovers before starting.
            for v in range(n):
                ctx = contexts[v]
                ctx._outbox.clear()
                ctx._dup_possible = False
                inboxes[v].clear()
            self._pending.clear()
            self._dirty = False

        try:
            return self._run_protocol(
                programs,
                contexts,
                inboxes,
                max_rounds,
                label,
                nominal_rounds,
                initially_awake,
                collect_results,
                message_driven,
                starters,
                reuse_bindings,
                fault_plan if fault_plan is not None and fault_plan.active else None,
            )
        except BaseException:
            self._dirty = True
            raise

    def _run_protocol(
        self,
        programs: Sequence[NodeProgram],
        contexts: List[NodeContext],
        inboxes: List[List[Message]],
        max_rounds: int,
        label: str,
        nominal_rounds: Optional[int],
        initially_awake: Optional[Iterable[int]],
        collect_results: bool,
        message_driven: bool,
        starters: Optional[Sequence[int]],
        reuse_bindings: bool,
        plan: Optional[FaultPlan],
    ) -> ProtocolRun:
        """Execute the scheduler loop (buffers are clean on entry and exit).

        An active fault ``plan`` changes three things and nothing else: the
        delivery function (:meth:`_deliver_faulted`), a ``delayed`` queue
        (due round -> messages) that the loop drains and fast-forwards to,
        and a crash filter on the round-0 starters and on ``awake``.
        """
        n = len(contexts)
        counters: Optional[Dict[str, int]] = None
        crash_at: Dict[int, int] = {}
        delayed: Dict[int, List[Tuple[int, Message]]] = {}
        deliver = self._deliver
        if plan is not None:
            crash_at = plan.crash_schedule(n)
            counters = fresh_fault_counters()
            counters["crashed_nodes"] = len(crash_at)
            deliver = partial(
                self._deliver_faulted,
                plan=plan,
                crash_at=crash_at,
                counters=counters,
                delayed=delayed,
            )

        # Round 0: on_start may queue messages.  ``starters`` narrows the
        # sweep to the programs whose on_start actually does something; a
        # node crashed at round 0 never starts.
        round0 = range(n) if starters is None else starters
        if crash_at:
            round0 = [v for v in round0 if crash_at.get(v, NEVER) > 0]
        for v in round0:
            ctx = contexts[v]
            ctx.round_index = 0
            programs[v].on_start(ctx)

        rounds_executed = 0
        messages_delivered = 0
        words_delivered = 0
        tracer = self.tracer
        trace_round = None if type(tracer) is NullTracer else tracer.on_round

        # Pre-bound per-node callbacks: the round loop below calls these up to
        # once per node per round, so avoid rebinding methods every time.
        # With ``reuse_bindings`` the bindings are cached on the programs
        # list identity, so drivers that re-run the same program objects (the
        # exploration phases) skip the rebind; they release the cache when
        # done so the simulator never pins a finished protocol's programs.
        cache = self._program_bindings
        if cache is not None and cache[0] is programs:
            on_round_of, is_idle_of = cache[1], cache[2]
        else:
            on_round_of = [p.on_round for p in programs]
            is_idle_of = [p.is_idle for p in programs]
            if reuse_bindings:
                self._program_bindings = (programs, on_round_of, is_idle_of)
        track_idle = not message_driven

        # The scheduler keeps an explicit active set instead of scanning all n
        # programs every round: ``awake`` tracks exactly the nodes whose
        # ``is_idle()`` returned false the last time they ran (idleness only
        # changes when a node runs), and ``receivers`` the nodes with mail.
        # ``initially_awake`` narrows the start-of-protocol idle poll to the
        # caller-declared candidates; ``message_driven`` protocols skip idle
        # tracking entirely.
        if track_idle:
            candidates = range(n) if initially_awake is None else initially_awake
            if crash_at:
                candidates = [v for v in candidates if crash_at.get(v, NEVER) > 0]
            awake = {v for v in candidates if not is_idle_of[v]()}
        else:
            awake = set()

        # Collect round-0 sends (senders registered themselves in on_start).
        receivers, in_flight, in_flight_words, max_congestion, violations = deliver(
            0, inboxes
        )

        round_index = 0
        while receivers or awake or delayed:
            if rounds_executed >= max_rounds:
                raise RoundLimitExceeded(max_rounds)
            if not receivers and not awake:
                # Only delayed messages remain; fast-forward to the next due
                # round (idle gap rounds are not counted as executed).
                round_index = min(delayed) - 1
            round_index += 1
            if plan is not None:
                if crash_at:
                    awake = {v for v in awake if crash_at.get(v, NEVER) > round_index}
                # Delayed messages land after the round's on-time ones.
                for neighbor, message in delayed.pop(round_index, ()):
                    inbox = inboxes[neighbor]
                    if not inbox:
                        receivers.append(neighbor)
                    inbox.append(message)
                    in_flight += 1
                    in_flight_words += message.words
                if not receivers and not awake:
                    continue
            rounds_executed += 1
            messages_delivered += in_flight
            words_delivered += in_flight_words
            if trace_round is not None:
                trace_round(round_index, in_flight)

            if awake:
                active = set(receivers)
                active.update(awake)
                ran = sorted(active)
            else:
                # deliver hands back a fresh list each round; sort in place.
                receivers.sort()
                ran = receivers
            for v in ran:
                ctx = contexts[v]
                ctx.round_index = round_index
                inbox = inboxes[v]
                on_round_of[v](ctx, inbox)
                if inbox:
                    inbox.clear()
                if track_idle:
                    if is_idle_of[v]():
                        awake.discard(v)
                    else:
                        awake.add(v)

            # Only nodes that queued this round are in the sender registry.
            receivers, in_flight, in_flight_words, round_congestion, round_violations = (
                deliver(round_index, inboxes)
            )
            if round_congestion > max_congestion:
                max_congestion = round_congestion
            if round_violations:
                violations.extend(round_violations)

        run = ProtocolRun(
            rounds_executed=rounds_executed,
            messages_delivered=messages_delivered,
            words_delivered=words_delivered,
            max_edge_congestion=max_congestion,
            results=[p.result() for p in programs] if collect_results else [],
            congestion_violations=violations,
            fault_counters=counters,
        )
        self.ledger.charge(
            label=label,
            nominal_rounds=nominal_rounds if nominal_rounds is not None else rounds_executed,
            simulated_rounds=rounds_executed,
            messages=messages_delivered,
            words=words_delivered,
            max_edge_congestion=max_congestion,
        )
        return run

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(
        self,
        round_index: int,
        inboxes: List[List[Message]],
    ) -> Tuple[List[int], int, int, int, List[Tuple[int, int, int, int]]]:
        """Drain the registered senders' outboxes into the reusable inboxes.

        Returns ``(receivers, messages, words, max_congestion, violations)``:
        the nodes whose inbox is now non-empty (in delivery order), the
        message and word totals now in flight, the round's max per-edge
        congestion, and any recorded violations.  Senders registered
        themselves in the shared ``_pending`` list on their first queueing of
        the round; programs run in ascending node order, so the registry is
        ascending and the audit trail stays deterministic.  A directed edge
        ``(sender, receiver)`` only ever carries messages from ``sender``'s
        outbox, so the bandwidth audit runs per-sender without a global
        per-edge table.
        """
        receivers: List[int] = []
        add_receiver = receivers.append
        violations: List[Tuple[int, int, int, int]] = []
        max_congestion = 0
        messages = 0
        words = 0
        bandwidth = self.bandwidth_messages
        pending = self._pending
        for ctx in pending:
            outbox = ctx._outbox
            if not outbox:
                # A registered sender's outbox can only be empty if something
                # outside the scheduler drained it (e.g. drain_outbox in a
                # unit test); tolerate it rather than crash on outbox[0].
                continue
            if not ctx._dup_possible:
                # Single send or single broadcast: destinations are distinct,
                # so per-edge congestion is exactly 1 and no audit is needed
                # (the congestion floor is applied once after the loop).
                neighbor, message = outbox[0]
                if neighbor == BROADCAST_DEST:
                    pairs = ctx._neighbor_pairs
                    if pairs:
                        messages += len(pairs)
                        words += message.words * len(pairs)
                        for nb, inbox in pairs:
                            if not inbox:
                                add_receiver(nb)
                            inbox.append(message)
                else:
                    messages += 1
                    words += message.words
                    inbox = inboxes[neighbor]
                    if not inbox:
                        add_receiver(neighbor)
                    inbox.append(message)
            else:
                # Multiple queueings in one round: expand broadcasts and audit
                # per-edge counts (first-occurrence order, grouped by sender,
                # matching the historical per-edge table's insertion order).
                ctx._dup_possible = False
                counts: Dict[int, int] = {}
                for neighbor, message in outbox:
                    if neighbor == BROADCAST_DEST:
                        message_words = message.words
                        for nb, inbox in ctx._neighbor_pairs:
                            messages += 1
                            words += message_words
                            if not inbox:
                                add_receiver(nb)
                            inbox.append(message)
                            counts[nb] = counts.get(nb, 0) + 1
                    else:
                        messages += 1
                        words += message.words
                        inbox = inboxes[neighbor]
                        if not inbox:
                            add_receiver(neighbor)
                        inbox.append(message)
                        counts[neighbor] = counts.get(neighbor, 0) + 1
                for neighbor, count in counts.items():
                    if count > max_congestion:
                        max_congestion = count
                    if count > bandwidth:
                        if self.strict_congestion:
                            raise CongestionViolation(
                                round_index, ctx.node_id, neighbor, count, bandwidth
                            )
                        violations.append((round_index, ctx.node_id, neighbor, count))
            outbox.clear()
        pending.clear()
        # Single-send/broadcast deliveries carry congestion exactly 1; apply
        # the floor once instead of branching per sender inside the loop.
        if messages and not max_congestion:
            max_congestion = 1
        return receivers, messages, words, max_congestion, violations

    def _deliver_faulted(
        self,
        round_index: int,
        inboxes: List[List[Message]],
        plan: FaultPlan,
        crash_at: Dict[int, int],
        counters: Dict[str, int],
        delayed: Dict[int, List[Tuple[int, Message]]],
    ) -> Tuple[List[int], int, int, int, List[Tuple[int, int, int, int]]]:
        """:meth:`_deliver` with ``plan`` applied to every delivery event.

        Same return shape as :meth:`_deliver`.  Semantics:

        * The bandwidth audit runs on the protocol's *attempted* sends, before
          any fault is applied -- injected duplicates are the network's fault,
          not the protocol's, and dropped messages still consumed bandwidth.
        * The returned message/word totals count messages actually placed in
          an inbox (duplicates count twice, drops not at all); a delayed copy
          goes to ``delayed`` under its due round and is counted when the
          scheduler places it.
        * A node crashing at round ``t`` executes rounds ``0..t-1``; messages
          that would be processed at round >= ``t`` are lost
          (``lost_to_crash``).
        """
        receivers: List[int] = []
        violations: List[Tuple[int, int, int, int]] = []
        max_congestion = 0
        messages = 0
        words = 0
        bandwidth = self.bandwidth_messages
        pending = self._pending
        for ctx in pending:
            sends = ctx.drain_outbox()
            sender = ctx.node_id
            # Audit attempted (pre-fault) per-edge counts.
            counts: Dict[int, int] = {}
            for neighbor, _ in sends:
                counts[neighbor] = counts.get(neighbor, 0) + 1
            for neighbor, count in counts.items():
                if count > max_congestion:
                    max_congestion = count
                if count > bandwidth:
                    if self.strict_congestion:
                        raise CongestionViolation(
                            round_index, sender, neighbor, count, bandwidth
                        )
                    violations.append((round_index, sender, neighbor, count))
            copy_of: Dict[int, int] = {}
            for neighbor, message in sends:
                copy = copy_of.get(neighbor, 0)
                copy_of[neighbor] = copy + 1
                if plan.link_down(round_index, sender, neighbor):
                    counters["link_down"] += 1
                    continue
                if plan.drops(round_index, sender, neighbor, copy):
                    counters["dropped"] += 1
                    continue
                copies = 1
                if plan.duplicates(round_index, sender, neighbor, copy):
                    copies = 2
                    counters["duplicated"] += 1
                for extra in range(copies):
                    lag = plan.delay(round_index, sender, neighbor, 2 * copy + extra)
                    target = round_index + 1 + lag
                    if crash_at.get(neighbor, NEVER) <= target:
                        counters["lost_to_crash"] += 1
                        continue
                    if lag:
                        counters["delayed"] += 1
                        counters["delay_rounds"] += lag
                        delayed.setdefault(target, []).append((neighbor, message))
                    else:
                        inbox = inboxes[neighbor]
                        if not inbox:
                            receivers.append(neighbor)
                        inbox.append(message)
                        messages += 1
                        words += message.words
        pending.clear()
        return receivers, messages, words, max_congestion, violations
