"""Deterministic fault injection for the CONGEST simulator.

A :class:`FaultPlan` is a *pure function of its seed*: every per-event
decision (drop this message? duplicate it? delay it by how much? which nodes
crash, and when?) is derived by hashing the seed together with the event's
coordinates (round, sender, receiver, copy index).  The same plan therefore
produces a byte-identical fault schedule on every run, on every machine, under
any scheduler interleaving -- the same generator-determinism contract the
graph families honour (see ROADMAP).

Fault classes
-------------
* **drop** -- a message vanishes in transit (per directed delivery event).
* **duplicate** -- a message is delivered twice (the duplicate is injected by
  the network, so it does not count against the sender's bandwidth audit).
* **delay** -- a message arrives 1..``max_delay`` rounds late (per copy).
* **link-down** -- an undirected edge delivers nothing for an explicit
  interval of sending rounds (:class:`LinkOutage`).
* **crash-stop** -- a node halts at the start of a given round and never
  executes again; messages that would be processed at or after the crash
  round are lost.

The plan is applied by the simulator at delivery time (see
``Simulator.run_protocol``'s ``fault_plan`` argument); protocols cannot
observe the plan other than through the faults themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Type, TypeVar

from .errors import ProtocolFault, RoundLimitExceeded

T = TypeVar("T")

_MASK64 = (1 << 64) - 1

# Domain-separation tags so the per-class decision streams never collide.
_TAG_DROP = 1
_TAG_DUPLICATE = 2
_TAG_DELAY_GATE = 3
_TAG_DELAY_SPAN = 4
_TAG_CRASH_RANK = 5
_TAG_CRASH_ROUND = 6
_TAG_DERIVE = 7

# Sentinel crash round meaning "never" (any finite round compares smaller).
NEVER = 1 << 62


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 finalizer (a strong 64-bit bijection)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix(*parts: int) -> int:
    """Fold integers into one 64-bit hash (order-sensitive, deterministic)."""
    h = 0x243F6A8885A308D3
    for part in parts:
        h = _splitmix64(h ^ (part & _MASK64))
    return h


class LinkOutage(NamedTuple):
    """An undirected link delivers nothing for rounds ``start..end`` inclusive.

    The interval refers to *sending* rounds: a message queued in round ``r``
    with ``start <= r <= end`` is lost, in both directions.
    """

    u: int
    v: int
    start: int
    end: int


def fresh_fault_counters() -> Dict[str, int]:
    """A zeroed per-fault-class counter dict (the simulator fills it in)."""
    return {
        "dropped": 0,
        "duplicated": 0,
        "delayed": 0,
        "delay_rounds": 0,
        "link_down": 0,
        "crashed_nodes": 0,
        "lost_to_crash": 0,
    }


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule, parameterized by a single seed.

    Parameters
    ----------
    seed:
        The only source of randomness; same seed => byte-identical schedule.
    drop_rate / duplicate_rate / delay_rate:
        Per-delivery-event probabilities in ``[0, 1]``.
    max_delay:
        Upper bound (in rounds) on an injected delay; must be >= 1 whenever
        ``delay_rate > 0``.
    crash_fraction:
        Fraction of the ``n`` nodes (rounded down) that crash-stop; the
        victims and their crash rounds are sampled deterministically from the
        seed once ``n`` is known (:meth:`crash_schedule`).
    crash_round:
        Latest round (inclusive, >= 1) by which a sampled crash occurs.
    crashes:
        Explicit crash-stop schedule ``{node: round}``; overrides sampling
        for those nodes.  A node crashing at round ``t`` executes rounds
        ``0..t-1`` and never again.
    link_outages:
        Explicit :class:`LinkOutage` intervals.
    """

    seed: int
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 0
    crash_fraction: float = 0.0
    crash_round: int = 1
    crashes: Tuple[Tuple[int, int], ...] = ()
    link_outages: Tuple[LinkOutage, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "crash_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_rate > 0 and self.max_delay < 1:
            raise ValueError("max_delay must be >= 1 when delay_rate > 0")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if self.crash_round < 1:
            raise ValueError("crash_round must be >= 1")
        # Normalize mapping-style inputs so the plan stays hashable/frozen.
        if isinstance(self.crashes, Mapping):
            object.__setattr__(
                self, "crashes", tuple(sorted(self.crashes.items()))
            )
        else:
            object.__setattr__(self, "crashes", tuple(tuple(p) for p in self.crashes))
        for node, round_index in self.crashes:
            if round_index < 0:
                raise ValueError(f"crash round for node {node} must be >= 0")
        object.__setattr__(
            self,
            "link_outages",
            tuple(LinkOutage(*entry) for entry in self.link_outages),
        )

    # -- activity ------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the plan can inject any fault at all."""
        return bool(
            self.drop_rate
            or self.duplicate_rate
            or self.delay_rate
            or self.crash_fraction
            or self.crashes
            or self.link_outages
        )

    # -- per-event decisions (pure functions of the seed) --------------
    def _uniform(self, tag: int, *key: int) -> float:
        """Deterministic uniform in ``[0, 1)`` for one event coordinate."""
        return _mix(self.seed, tag, *key) / 2.0**64

    def drops(self, round_index: int, sender: int, receiver: int, copy: int) -> bool:
        """Whether this delivery event is dropped."""
        if not self.drop_rate:
            return False
        return self._uniform(_TAG_DROP, round_index, sender, receiver, copy) < self.drop_rate

    def duplicates(self, round_index: int, sender: int, receiver: int, copy: int) -> bool:
        """Whether this delivery event is duplicated (delivered twice)."""
        if not self.duplicate_rate:
            return False
        return (
            self._uniform(_TAG_DUPLICATE, round_index, sender, receiver, copy)
            < self.duplicate_rate
        )

    def delay(self, round_index: int, sender: int, receiver: int, copy: int) -> int:
        """Injected delay in rounds (0 = on time) for this delivery event."""
        if not self.delay_rate:
            return 0
        if self._uniform(_TAG_DELAY_GATE, round_index, sender, receiver, copy) >= self.delay_rate:
            return 0
        span = _mix(self.seed, _TAG_DELAY_SPAN, round_index, sender, receiver, copy)
        return 1 + span % self.max_delay

    def link_down(self, round_index: int, u: int, v: int) -> bool:
        """Whether the (undirected) link ``{u, v}`` is down for sends in ``round_index``."""
        if not self.link_outages:
            return False
        a, b = (u, v) if u <= v else (v, u)
        for outage in self.link_outages:
            ou, ov = (outage.u, outage.v) if outage.u <= outage.v else (outage.v, outage.u)
            if ou == a and ov == b and outage.start <= round_index <= outage.end:
                return True
        return False

    def crash_schedule(self, num_vertices: int) -> Dict[int, int]:
        """The crash-stop schedule ``{node: crash_round}`` for an ``n``-node run.

        Sampled victims are the ``floor(crash_fraction * n)`` nodes with the
        smallest seed-derived rank; each gets a deterministic crash round in
        ``1..crash_round``.  Explicit ``crashes`` entries override sampling.
        """
        schedule: Dict[int, int] = {}
        k = int(self.crash_fraction * num_vertices)
        if k > 0:
            ranked = sorted(
                range(num_vertices),
                key=lambda v: (_mix(self.seed, _TAG_CRASH_RANK, v), v),
            )
            for v in ranked[:k]:
                schedule[v] = 1 + _mix(self.seed, _TAG_CRASH_ROUND, v) % self.crash_round
        for node, round_index in self.crashes:
            if 0 <= node < num_vertices:
                schedule[node] = round_index
        return schedule

    # -- derivation ----------------------------------------------------
    def derive(self, salt: int) -> "FaultPlan":
        """A plan with the same fault profile but an independent seed stream."""
        return replace(self, seed=_mix(self.seed, _TAG_DERIVE, salt))

    def retry(self, attempt: int) -> "FaultPlan":
        """The plan to use for retry ``attempt`` (attempt 0 = the plan itself).

        Retries of a faulted primitive re-run under a *derived* plan so the
        retry sees an independent (but still fully deterministic) fault
        schedule -- retrying under the identical schedule would fail the
        identical way.
        """
        if attempt <= 0:
            return self
        return self.derive(attempt)

    def sub_protocol(
        self, salt: int, crash_at: Mapping[int, int], start: int, length: int
    ) -> "FaultPlan":
        """The plan of one sub-protocol of a multi-protocol construction.

        The sub-protocol occupies global rounds ``start..start+length-1``.  Its
        plan has an independent seed stream (:meth:`derive` with ``salt``),
        and its crash schedule is ``crash_at`` (the construction's global
        :meth:`crash_schedule`) projected onto local round numbering: a node
        crashing at or before ``start`` is dead from local round 0, one
        crashing inside the window dies at its local round, and later crashes
        are omitted.  So a crash-stopped node stays dead for the rest of the
        construction.
        """
        local: Dict[int, int] = {}
        for v, r in crash_at.items():
            if r <= start:
                local[v] = 0
            elif r < start + length:
                local[v] = r - start
        return replace(
            self.derive(salt), crash_fraction=0.0, crashes=tuple(sorted(local.items()))
        )

    # -- serialization -------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A JSON-safe description of the plan (round-trips via :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "max_delay": self.max_delay,
            "crash_fraction": self.crash_fraction,
            "crash_round": self.crash_round,
            "crashes": [list(pair) for pair in self.crashes],
            "link_outages": [list(outage) for outage in self.link_outages],
        }

    to_dict = describe

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`describe` output."""
        return cls(
            seed=int(data["seed"]),
            drop_rate=float(data.get("drop_rate", 0.0)),
            duplicate_rate=float(data.get("duplicate_rate", 0.0)),
            delay_rate=float(data.get("delay_rate", 0.0)),
            max_delay=int(data.get("max_delay", 0)),
            crash_fraction=float(data.get("crash_fraction", 0.0)),
            crash_round=int(data.get("crash_round", 1)),
            crashes=tuple(tuple(pair) for pair in data.get("crashes", ())),
            link_outages=tuple(
                LinkOutage(*entry) for entry in data.get("link_outages", ())
            ),
        )


def fault_round_limit(nominal_rounds: int, plan: Optional[FaultPlan]) -> int:
    """A safe round budget for a faulted protocol with schedule ``nominal_rounds``.

    Injected delays stretch each scheduled round by up to ``max_delay`` extra
    rounds; the factor-of-two slack plus a small constant absorbs retransmit
    cascades without letting a genuinely wedged run spin forever.
    """
    stretch = 1 + (plan.max_delay if plan is not None else 0)
    return (nominal_rounds + 1) * stretch * 2 + 8


def run_with_retries(
    attempt: Callable[[FaultPlan, int], T],
    plan: FaultPlan,
    max_attempts: int,
    label: str,
    reason: str,
    retry_on: Type[Exception] = RoundLimitExceeded,
) -> T:
    """The retry policy every fault-hardened primitive shares.

    Calls ``attempt(plan.retry(k), k + 1)`` for ``k = 0, 1, ...`` until one
    call returns, re-running on ``retry_on`` (at least once, at most
    ``max_attempts`` times).  When the last attempt fails too, raises
    :class:`~repro.congest.errors.ProtocolFault` with ``label``, ``reason``
    and the attempt count.
    """
    attempts = max(1, max_attempts)
    for k in range(attempts):
        try:
            return attempt(plan.retry(k), k + 1)
        except retry_on:
            if k == attempts - 1:
                raise ProtocolFault(label, reason, attempts=attempts)
    raise AssertionError("unreachable")
