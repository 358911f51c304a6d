"""Synchronous CONGEST-model simulator: nodes, messages, rounds, accounting."""

from .errors import (
    CongestError,
    CongestionViolation,
    InvalidDestination,
    MessageTooLarge,
    ProtocolError,
    ProtocolFault,
    RoundLimitExceeded,
)
from .faults import FaultPlan, LinkOutage, fault_round_limit, fresh_fault_counters
from .ledger import PhaseCharge, RoundLedger
from .message import Message, count_words
from .node import NodeContext, NodeProgram
from .simulator import (
    DEFAULT_BANDWIDTH_MESSAGES,
    DEFAULT_MAX_WORDS_PER_MESSAGE,
    ProtocolRun,
    Simulator,
)
from .tracing import NullTracer, RecordingTracer, Tracer

__all__ = [
    "CongestError",
    "CongestionViolation",
    "DEFAULT_BANDWIDTH_MESSAGES",
    "DEFAULT_MAX_WORDS_PER_MESSAGE",
    "FaultPlan",
    "InvalidDestination",
    "LinkOutage",
    "Message",
    "MessageTooLarge",
    "NodeContext",
    "NodeProgram",
    "NullTracer",
    "PhaseCharge",
    "ProtocolError",
    "ProtocolFault",
    "ProtocolRun",
    "RecordingTracer",
    "RoundLedger",
    "RoundLimitExceeded",
    "Simulator",
    "Tracer",
    "count_words",
    "fault_round_limit",
    "fresh_fault_counters",
]
