"""Common result type for baseline spanner algorithms.

Baselines are deliberately lighter-weight than the main algorithm: they
produce the spanner plus just enough metadata (claimed guarantee, nominal
round cost where the algorithm is distributed, per-phase counts) for the
Table 1 / Table 2 comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.parameters import StretchGuarantee
from ..graphs.graph import Graph


@dataclass
class BaselineResult:
    """Outcome of running one baseline spanner construction."""

    name: str
    graph: Graph
    spanner: Graph
    guarantee: Optional[StretchGuarantee] = None
    multiplicative_stretch: Optional[float] = None
    nominal_rounds: Optional[int] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Number of edges in the produced spanner."""
        return self.spanner.num_edges

    def effective_guarantee(self) -> StretchGuarantee:
        """Return the guarantee as a :class:`StretchGuarantee` (multiplicative-only baselines get additive 0)."""
        if self.guarantee is not None:
            return self.guarantee
        if self.multiplicative_stretch is not None:
            return StretchGuarantee(multiplicative=self.multiplicative_stretch, additive=0.0)
        raise ValueError(f"baseline {self.name} does not declare a stretch guarantee")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary.

        Emits the unified run-result schema
        (:data:`repro.algorithms.result.RUN_RESULT_KEYS`) shared with the
        engine's :class:`~repro.core.result.SpannerResult`, so comparison code
        never has to reconcile two key sets (the baseline's name is the
        ``algorithm`` field; per-phase stats move from ``details`` to
        ``phases``).
        """
        from ..algorithms.result import RunResult

        return RunResult.from_baseline_result(self).to_dict()
