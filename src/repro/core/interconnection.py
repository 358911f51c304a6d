"""Engine-agnostic helpers for the interconnection step (paper Section 2.3).

In phase ``i`` every cluster ``C`` of ``U_i`` (clusters that were not
superclustered) is connected to *all* clusters of ``P_i`` whose centers lie
within ``delta_i`` of ``r_C`` -- the center already knows exactly which those
are (Theorem 2.1), so the step only traces the corresponding shortest paths
back and adds their edges to the spanner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def interconnection_requests(
    unclustered_centers: Iterable[int],
    near_centers: Mapping[int, Sequence[int]],
) -> Dict[int, Sequence[int]]:
    """Build the trace-back request map for the interconnection step.

    For every center ``r_C`` of an unclustered cluster, the targets are all
    other centers it learned about during Algorithm 1: ``near_centers`` maps
    a center to that sorted list (the ``near_centers`` view of either
    engine's exploration outcome).  Because unclustered clusters are never
    popular (Lemma 2.4), Theorem 2.1 guarantees this is exactly the set of
    centers within ``delta_i``.  The lists are shared, not copied -- treat
    them as read-only.
    """
    return {center: near_centers[center] for center in unclustered_centers}


def count_interconnection_paths(requests: Mapping[int, Sequence[int]]) -> int:
    """Total number of center-to-center paths the step will add."""
    return sum(len(targets) for targets in requests.values())


def flatten_requests(requests: Mapping[int, Sequence[int]]) -> List[tuple]:
    """The request map as a flat, deterministically ordered pair list.

    This is the ``interconnection_pairs`` representation stored in the phase
    records: sorted by initiating center, then by target (the target lists
    are already sorted by construction).
    """
    return [
        (center, target)
        for center in sorted(requests)
        for target in requests[center]
    ]
