"""The optimal weighted set cover, by exhaustive search: the oracle of the
greedy cover (Algorithm 1) that bounds ``Usim(q)`` in
:mod:`repro.core.set_cover`, on instances small enough to enumerate."""

from __future__ import annotations

from itertools import combinations

from repro.core.set_cover import SetCoverSolution, WeightedSet
from repro.exceptions import ConfigurationError


def exhaustive_weighted_set_cover(
    universe: frozenset | set,
    candidate_sets: list[WeightedSet],
    max_sets: int = 16,
) -> SetCoverSolution:
    """Optimal cover by trying every subset of the candidates.

    Raises :class:`ConfigurationError` beyond ``max_sets`` candidates.  Every
    subset size is tried: with non-negative weights a cover with more sets can
    still weigh less than the lightest cover with fewer.
    """
    if len(candidate_sets) > max_sets:
        raise ConfigurationError(
            f"exhaustive set cover limited to {max_sets} candidate sets, "
            f"got {len(candidate_sets)}"
        )
    universe = frozenset(universe)
    best: SetCoverSolution | None = None
    for size in range(1, len(candidate_sets) + 1):
        for subset in combinations(candidate_sets, size):
            covered = frozenset().union(*(c.members for c in subset))
            if not universe <= covered:
                continue
            weight = sum(c.weight for c in subset)
            if best is None or weight < best.total_weight:
                best = SetCoverSolution(
                    tuple(sorted(c.set_id for c in subset)), weight, covered=True
                )
    if best is None:
        return SetCoverSolution((), 0.0, covered=False)
    return best
