"""Weighted set cover for the tightest upper bound ``Usim(q)`` (Section 3.2.1).

Each feature ``fj`` that is a *sub*graph of some relaxed queries defines the
set ``sj = {rqi : rqi ⊇iso fj}`` with weight ``UpperB(fj)``; any cover of
``U = {rq1..rqa}`` yields a valid upper bound equal to the sum of the chosen
weights (Theorem 3), and the minimum-weight cover is the tightest such bound.
Algorithm 1 of the paper is the classical greedy ``H_n``-approximation; the
optimum it approximates is :func:`repro.reference.exhaustive_weighted_set_cover`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WeightedSet:
    """A candidate set in the cover instance: identifier, members, weight."""

    set_id: int
    members: frozenset
    weight: float


@dataclass(frozen=True)
class SetCoverSolution:
    """Chosen sets, their total weight and whether the universe was covered."""

    chosen_ids: tuple[int, ...]
    total_weight: float
    covered: bool


def greedy_weighted_set_cover(
    universe: frozenset | set,
    candidate_sets: list[WeightedSet],
) -> SetCoverSolution:
    """Algorithm 1: greedily pick the set minimizing weight per new element.

    When the candidates cannot cover the whole universe the solution is the
    best partial cover and ``covered`` is False; the caller (the pruner)
    treats an uncovered universe as "no usable upper bound" (bound 1.0).
    """
    universe = frozenset(universe)
    uncovered = set(universe)
    chosen: list[int] = []
    total = 0.0
    available = list(candidate_sets)
    while uncovered:
        best = None
        best_ratio = None
        for candidate in available:
            gain = len(candidate.members & uncovered)
            if gain == 0:
                continue
            ratio = candidate.weight / gain
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best = candidate
        if best is None:
            return SetCoverSolution(tuple(chosen), total, covered=False)
        chosen.append(best.set_id)
        total += best.weight
        uncovered -= best.members
        available = [c for c in available if c.set_id != best.set_id]
    return SetCoverSolution(tuple(chosen), total, covered=True)
