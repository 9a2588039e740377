"""Maximum common subgraph and subgraph distance (Definitions 7 and 8), by
search: the oracle of the structural filter's signature bound and of
relaxation-based verification.

``dis(q, g) = |E(q)| - |mcs(q, g)|``: the minimum number of edges that must
be removed from the query so that what remains is subgraph isomorphic to
``g``.  The paper's similarity predicate is ``dis(q, g) <= δ``.

Computing the MCS exactly is NP-hard; :func:`subgraph_distance` searches by
*relaxation depth*: it checks whether any deletion of ``d`` query edges yields
a subgraph-isomorphic remainder, for ``d = 0, 1, ..``, testing each with the
generic join.  :func:`signature_distance_lower_bound` skips the depths that
cannot succeed; production reads the same bound for every graph at once off
the structural index's signature postings
(:meth:`~repro.structural.feature_index.StructuralFeatureIndex.signature_missing`).
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.exceptions import ConfigurationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.isomorphism.generic_join import is_subgraph_isomorphic

DEFAULT_MAX_COMBINATIONS = 200_000


def signature_distance_lower_bound(query: LabeledGraph, target: LabeledGraph) -> int:
    """A cheap lower bound on ``dis(query, target)``.

    Every query edge whose (endpoint labels, edge label) signature does not
    exist in the target must be deleted, and the target can absorb at most as
    many copies of a signature as it contains.
    """
    target_signatures = target.edge_signature_counts()
    return sum(
        max(0, count - target_signatures.get(signature, 0))
        for signature, count in query.edge_signature_counts().items()
    )


def subgraph_distance(
    query: LabeledGraph,
    target: LabeledGraph,
    max_distance: int | None = None,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> int | None:
    """The subgraph distance ``dis(query, target)`` (Definition 8), or None
    when it exceeds ``max_distance`` (None searches up to ``|E(query)|``).

    A depth with more than ``max_combinations`` deletion sets is tried with a
    greedy deletion instead (still sound, possibly overestimating).
    """
    num_edges = query.num_edges
    limit = num_edges if max_distance is None else min(max_distance, num_edges)
    lower_bound = signature_distance_lower_bound(query, target)
    if lower_bound > limit:
        return None
    edge_keys = sorted(query.edge_keys(), key=repr)
    for depth in range(lower_bound, limit + 1):
        if depth == 0:
            if is_subgraph_isomorphic(query, target):
                return 0
            continue
        if math.comb(num_edges, depth) > max_combinations:
            if _greedy_relaxation_matches(query, target, depth):
                return depth
            continue
        for deletion in combinations(edge_keys, depth):
            remaining = [key for key in edge_keys if key not in set(deletion)]
            if is_subgraph_isomorphic(query.subgraph_by_edges(remaining), target):
                return depth
    return None


def is_subgraph_similar(
    query: LabeledGraph,
    target: LabeledGraph,
    distance_threshold: int,
) -> bool:
    """``query ⊆sim target``: subgraph distance at most ``distance_threshold``."""
    if distance_threshold < 0:
        raise ConfigurationError("distance_threshold must be >= 0")
    if distance_threshold >= query.num_edges:
        return True
    return subgraph_distance(query, target, max_distance=distance_threshold) is not None


def maximum_common_subgraph_size(
    query: LabeledGraph, target: LabeledGraph, max_distance: int | None = None
) -> int | None:
    """``|mcs(query, target)|`` in edges (Definition 7); None when the
    distance search was capped before finding a match."""
    distance = subgraph_distance(query, target, max_distance=max_distance)
    if distance is None:
        return None
    return query.num_edges - distance


def _greedy_relaxation_matches(query: LabeledGraph, target: LabeledGraph, depth: int) -> bool:
    """Greedy fallback for huge deletion spaces.

    Repeatedly deletes the query edge whose signature is scarcest in the
    target; sound (only returns True when a real match is found) but may miss
    matches that an exhaustive search would find.
    """
    working = query.copy()
    target_signatures = target.edge_signature_counts()
    for _ in range(depth):
        keys = list(working.edge_keys())
        if not keys:
            break
        # the first scarcest edge in the working graph's order
        working.remove_edge(
            *min(keys, key=lambda key: target_signatures.get(working.edge_signature(key), 0))
        )
    working.remove_isolated_vertices()
    return is_subgraph_isomorphic(working, target)
