"""Maximum common subgraph and subgraph distance (Definitions 7 and 8).

``dis(q, g) = |E(q)| - |mcs(q, g)|``: the minimum number of edges that must
be removed from the query so that what remains is subgraph isomorphic to
``g``.  The paper's similarity predicate is ``dis(q, g) <= δ``.

Computing the MCS exactly is NP-hard; this module searches by *relaxation
depth*: it checks whether any deletion of ``d`` query edges yields a
subgraph-isomorphic remainder, for ``d = 0, 1, ..``.  This is exact, and fast
for the query sizes and distance thresholds the evaluation uses, because the
search stops at the first feasible depth and each candidate is tested with
the generic join.  A quick lower bound based on missing edge
signatures skips depths that cannot possibly succeed.
"""

from __future__ import annotations

from itertools import combinations

from repro.graphs.labeled_graph import LabeledGraph
from repro.isomorphism.generic_join import is_subgraph_isomorphic
from repro.exceptions import ConfigurationError

DEFAULT_MAX_COMBINATIONS = 200_000


def signature_distance_lower_bound(query: LabeledGraph, target: LabeledGraph) -> int:
    """A cheap lower bound on ``dis(query, target)``.

    Every query edge whose (endpoint labels, edge label) signature does not
    exist in the target must be deleted, and the target can absorb at most as
    many copies of a signature as it contains.
    """
    query_signatures = query.edge_signature_counts()
    target_signatures = target.edge_signature_counts()
    missing = 0
    for signature, count in query_signatures.items():
        available = target_signatures.get(signature, 0)
        if count > available:
            missing += count - available
    return missing


def subgraph_distance(
    query: LabeledGraph,
    target: LabeledGraph,
    max_distance: int | None = None,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> int | None:
    """The subgraph distance ``dis(query, target)`` (Definition 8).

    Parameters
    ----------
    max_distance:
        Stop searching beyond this depth and return ``None`` when the
        distance exceeds it.  ``None`` searches up to ``|E(query)|``.
    max_combinations:
        Safety valve on the number of deletion sets examined per depth; when
        exceeded the search falls back to a greedy (still sound, possibly
        overestimating) deletion strategy for that depth.

    Returns
    -------
    int or None
        The distance, or ``None`` when it exceeds ``max_distance``.
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
        total_combos = _n_choose_k(num_edges, depth)
        if total_combos > max_combinations:
            if _greedy_relaxation_matches(query, target, depth):
                return depth
            continue
        for deletion in combinations(edge_keys, depth):
            remaining = [key for key in edge_keys if key not in set(deletion)]
            relaxed = query.subgraph_by_edges(remaining)
            if is_subgraph_isomorphic(relaxed, target):
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
    distance = subgraph_distance(query, target, max_distance=distance_threshold)
    return distance is not None


def maximum_common_subgraph_size(
    query: LabeledGraph, target: LabeledGraph, max_distance: int | None = None
) -> int | None:
    """``|mcs(query, target)|`` in edges (Definition 7).

    ``None`` when the distance search was capped before finding a match.
    """
    distance = subgraph_distance(query, target, max_distance=max_distance)
    if distance is None:
        return None
    return query.num_edges - distance


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _n_choose_k(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


def _greedy_relaxation_matches(query: LabeledGraph, target: LabeledGraph, depth: int) -> bool:
    """Greedy fallback for huge deletion spaces.

    Repeatedly deletes the query edge whose signature is scarcest in the
    target; sound (only returns True when a real match is found) but may miss
    matches that an exhaustive search would find.
    """
    working = query.copy()
    target_signatures = target.edge_signature_counts()
    for _ in range(depth):
        worst_key = None
        worst_score = None
        for u, v in working.edge_keys():
            lu, lv = working.vertex_label(u), working.vertex_label(v)
            signature = (tuple(sorted((repr(lu), repr(lv)))), working.edge_label(u, v))
            score = target_signatures.get(signature, 0)
            if worst_score is None or score < worst_score:
                worst_score = score
                worst_key = (u, v)
        if worst_key is None:
            break
        working.remove_edge(*worst_key)
    working.remove_isolated_vertices()
    return is_subgraph_isomorphic(working, target)
