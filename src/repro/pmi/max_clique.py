"""Maximum weight clique search.

Section 4.1 of the paper turns "pick the set of pairwise-disjoint embeddings
(or cuts) that yields the tightest bound" into a maximum *weight* clique
problem on a compatibility graph whose nodes are embeddings/cuts and whose
links join disjoint pairs, with node weight ``-ln(1 - Pr(·|·))``.  The paper
uses the branch-and-bound solver of Balas & Xue [7]; we implement a compact
exact branch-and-bound with a greedy warm start and fall back to the greedy
solution when the instance exceeds a node budget.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from repro.exceptions import ConfigurationError

Node = Hashable

DEFAULT_NODE_BUDGET = 200_000


def maximum_weight_clique(
    adjacency: Mapping[Node, set],
    weights: Mapping[Node, float],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[Node], float]:
    """Find a maximum-weight clique.

    Parameters
    ----------
    adjacency:
        Undirected adjacency mapping node -> set of adjacent nodes.  Nodes
        absent from some neighbour set are simply not adjacent; the mapping
        must contain every node as a key.
    weights:
        Non-negative node weights.
    node_budget:
        Rough cap on branch-and-bound recursion steps; beyond it the best
        clique found so far (at least as good as the greedy warm start) is
        returned.

    Returns
    -------
    (clique, weight):
        The chosen nodes (sorted by repr) and their total weight.  The empty
        clique with weight 0.0 is returned for an empty input.
    """
    nodes = sorted(adjacency, key=repr)
    if not nodes:
        return [], 0.0
    for node in nodes:
        if weights.get(node, 0.0) < 0:
            raise ConfigurationError(f"negative weight for node {node!r}")

    greedy_clique = _greedy_clique(adjacency, weights)
    best = {
        "clique": list(greedy_clique),
        "weight": sum(weights.get(n, 0.0) for n in greedy_clique),
        "steps": 0,
    }

    # order candidates by decreasing weight for better pruning
    ordered = sorted(nodes, key=lambda n: (-weights.get(n, 0.0), repr(n)))

    def expand(current: list[Node], current_weight: float, candidates: list[Node]) -> None:
        best["steps"] += 1
        if best["steps"] > node_budget:
            return
        remaining_weight = sum(weights.get(n, 0.0) for n in candidates)
        if current_weight + remaining_weight <= best["weight"]:
            return
        if not candidates:
            if current_weight > best["weight"]:
                best["weight"] = current_weight
                best["clique"] = list(current)
            return
        for index, node in enumerate(candidates):
            # prune: even taking every remaining candidate cannot beat best
            rest_weight = sum(weights.get(n, 0.0) for n in candidates[index:])
            if current_weight + rest_weight <= best["weight"]:
                break
            new_candidates = [
                other for other in candidates[index + 1 :] if other in adjacency[node]
            ]
            expand([*current, node], current_weight + weights.get(node, 0.0), new_candidates)

    expand([], 0.0, ordered)
    if not best["clique"] and nodes:
        # all weights are zero: return a single arbitrary node for stability
        best["clique"] = [ordered[0]]
        best["weight"] = weights.get(ordered[0], 0.0)
    clique = sorted(best["clique"], key=repr)
    return clique, best["weight"]


def _greedy_clique(adjacency: Mapping[Node, set], weights: Mapping[Node, float]) -> list[Node]:
    """Greedy warm start: repeatedly add the heaviest compatible node."""
    ordered = sorted(adjacency, key=lambda n: (-weights.get(n, 0.0), repr(n)))
    clique: list[Node] = []
    for node in ordered:
        if all(node in adjacency[member] for member in clique):
            clique.append(node)
    return clique
