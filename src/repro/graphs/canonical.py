"""Canonical forms for small labeled graphs.

Feature mining and query relaxation need to deduplicate graphs that are
isomorphic to each other.  For the small graphs involved (features of at most
a handful of vertices, relaxed queries) an exact canonical form based on
iterative label refinement plus a bounded permutation search is affordable
and simple to reason about.

The canonical form is a string; two labeled graphs receive the same string
if and only if they are isomorphic (respecting vertex and edge labels), up to
the permutation cap.  When a graph exceeds ``max_exact_vertices`` the fallback
is a refinement-only certificate, which is still a valid *hash* (isomorphic
graphs always agree) but may rarely collide for non-isomorphic graphs; a
caller that needs exactness treats it as a bucketing key and confirms equal
hashes with the generic join
(:func:`repro.isomorphism.generic_join.is_subgraph_isomorphic`), as
``relax_query`` does.
"""

from __future__ import annotations

from itertools import groupby, permutations, product

from repro.graphs.labeled_graph import LabeledGraph

MAX_EXACT_VERTICES = 8


def _refined_colors(graph: LabeledGraph, rounds: int = 3) -> dict:
    """Weisfeiler-Lehman style color refinement with label seeds."""
    colors = {v: repr(graph.vertex_label(v)) for v in graph.vertices()}
    for _ in range(rounds):
        new_colors = {}
        for v in graph.vertices():
            neighbor_sig = sorted(
                (colors[n], repr(graph.edge_label(v, n))) for n in graph.neighbors(v)
            )
            new_colors[v] = repr((colors[v], neighbor_sig))
        colors = new_colors
    return colors


def refinement_certificate(graph: LabeledGraph) -> str:
    """A permutation-invariant certificate based on color refinement only."""
    colors = _refined_colors(graph)
    vertex_part = sorted(colors.values())
    edge_part = sorted(
        repr((tuple(sorted((colors[u], colors[v]))), repr(graph.edge_label(u, v))))
        for u, v in graph.edge_keys()
    )
    return repr((vertex_part, edge_part))


def _ordering_string(graph: LabeledGraph, order: list) -> str:
    """Serialize the graph under a fixed vertex ordering."""
    index = {v: i for i, v in enumerate(order)}
    vertex_part = [repr(graph.vertex_label(v)) for v in order]
    edge_part = sorted(
        (min(index[u], index[v]), max(index[u], index[v]), repr(graph.edge_label(u, v)))
        for u, v in graph.edge_keys()
    )
    return repr((vertex_part, edge_part))


def canonical_form(graph: LabeledGraph, max_exact_vertices: int = MAX_EXACT_VERTICES) -> str:
    """Return a canonical string for ``graph``.

    Exact (isomorphism-complete) for graphs with at most
    ``max_exact_vertices`` vertices; otherwise falls back to the refinement
    certificate prefixed so the two regimes can never collide.
    """
    n = graph.num_vertices
    if n == 0:
        return "empty"
    if n > max_exact_vertices:
        return "wl:" + refinement_certificate(graph)

    colors = _refined_colors(graph)
    vertices = sorted(graph.vertices(), key=lambda v: (colors[v], repr(v)))
    # Candidate orderings keep the refined color classes in sorted color
    # order and permute only within a class: the product of the per-class
    # permutations, not all n! orderings.  The lexicographically smallest
    # serialization wins.
    classes = [list(group) for _, group in groupby(vertices, key=colors.__getitem__)]
    best: str | None = None
    for arrangement in product(*(permutations(members) for members in classes)):
        order = [vertex for members in arrangement for vertex in members]
        candidate = _ordering_string(graph, order)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return "exact:" + best
