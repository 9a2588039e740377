"""Definition 1's neighbor edge set, as a predicate: the oracle the factor
scopes :func:`repro.graphs.partition_into_neighbor_sets` builds are checked
against."""

from __future__ import annotations

from repro.graphs.labeled_graph import LabeledGraph, edge_key


def is_neighbor_edge_set(graph: LabeledGraph, edges: frozenset | set) -> bool:
    """Check whether ``edges`` qualifies as a neighbor edge set of ``graph``.

    Either all edges share a common vertex, or the edges are exactly the
    three edges of a triangle.  Singleton sets qualify trivially (an isolated
    uncertain edge), which is how the generators model low-degree regions.
    """
    keys = [edge_key(u, v) for u, v in edges]
    if not keys:
        return False
    for u, v in keys:
        if not graph.has_edge(u, v):
            return False
    if len(keys) == 1:
        return True
    common = set(keys[0])
    for key in keys[1:]:
        common &= set(key)
    if common:
        return True
    vertices = set()
    for key in keys:
        vertices.update(key)
    return len(keys) == 3 and len(vertices) == 3
