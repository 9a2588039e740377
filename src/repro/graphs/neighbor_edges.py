"""Neighbor-edge sets (Definition 1 of the paper) as the factor scopes of a
probabilistic graph.

A *neighbor edge set* (``ne``) is a set of edges that are either all incident
to the same vertex or form a triangle.  Probabilistic graphs attach one joint
probability table per neighbor edge set; the paper's Figure 1 shows two such
tables for graph 002 (a triangle set and a star set).

:func:`partition_into_neighbor_sets` splits the edge set of a deterministic
graph into star-shaped neighbor edge sets of bounded size.  The synthetic
dataset generators use it, so every edge lies in exactly one factor and the
possible-world product measure is a proper distribution.  The definition
itself is the oracle :func:`repro.reference.is_neighbor_edge_set`.
"""

from __future__ import annotations

from repro.graphs.labeled_graph import LabeledGraph, VertexId
from repro.exceptions import ConfigurationError

EdgeKey = tuple[VertexId, VertexId]


def partition_into_neighbor_sets(
    graph: LabeledGraph, max_size: int = 4
) -> list[frozenset]:
    """Partition the edge set of ``graph`` into neighbor edge sets.

    The partition is built greedily: vertices are visited in decreasing
    degree order and each vertex claims up to ``max_size`` of its not yet
    assigned incident edges as one star-shaped neighbor edge set.  Remaining
    single edges become singleton sets.  Every edge ends up in exactly one
    set, so the product of the per-set joint probability tables is a proper
    distribution over possible worlds.

    Parameters
    ----------
    graph:
        The deterministic skeleton.
    max_size:
        Maximum number of edges per neighbor edge set.  Bounding the size
        keeps joint probability tables small (``2**max_size`` rows).
    """
    if max_size < 1:
        raise ConfigurationError("max_size must be >= 1")
    assigned: set[EdgeKey] = set()
    partition: list[frozenset] = []
    ordered_vertices = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), repr(v)))
    for vertex in ordered_vertices:
        unclaimed = [
            edge.key() for edge in graph.incident_edges(vertex) if edge.key() not in assigned
        ]
        unclaimed.sort(key=repr)
        while len(unclaimed) >= 2:
            chunk = unclaimed[:max_size]
            unclaimed = unclaimed[max_size:]
            partition.append(frozenset(chunk))
            assigned.update(chunk)
        # a single leftover edge stays unassigned here; it may join another
        # vertex's star later or become a singleton below
    for key in graph.edge_keys():
        if key not in assigned:
            partition.append(frozenset({key}))
            assigned.add(key)
    return partition

