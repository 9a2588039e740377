"""Possible-world semantics, literally (Definition 3, Equation 1): the oracle
every exact computation is held against.

:func:`world_weight` multiplies each factor's JPT entry
(:func:`factor_probability`) into a world's weight;
:func:`enumerate_possible_worlds` lists every world of a probabilistic graph
with its probability; :func:`exact_sip` and
:func:`similarity_probability_by_enumeration` read ``Pr(f ⊆iso g)`` and
``Pr(q ⊆sim g)`` off that list, the second with a subgraph-distance test per
world (:mod:`repro.reference.mcs`).  Enumeration is exponential in the number
of uncertain edges, so each entry point refuses graphs beyond a hard limit.
Production computes the same quantities from compiled world models
(:mod:`repro.probability.world_batch`, :mod:`repro.probability.batch_kernel`)
and relaxed-query embeddings (Lemma 1, Equation 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from repro.exceptions import VerificationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import (
    EdgeAssignment,
    EdgeKey,
    NeighborEdgeFactor,
    ProbabilisticGraph,
)
from repro.isomorphism.embeddings import find_embeddings
from repro.reference.mcs import is_subgraph_similar

DEFAULT_MAX_EDGES = 22
MAX_ENUMERATION_EDGES = 18
MAX_EXACT_SIP_EDGES = 20


def factor_probability(factor: NeighborEdgeFactor, assignment: EdgeAssignment) -> float:
    """The factor's JPT entry for ``assignment`` restricted to its edges."""
    return factor.jpt.value({e: assignment[e] for e in factor.edges})


def world_weight(graph: ProbabilisticGraph, assignment: EdgeAssignment) -> float:
    """Unnormalized product weight of a full edge assignment (Equation 1)."""
    weight = 1.0
    for factor in graph.factors:
        weight *= factor_probability(factor, assignment)
        if weight == 0.0:
            return 0.0
    return weight


def world_graph(
    graph: ProbabilisticGraph, assignment: EdgeAssignment, name: str | None = None
) -> LabeledGraph:
    """The possible world of ``assignment``: every vertex (Definition 3) and
    the edges whose variable is 1."""
    skeleton = graph.skeleton
    world = LabeledGraph(name=name)
    for vertex in skeleton.vertices():
        world.add_vertex(vertex, skeleton.vertex_label(vertex))
    for key in skeleton.edge_keys():
        if assignment.get(key, 0) == 1:
            world.add_edge(key[0], key[1], skeleton.edge_label(*key))
    return world


@dataclass(frozen=True)
class PossibleWorld:
    """One possible world: its edge assignment, graph and probability."""

    assignment: tuple[tuple[EdgeKey, int], ...]
    graph: LabeledGraph
    probability: float

    def assignment_dict(self) -> dict[EdgeKey, int]:
        return dict(self.assignment)

    def present_edges(self) -> frozenset:
        return frozenset(key for key, value in self.assignment if value == 1)


def _edge_variables(graph: ProbabilisticGraph, max_edges: int, what: str) -> list[EdgeKey]:
    edge_vars = graph.edge_variables()
    if len(edge_vars) > max_edges:
        raise VerificationError(
            f"refusing to {what} 2**{len(edge_vars)} possible worlds (limit 2**{max_edges})"
        )
    return edge_vars


def enumerate_possible_worlds(
    graph: ProbabilisticGraph,
    normalize: bool = True,
    max_edges: int = DEFAULT_MAX_EDGES,
    skip_zero: bool = True,
) -> list[PossibleWorld]:
    """Every possible world of ``graph`` with its probability, sorted by
    decreasing probability (ties broken by assignment).

    ``normalize`` rescales the probabilities to sum to exactly 1, which only
    matters when factors overlap on shared edges; ``skip_zero`` drops worlds
    of probability zero.  More than ``max_edges`` uncertain edges raise
    :class:`VerificationError`.
    """
    edge_vars = _edge_variables(graph, max_edges, "enumerate")
    worlds: list[PossibleWorld] = []
    total = 0.0
    for values in iter_product((0, 1), repeat=len(edge_vars)):
        assignment = dict(zip(edge_vars, values))
        weight = world_weight(graph, assignment)
        total += weight
        if skip_zero and weight == 0.0:
            continue
        worlds.append(
            PossibleWorld(
                assignment=tuple(sorted(assignment.items(), key=lambda kv: repr(kv[0]))),
                graph=world_graph(graph, assignment),
                probability=weight,
            )
        )
    if normalize and total > 0 and abs(total - 1.0) > 1e-12:
        worlds = [
            PossibleWorld(w.assignment, w.graph, w.probability / total) for w in worlds
        ]
    worlds.sort(key=lambda w: (-w.probability, repr(w.assignment)))
    return worlds


def total_world_mass(graph: ProbabilisticGraph, max_edges: int = DEFAULT_MAX_EDGES) -> float:
    """Sum of raw (unnormalized) product weights over all possible worlds:
    exactly 1.0 for an edge-partitioned graph."""
    edge_vars = _edge_variables(graph, max_edges, "sum over")
    return sum(
        world_weight(graph, dict(zip(edge_vars, values)))
        for values in iter_product((0, 1), repeat=len(edge_vars))
    )


def exact_sip(
    graph: ProbabilisticGraph, feature: LabeledGraph, max_edges: int = MAX_EXACT_SIP_EDGES
) -> float:
    """``Pr(f ⊆iso g)`` (Definition 6): the mass of the worlds that contain
    an embedding of ``feature``."""
    if graph.num_edges > max_edges:
        raise VerificationError(
            f"exact SIP limited to {max_edges} uncertain edges; graph has {graph.num_edges}"
        )
    embeddings = find_embeddings(feature, graph.skeleton, limit=None)
    if not embeddings:
        return 0.0
    total = 0.0
    for world in enumerate_possible_worlds(graph):
        present = world.present_edges()
        if any(embedding.edges <= present for embedding in embeddings):
            total += world.probability
    return total


def similarity_probability_by_enumeration(
    query: LabeledGraph,
    graph: ProbabilisticGraph,
    distance_threshold: int,
    max_edges: int = MAX_ENUMERATION_EDGES,
) -> float:
    """``Pr(q ⊆sim g)`` by its definition: the mass of the worlds within
    subgraph distance ``distance_threshold`` of ``query`` (Definitions 3 and
    8), with no relaxed query and no event."""
    if graph.num_edges > max_edges:
        raise VerificationError(
            f"possible-world enumeration limited to {max_edges} uncertain edges; "
            f"graph has {graph.num_edges}"
        )
    total = 0.0
    for world in enumerate_possible_worlds(graph):
        if is_subgraph_similar(query, world.graph, distance_threshold):
            total += world.probability
    return min(1.0, total)
