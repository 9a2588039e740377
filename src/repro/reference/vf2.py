"""Labeled subgraph isomorphism in the style of VF2 (Definition 5, [10]): the
reference the join engine is tested against.

The paper uses VF2 for every ``rq ⊆iso f`` / ``f ⊆iso gc`` test during
pruning and index construction; here the generic join
(:mod:`repro.isomorphism.generic_join`) answers all of them, and this
backtracking matcher is the oracle it must agree with.  It matches *subgraph
monomorphism*: an injective mapping of the pattern's vertices into the target
such that every pattern edge maps onto a target edge with matching vertex and
edge labels.  The target may contain additional edges among the mapped
vertices (the paper's Definition 5 does not require an induced match).

Pruning rules:

* vertex label equality and degree feasibility,
* consistency of already-mapped neighbours (the core VF2 feasibility rule),
* a global quick reject on vertex/edge label multisets.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.graphs.labeled_graph import LabeledGraph, VertexId, edge_key
from repro.isomorphism.embeddings import Embedding, EmbeddingEnumeration
from repro.isomorphism.generic_join import connectivity_order

MatchCallback = Callable[[dict[VertexId, VertexId]], bool]


class VF2Matcher:
    """Reusable matcher for one (pattern, target) pair.

    Parameters
    ----------
    pattern:
        The smaller graph to embed.
    target:
        The graph to embed into.
    label_sensitive:
        When True (default) vertex and edge labels must match exactly; when
        False only the structure is matched.
    """

    def __init__(
        self,
        pattern: LabeledGraph,
        target: LabeledGraph,
        label_sensitive: bool = True,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.label_sensitive = label_sensitive
        self._pattern_order = connectivity_order(pattern)
        self._pattern_neighbors: dict[VertexId, tuple[VertexId, ...]] = {
            v: tuple(pattern.neighbors(v)) for v in pattern.vertices()
        }
        self._targets_by_label: dict[object, list[VertexId]] = {}
        for vertex in target.vertices():
            key = target.vertex_label(vertex) if label_sensitive else None
            self._targets_by_label.setdefault(key, []).append(vertex)
        for pool in self._targets_by_label.values():
            pool.sort(key=repr)
        self._target_neighbor_cache: dict[VertexId, frozenset] = {}
        self._used: set[VertexId] = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """True when at least one subgraph isomorphism exists."""
        found = False

        def stop_on_first(_mapping: dict) -> bool:
            nonlocal found
            found = True
            return False  # stop enumeration

        self.for_each_mapping(stop_on_first)
        return found

    def first_mapping(self) -> dict[VertexId, VertexId] | None:
        """One mapping pattern-vertex -> target-vertex, or None."""
        result: dict[VertexId, VertexId] | None = None

        def keep_first(mapping: dict) -> bool:
            nonlocal result
            result = dict(mapping)
            return False

        self.for_each_mapping(keep_first)
        return result

    def all_mappings(self, limit: int | None = None) -> list[dict[VertexId, VertexId]]:
        """All injective mappings (up to ``limit``)."""
        mappings: list[dict[VertexId, VertexId]] = []

        def collect(mapping: dict) -> bool:
            mappings.append(dict(mapping))
            return limit is None or len(mappings) < limit

        self.for_each_mapping(collect)
        return mappings

    def for_each_mapping(self, callback: MatchCallback) -> None:
        """Stream every injective mapping through ``callback``.

        ``callback`` receives the live partial-mapping dict (copy it if it
        must outlive the call) and returns False to abort enumeration.
        Mappings arrive in the matcher's deterministic depth-first order.
        """
        if not self._quick_feasible():
            return
        self._used.clear()
        self._search({}, callback)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _quick_feasible(self) -> bool:
        if self.pattern.num_vertices > self.target.num_vertices:
            return False
        if self.pattern.num_edges > self.target.num_edges:
            return False
        if not self.label_sensitive:
            return True
        pattern_vertex_counts = self.pattern.vertex_label_counts()
        target_vertex_counts = self.target.vertex_label_counts()
        for label, count in pattern_vertex_counts.items():
            if target_vertex_counts.get(label, 0) < count:
                return False
        pattern_edge_counts = self.pattern.edge_signature_counts()
        target_edge_counts = self.target.edge_signature_counts()
        for signature, count in pattern_edge_counts.items():
            if target_edge_counts.get(signature, 0) < count:
                return False
        return True

    def _target_neighbors(self, vertex: VertexId) -> frozenset:
        cached = self._target_neighbor_cache.get(vertex)
        if cached is None:
            cached = frozenset(self.target.neighbors(vertex))
            self._target_neighbor_cache[vertex] = cached
        return cached

    def _candidates(
        self, pattern_vertex: VertexId, mapping: dict[VertexId, VertexId]
    ) -> list[VertexId]:
        """Target candidates for ``pattern_vertex`` given the partial mapping."""
        used = self._used
        mapped_neighbors = [
            n for n in self._pattern_neighbors[pattern_vertex] if n in mapping
        ]
        if not mapped_neighbors:
            key = (
                self.pattern.vertex_label(pattern_vertex) if self.label_sensitive else None
            )
            pool = self._targets_by_label.get(key, [])
            return [t for t in pool if t not in used]  # pool is presorted by repr
        # candidates must be neighbours of every mapped pattern-neighbour's image
        neighbor_sets = [self._target_neighbors(mapping[n]) for n in mapped_neighbors]
        neighbor_sets.sort(key=len)
        base, rest = neighbor_sets[0], neighbor_sets[1:]
        candidates = [
            t for t in base if t not in used and all(t in s for s in rest)
        ]
        return sorted(candidates, key=repr)

    def _feasible(
        self,
        pattern_vertex: VertexId,
        target_vertex: VertexId,
        mapping: dict[VertexId, VertexId],
    ) -> bool:
        if self.label_sensitive and self.pattern.vertex_label(
            pattern_vertex
        ) != self.target.vertex_label(target_vertex):
            return False
        if self.pattern.degree(pattern_vertex) > self.target.degree(target_vertex):
            return False
        for neighbor in self._pattern_neighbors[pattern_vertex]:
            if neighbor not in mapping:
                continue
            image = mapping[neighbor]
            if not self.target.has_edge(target_vertex, image):
                return False
            if self.label_sensitive and self.pattern.edge_label(
                pattern_vertex, neighbor
            ) != self.target.edge_label(target_vertex, image):
                return False
        return True

    def _search(self, mapping: dict[VertexId, VertexId], callback: MatchCallback) -> bool:
        """Depth-first extension of ``mapping``.  Returns False to abort."""
        if len(mapping) == self.pattern.num_vertices:
            return callback(mapping)
        pattern_vertex = self._pattern_order[len(mapping)]
        for target_vertex in self._candidates(pattern_vertex, mapping):
            if not self._feasible(pattern_vertex, target_vertex, mapping):
                continue
            mapping[pattern_vertex] = target_vertex
            self._used.add(target_vertex)
            keep_going = self._search(mapping, callback)
            del mapping[pattern_vertex]
            self._used.discard(target_vertex)
            if not keep_going:
                return False
        return True


def vf2_exists(pattern: LabeledGraph, target: LabeledGraph, label_sensitive: bool = True) -> bool:
    """``pattern ⊆iso target`` by VF2."""
    return VF2Matcher(pattern, target, label_sensitive=label_sensitive).exists()


def vf2_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = None,
    label_sensitive: bool = True,
) -> EmbeddingEnumeration:
    """The distinct embeddings of ``pattern`` in ``target`` by VF2, streamed and
    deduplicated by edge set, in the canonical order of
    :func:`repro.isomorphism.embeddings.enumerate_embeddings_block`; ``truncated``
    when a distinct embedding beyond the first ``limit`` exists."""
    if pattern.num_edges == 0:
        return EmbeddingEnumeration(embeddings=[], truncated=False)
    pattern_edges = list(pattern.edge_keys())
    seen: set[frozenset] = set()
    embeddings: list[Embedding] = []
    truncated = False

    def visit(mapping: dict) -> bool:
        nonlocal truncated
        edge_set = frozenset(edge_key(mapping[u], mapping[v]) for u, v in pattern_edges)
        if edge_set in seen:
            return True
        if limit is not None and len(embeddings) >= limit:
            truncated = True  # a new distinct embedding beyond the cap
            return False
        seen.add(edge_set)
        embeddings.append(Embedding(edges=edge_set, vertices=frozenset(mapping.values())))
        return True

    VF2Matcher(pattern, target, label_sensitive=label_sensitive).for_each_mapping(visit)
    embeddings.sort(key=lambda e: repr(sorted(e.edges, key=repr)))
    return EmbeddingEnumeration(embeddings=embeddings, truncated=truncated)
