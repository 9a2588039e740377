"""Undirected labeled graphs (Definition 1 of the paper).

A :class:`LabeledGraph` has hashable vertex identifiers, a label per vertex, a
label per edge, and no parallel edges or self loops.  It is the deterministic
substrate used for query graphs, features, possible worlds, and the certain
skeleton ``gc`` of probabilistic graphs.

The implementation is a plain adjacency-dictionary structure.  It favours
clarity and predictable asymptotics over raw speed: vertex and edge lookups
are O(1), neighbourhood iteration is O(degree).
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError

VertexId = Hashable
Label = Hashable

# what a pickle of a LabeledGraph carries, in construction order
_PICKLED_STATE = ("name", "_vertex_labels", "_adjacency", "_edge_labels")


def edge_key(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Return the canonical (sorted) key for an undirected edge.

    Vertices are ordered by ``repr`` so that heterogeneous vertex identifier
    types still produce a deterministic order.
    """
    if u == v:
        raise GraphError(f"self loops are not supported: ({u!r}, {v!r})")
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True)
class Edge:
    """An undirected labeled edge between vertices ``u`` and ``v``."""

    u: VertexId
    v: VertexId
    label: Label = None

    def key(self) -> tuple[VertexId, VertexId]:
        """The canonical undirected key of this edge."""
        return edge_key(self.u, self.v)


class LabeledGraph:
    """A simple undirected graph with labels on vertices and edges.

    Parameters
    ----------
    name:
        Optional identifier, used by the database layer and serialization.

    Examples
    --------
    >>> g = LabeledGraph(name="toy")
    >>> g.add_vertex(1, "a")
    >>> g.add_vertex(2, "b")
    >>> g.add_edge(1, 2, "x")
    >>> g.num_vertices, g.num_edges
    (2, 1)
    >>> g.vertex_label(1)
    'a'
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._vertex_labels: dict[VertexId, Label] = {}
        self._adjacency: dict[VertexId, dict[VertexId, Label]] = {}
        self._edge_labels: dict[tuple[VertexId, VertexId], Label] = {}
        # bumped by every mutation; derived structures (compiled edge tables,
        # join plans) cache against it and rebuild lazily when it moves
        self._version = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        vertex_labels: Mapping[VertexId, Label],
        edges: Iterable[tuple[VertexId, VertexId, Label]] | Iterable[tuple[VertexId, VertexId]],
        name: str | None = None,
    ) -> "LabeledGraph":
        """Build a graph from a vertex-label mapping and an edge list.

        Each edge may be a ``(u, v)`` pair (label ``None``) or a
        ``(u, v, label)`` triple.
        """
        graph = cls(name=name)
        for vertex, label in vertex_labels.items():
            graph.add_vertex(vertex, label)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                label = None
            else:
                u, v, label = edge  # type: ignore[misc]
            graph.add_edge(u, v, label)
        return graph

    def copy(self, name: str | None = None) -> "LabeledGraph":
        """Return a deep-enough copy (labels are shared, containers are not)."""
        clone = LabeledGraph(name=self.name if name is None else name)
        clone._vertex_labels = dict(self._vertex_labels)
        clone._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        clone._edge_labels = dict(self._edge_labels)
        return clone

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: VertexId, label: Label = None) -> None:
        """Add ``vertex`` with ``label``; re-adding overwrites the label."""
        if vertex not in self._vertex_labels:
            self._adjacency[vertex] = {}
        self._vertex_labels[vertex] = label
        self._version += 1

    def add_edge(self, u: VertexId, v: VertexId, label: Label = None) -> None:
        """Add the undirected edge (u, v) with ``label``.

        Both endpoints must already exist.  Adding an existing edge
        overwrites its label.
        """
        if u not in self._vertex_labels:
            raise VertexNotFoundError(u)
        if v not in self._vertex_labels:
            raise VertexNotFoundError(v)
        key = edge_key(u, v)
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label
        self._edge_labels[key] = label
        self._version += 1

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the undirected edge (u, v)."""
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise EdgeNotFoundError(u, v)
        del self._edge_labels[key]
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._version += 1

    def remove_isolated_vertices(self) -> list[VertexId]:
        """Remove all vertices with degree zero; return the removed ids."""
        isolated = [v for v in self._vertex_labels if not self._adjacency[v]]
        for vertex in isolated:
            del self._adjacency[vertex]
            del self._vertex_labels[vertex]
        if isolated:
            self._version += 1
        return isolated

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def mutation_version(self) -> int:
        """Monotonic counter of structural mutations (cache-invalidation key)."""
        return self._version

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_labels)

    @property
    def num_edges(self) -> int:
        return len(self._edge_labels)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex identifiers."""
        return iter(self._vertex_labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as :class:`Edge` objects."""
        for (u, v), label in self._edge_labels.items():
            yield Edge(u, v, label)

    def edge_keys(self) -> Iterator[tuple[VertexId, VertexId]]:
        """Iterate over canonical edge keys."""
        return iter(self._edge_labels)

    def has_vertex(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        try:
            return edge_key(u, v) in self._edge_labels
        except GraphError:
            return False

    def is_subgraph_of(self, other: "LabeledGraph") -> bool:
        """True when ``other`` holds every vertex and edge of this graph under
        the same id and label (identity on ids, not isomorphism)."""
        return (
            self._vertex_labels.items() <= other._vertex_labels.items()
            and self._edge_labels.items() <= other._edge_labels.items()
        )

    def vertex_label(self, vertex: VertexId) -> Label:
        try:
            return self._vertex_labels[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        key = edge_key(u, v)
        try:
            return self._edge_labels[key]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        try:
            return iter(self._adjacency[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: VertexId) -> int:
        try:
            return len(self._adjacency[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def incident_edges(self, vertex: VertexId) -> list[Edge]:
        """All edges incident to ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return [Edge(vertex, nbr, label) for nbr, label in self._adjacency[vertex].items()]

    def vertex_label_counts(self) -> Counter:
        """Multiset of vertex labels (used by quick filters)."""
        return Counter(self._vertex_labels.values())

    def edge_signature_counts(self) -> Counter:
        """Multiset of (sorted endpoint labels, edge label) signatures.

        This is a stronger quick filter than raw label counts: a query edge
        signature missing from the target cannot possibly be matched.

        Memoised against :attr:`mutation_version` (the way
        ``generic_join.compile_edge_table`` memoises its table): the
        structural index reads it when a graph is indexed, matching when it is
        a candidate.  Treat the returned ``Counter`` as read-only; any mutation
        of the graph makes the next call build a fresh one.
        """
        cached = self.__dict__.get("_edge_signature_counts")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        # each label's repr once per graph, not once per edge endpoint
        reprs = {v: sys.intern(repr(label)) for v, label in self._vertex_labels.items()}
        signatures = Counter(
            [
                ((reprs[u], reprs[v]) if reprs[u] <= reprs[v] else (reprs[v], reprs[u]), label)
                for (u, v), label in self._edge_labels.items()
            ]
        )
        self.__dict__["_edge_signature_counts"] = (self._version, signatures)
        return signatures

    def edge_signature(self, key: tuple[VertexId, VertexId]) -> tuple:
        """The (sorted endpoint labels, edge label) signature of the edge with
        canonical key ``key``: what :meth:`edge_signature_counts` counts."""
        u, v = key
        # interned: the counts memo outlives the call, and label reprs repeat
        # across every graph of a database
        lu, lv = sys.intern(repr(self._vertex_labels[u])), sys.intern(repr(self._vertex_labels[v]))
        return ((lu, lv) if lu <= lv else (lv, lu)), self._edge_labels[key]

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True for the empty graph and for connected graphs."""
        if self.num_vertices == 0:
            return True
        start = next(iter(self._vertex_labels))
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return len(seen) == self.num_vertices

    def subgraph_by_edges(
        self, edge_keys: Iterable[tuple[VertexId, VertexId]], name: str | None = None
    ) -> "LabeledGraph":
        """Return the subgraph induced by the given edges.

        Vertices are exactly the endpoints of the chosen edges; labels are
        inherited.
        """
        sub = LabeledGraph(name=name)
        for u, v in edge_keys:
            key = edge_key(u, v)
            if key not in self._edge_labels:
                raise EdgeNotFoundError(u, v)
            for vertex in key:
                if not sub.has_vertex(vertex):
                    sub.add_vertex(vertex, self._vertex_labels[vertex])
            sub.add_edge(key[0], key[1], self._edge_labels[key])
        return sub

    def relabel_vertices(self, mapping: Mapping[VertexId, VertexId]) -> "LabeledGraph":
        """Return a copy with vertex identifiers renamed through ``mapping``.

        Identifiers not present in ``mapping`` are kept.  The mapping must be
        injective on the graph's vertices.
        """
        new_ids = [mapping.get(v, v) for v in self._vertex_labels]
        if len(set(new_ids)) != len(new_ids):
            raise GraphError("vertex relabeling mapping is not injective")
        renamed = LabeledGraph(name=self.name)
        for vertex, label in self._vertex_labels.items():
            renamed.add_vertex(mapping.get(vertex, vertex), label)
        for (u, v), label in self._edge_labels.items():
            renamed.add_edge(mapping.get(u, u), mapping.get(v, v), label)
        return renamed

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        """Structural equality on identical vertex ids, labels and edges."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self._vertex_labels == other._vertex_labels
            and self._edge_labels == other._edge_labels
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("LabeledGraph is mutable and therefore unhashable")

    def __getstate__(self) -> dict:
        # the graph and nothing else: the memo slots (edge tables, join plans,
        # event bits, signature counts) and the mutation counter they key on
        # stay behind, so a pickle depends only on the graph's contents
        return {key: self.__dict__[key] for key in _PICKLED_STATE}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _version=0)

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "unnamed"
        return f"LabeledGraph({label!r}, |V|={self.num_vertices}, |E|={self.num_edges})"
