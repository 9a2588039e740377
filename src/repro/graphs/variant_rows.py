"""Variants of one graph as rows over its own edge list.

A relaxed query is the query minus some edges on the query's own vertex ids,
so a set of them is a boolean matrix, not a list of graphs: one column per
edge of the ``base`` graph (``sorted(base.edge_keys(), key=repr)``, the one
coordinate system planning uses), one per vertex, one row per variant.  What a
plan derives from the set is array work over those rows; a
:class:`LabeledGraph` is built only for a member somebody indexes.  A graph
that is no such sub-graph is no variant, and is refused.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import QueryError
from repro.graphs.labeled_graph import LabeledGraph


class VariantRows(Sequence):
    """A list-like sequence of variants of ``base``; item ``k`` is a graph.

    ``kept[k, e]`` / ``present[k, v]`` (views of ``held[K, E + V]``): member
    ``k`` holds ``edges[e]`` / ``vertices[v]``.  Built graphs are memoised,
    not pickled.
    """

    def __init__(self, base: LabeledGraph, rows: Sequence = ()):
        self.base = base
        self.edges = tuple(sorted(base.edge_keys(), key=repr))
        self.vertices = tuple(base.vertices())
        width = len(self.edges) + len(self.vertices)
        self.held = np.array(rows, dtype=bool).reshape(len(rows), width)
        self._built: dict[int, LabeledGraph] = {}

    @classmethod
    def of(cls, base: LabeledGraph, variants: Iterable[LabeledGraph]) -> "VariantRows":
        """``variants`` itself when it already is rows, else its graphs :meth:`append`-ed."""
        if isinstance(variants, cls):
            return variants
        rows = cls(base)
        for variant in variants:
            rows.append(variant)
        return rows

    @property
    def kept(self) -> np.ndarray:
        return self.held[:, : len(self.edges)]

    @property
    def present(self) -> np.ndarray:
        return self.held[:, len(self.edges) :]

    def append(self, variant: LabeledGraph) -> None:
        """Add a graph as a row: it must have an edge and lie in ``base`` (same
        ids and labels), else :class:`QueryError`."""
        if not (variant.num_edges and variant.is_subgraph_of(self.base)):
            raise QueryError("a variant must be its base minus some edges, with an edge left")
        row = [variant.has_edge(*key) for key in self.edges]
        row += [variant.has_vertex(vertex) for vertex in self.vertices]
        self._built[len(self)] = variant
        self.held = np.concatenate([self.held, [row]])

    def holding(self, edge_sets: Sequence[Iterable]) -> np.ndarray:
        """``out[s, k]``: member ``k`` kept every edge (key of ``base``) of ``edge_sets[s]``."""
        column = {key: e for e, key in enumerate(self.edges)}
        uses = np.zeros((len(edge_sets), len(self.edges)), dtype=bool)
        for s, edges in enumerate(edge_sets):
            uses[s, [column[key] for key in edges]] = True
        return ~(uses @ ~self.kept.T)

    def materialized_count(self) -> int:
        """How many members have been built into graphs so far."""
        return len(self._built)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_built": {}}

    def __len__(self) -> int:
        return self.held.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        position = range(len(self))[index]
        if position not in self._built:
            self._built[position] = self.graph_of(self.held[position].tolist())
        return self._built[position]

    def graph_of(self, row: list) -> LabeledGraph:
        """The graph one row of ``held`` describes (a fresh object every call)."""
        base, graph = self.base, LabeledGraph(name=self.base.name)
        for vertex, held in zip(self.vertices, row[len(self.edges) :]):
            if held:
                graph.add_vertex(vertex, base.vertex_label(vertex))
        for (u, v), held in zip(self.edges, row):
            if held:
                graph.add_edge(u, v, base.edge_label(u, v))
        return graph
