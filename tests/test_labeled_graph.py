"""Unit tests for the labeled graph substrate."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graphs import LabeledGraph
from repro.graphs.labeled_graph import Edge, edge_key


class TestConstruction:
    def test_empty_graph(self):
        graph = LabeledGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.is_connected()

    def test_add_vertices_and_edges(self):
        graph = LabeledGraph(name="toy")
        graph.add_vertex(1, "a")
        graph.add_vertex(2, "b")
        graph.add_edge(1, 2, "x")
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.vertex_label(1) == "a"
        assert graph.edge_label(1, 2) == "x"
        assert graph.edge_label(2, 1) == "x"

    def test_from_edges_builder(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3)], name="built"
        )
        assert graph.num_edges == 2
        assert graph.edge_label(2, 3) is None
        assert graph.name == "built"

    def test_re_adding_vertex_overwrites_label(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        graph.add_vertex(1, "b")
        assert graph.vertex_label(1) == "b"
        assert graph.num_vertices == 1

    def test_edge_requires_existing_vertices(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(1, 2, "x")

    def test_self_loops_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, "x")

    def test_copy_is_independent(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        clone = graph.copy()
        clone.remove_edge(1, 2)
        assert graph.num_edges == 1
        assert clone.num_edges == 0


class TestEdgeKey:
    def test_edge_key_is_order_independent(self):
        assert edge_key(1, 2) == edge_key(2, 1)

    def test_edge_dataclass(self):
        edge = Edge(2, 1, "x")
        assert edge.key() == (1, 2) == Edge(1, 2, "x").key()
        assert edge.label == "x"


class TestRemoval:
    def test_remove_edge(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        graph.remove_edge(2, 1)
        assert graph.num_edges == 0
        assert not graph.has_edge(1, 2)

    def test_remove_missing_edge_raises(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_removing_a_vertex_edges_isolates_and_drops_it(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "y")]
        )
        for edge in graph.incident_edges(2):
            graph.remove_edge(*edge.key())
        assert graph.remove_isolated_vertices() == [1, 2, 3]
        assert graph.num_vertices == graph.num_edges == 0

    def test_remove_isolated_vertices(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b", 3: "c"}, [(1, 2, "x")])
        removed = graph.remove_isolated_vertices()
        assert removed == [3]
        assert graph.num_vertices == 2


class TestInspection:
    def test_neighbors_and_degree(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (1, 3, "y")]
        )
        assert sorted(graph.neighbors(1)) == [2, 3]
        assert graph.degree(1) == 2
        assert graph.degree(2) == 1
        with pytest.raises(VertexNotFoundError):
            graph.degree(9)

    def test_incident_edges(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        incident = graph.incident_edges(1)
        assert len(incident) == 1
        assert incident[0].label == "x"

    def test_label_counts(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "a", 3: "b"}, [(1, 2, "x"), (2, 3, "x")]
        )
        assert graph.vertex_label_counts() == {"a": 2, "b": 1}

    def test_edge_signature_counts(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "a", 3: "b"}, [(1, 2, "x"), (2, 3, "x")]
        )
        signatures = graph.edge_signature_counts()
        assert sum(signatures.values()) == 2
        assert signatures[(("'a'", "'a'"), "x")] == 1

    def test_edge_signature_counts_is_memoised_until_a_mutation(self):
        """One Counter per mutation_version: the structural filter reads it
        per (query, candidate) pair and must not rebuild it each time."""
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "a", 3: "b"}, [(1, 2, "x"), (2, 3, "x")]
        )
        first = graph.edge_signature_counts()
        assert graph.edge_signature_counts() is first
        graph.add_vertex(4, "b")
        graph.add_edge(3, 4, "x")
        after_add = graph.edge_signature_counts()
        assert after_add is not first
        assert after_add[(("'b'", "'b'"), "x")] == 1
        assert sum(after_add.values()) == 3
        graph.remove_edge(1, 2)
        after_remove = graph.edge_signature_counts()
        assert (("'a'", "'a'"), "x") not in after_remove
        graph.add_vertex(2, "c")  # relabel: signatures through vertex 2 change
        assert graph.edge_signature_counts()[(("'b'", "'c'"), "x")] == 1

    def test_edge_signature_memo_is_not_shared_with_copies(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        signatures = graph.edge_signature_counts()
        clone = graph.copy()
        clone.add_vertex(3, "c")
        clone.add_edge(2, 3, "y")
        assert sum(clone.edge_signature_counts().values()) == 2
        assert graph.edge_signature_counts() is signatures
        assert sum(signatures.values()) == 1

    def test_contains_and_len(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        assert 1 in graph
        assert 9 not in graph
        assert len(graph) == 2

    def test_equality_is_structural(self):
        g1 = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        g2 = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        g3 = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "y")])
        assert g1 == g2
        assert g1 != g3

    def test_graphs_are_unhashable(self):
        graph = LabeledGraph()
        with pytest.raises(TypeError):
            hash(graph)


class TestStructure:
    def test_connectivity(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c", 4: "d"}, [(1, 2, "x"), (3, 4, "y")]
        )
        assert not graph.is_connected()
        graph.add_edge(2, 3, "z")
        assert graph.is_connected()

    def test_subgraph_by_edges(self):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "y")]
        )
        sub = graph.subgraph_by_edges([(1, 2)])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.vertex_label(1) == "a"
        with pytest.raises(EdgeNotFoundError):
            graph.subgraph_by_edges([(1, 3)])

    def test_relabel_vertices(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        renamed = graph.relabel_vertices({1: "u", 2: "v"})
        assert renamed.has_edge("u", "v")
        assert renamed.vertex_label("u") == "a"
        # original untouched
        assert graph.has_edge(1, 2)

    def test_relabel_must_be_injective(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        with pytest.raises(GraphError):
            graph.relabel_vertices({1: "u", 2: "u"})


class TestPickle:
    """A graph's pickle is its contents: no memo a caller computed rides along."""

    def test_memos_do_not_change_the_pickle(self):
        from repro.isomorphism.embeddings import _edge_bits
        from repro.isomorphism.generic_join import compile_edge_table, compile_join_plan

        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "a"}, [(1, 2, "x"), (2, 3, "y"), (1, 3, "x")], name="g"
        )
        before = pickle.dumps(graph)
        compile_edge_table(graph)
        compile_join_plan(graph)
        _edge_bits(graph)
        graph.edge_signature_counts()
        assert pickle.dumps(graph) == before

    def test_the_pickle_does_not_depend_on_how_the_graph_was_built(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        detour = LabeledGraph.from_edges({1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "y")])
        detour.remove_edge(2, 3)
        detour.remove_isolated_vertices()
        assert detour.mutation_version != graph.mutation_version
        assert pickle.dumps(detour) == pickle.dumps(graph)

    def test_a_round_trip_equals_the_graph_and_starts_a_fresh_version(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")], name="g")
        graph.edge_signature_counts()
        copy = pickle.loads(pickle.dumps(graph))
        assert copy == graph and copy.name == "g"
        assert copy.mutation_version == 0
        assert "_edge_signature_counts" not in copy.__dict__
        copy.add_vertex(3, "c")
        copy.add_edge(1, 3, "z")
        assert copy.mutation_version == 2 and copy.has_edge(3, 1)
