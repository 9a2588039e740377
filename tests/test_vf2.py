"""Tests for labeled subgraph isomorphism: the join-backed predicate, the
join's rows as witnessing mappings, and the VF2-style reference matcher."""

from __future__ import annotations

from repro.graphs import LabeledGraph
from repro.isomorphism import is_subgraph_isomorphic
from repro.reference import VF2Matcher

from tests.conftest import join_mappings


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


class TestBasicMatching:
    def test_single_edge_in_triangle(self):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        target = build(
            {0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        assert is_subgraph_isomorphic(pattern, target)

    def test_label_mismatch_fails(self):
        pattern = build({0: "a", 1: "z"}, [(0, 1, "x")])
        target = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert not is_subgraph_isomorphic(pattern, target)

    def test_edge_label_mismatch_fails(self):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "y")])
        target = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert not is_subgraph_isomorphic(pattern, target)

    def test_pattern_larger_than_target_fails(self):
        pattern = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "x")])
        target = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert not is_subgraph_isomorphic(pattern, target)

    def test_graph_is_subgraph_of_itself(self):
        graph = build({0: "a", 1: "b", 2: "a"}, [(0, 1, "x"), (1, 2, "y")])
        assert is_subgraph_isomorphic(graph, graph)

    def test_empty_pattern_matches_everything(self):
        assert is_subgraph_isomorphic(LabeledGraph(), build({0: "a"}, []))

    def test_non_induced_semantics(self):
        """Definition 5 only requires pattern edges to exist; extra target
        edges among mapped vertices are fine."""
        pattern = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])  # path
        target = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )  # triangle
        assert is_subgraph_isomorphic(pattern, target)

    def test_triangle_not_in_path(self):
        triangle = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        path = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        assert not is_subgraph_isomorphic(triangle, path)

    def test_disconnected_pattern(self):
        pattern = build({0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "y")])
        target = build(
            {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"},
            [(0, 1, "x"), (2, 3, "y"), (3, 4, "z")],
        )
        assert is_subgraph_isomorphic(pattern, target)

    def test_label_insensitive_mode(self):
        pattern = build({0: "a", 1: "z"}, [(0, 1, "q")])
        target = build({0: "c", 1: "d"}, [(0, 1, "x")])
        assert is_subgraph_isomorphic(pattern, target, label_sensitive=False)
        assert not is_subgraph_isomorphic(pattern, target, label_sensitive=True)


class TestMappings:
    def test_mapping_is_a_valid_witness(self):
        pattern = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "y")])
        target = build(
            {10: "a", 11: "b", 12: "c", 13: "d"},
            [(10, 11, "x"), (11, 12, "y"), (12, 13, "z")],
        )
        mappings = join_mappings(pattern, target)
        assert len(mappings) == 1
        (mapping,) = mappings
        assert len(set(mapping.values())) == pattern.num_vertices
        for u, v in pattern.edge_keys():
            assert target.has_edge(mapping[u], mapping[v])
            assert target.edge_label(mapping[u], mapping[v]) == pattern.edge_label(u, v)
        for vertex in pattern.vertices():
            assert target.vertex_label(mapping[vertex]) == pattern.vertex_label(vertex)

    def test_no_mapping_when_impossible(self):
        pattern = build({0: "a", 1: "q"}, [(0, 1, "x")])
        target = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert join_mappings(pattern, target) == []

    def test_all_mappings_count_in_symmetric_target(self):
        # a single labeled edge a-a in a triangle of 'a' vertices: 3 edges x 2
        # orientations = 6 injective mappings
        pattern = build({0: "a", 1: "a"}, [(0, 1, "x")])
        target = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        matcher = VF2Matcher(pattern, target)
        assert len(matcher.all_mappings()) == 6
        assert len(join_mappings(pattern, target)) == 6

    def test_all_mappings_respects_limit(self):
        pattern = build({0: "a", 1: "a"}, [(0, 1, "x")])
        target = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        matcher = VF2Matcher(pattern, target)
        assert len(matcher.all_mappings(limit=2)) == 2
        assert join_mappings(pattern, target, limit=2) == join_mappings(pattern, target)[:2]
