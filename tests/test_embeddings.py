"""Tests for embedding enumeration and disjointness."""

from __future__ import annotations

from repro.graphs import LabeledGraph
from repro.isomorphism import count_embeddings_block, find_embeddings
from repro.isomorphism.embeddings import Embedding, maximal_disjoint_embeddings


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


def single_edge(label_u="a", label_v="a", edge_label="x"):
    return build({0: label_u, 1: label_v}, [(0, 1, edge_label)])


class TestEnumeration:
    def test_embeddings_are_edge_sets_not_mappings(self):
        """Automorphic mappings of the pattern collapse to one embedding."""
        pattern = single_edge()
        target = single_edge()
        embeddings = find_embeddings(pattern, target)
        assert len(embeddings) == 1

    def test_triangle_target_has_three_edge_embeddings(self):
        pattern = single_edge()
        target = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        assert count_embeddings_block(pattern, (target,)) == [3]

    def test_path_pattern_in_square(self):
        pattern = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        square = build(
            {0: "a", 1: "a", 2: "a", 3: "a"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 3, "x")],
        )
        embeddings = find_embeddings(pattern, square)
        assert len(embeddings) == 4  # one 2-edge path per corner vertex
        assert all(len(e.edges) == 2 for e in embeddings)

    def test_no_embeddings_when_labels_differ(self):
        assert find_embeddings(single_edge("q", "q"), single_edge()) == []

    def test_empty_pattern_has_no_embeddings(self):
        assert find_embeddings(LabeledGraph(), single_edge()) == []

    def test_limit_truncates(self):
        pattern = single_edge()
        target = build(
            {i: "a" for i in range(6)},
            [(i, j, "x") for i in range(6) for j in range(i + 1, 6)],
        )
        assert len(find_embeddings(pattern, target, limit=5)) == 5

    def test_embedding_vertices_match_edges(self):
        pattern = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "y")])
        target = build(
            {7: "a", 8: "b", 9: "c"}, [(7, 8, "x"), (8, 9, "y")]
        )
        [embedding] = find_embeddings(pattern, target)
        assert embedding.vertices == frozenset({7, 8, 9})
        assert embedding.edges == frozenset({(7, 8), (8, 9)})


class TestDisjointness:
    def test_overlap_requires_shared_edge(self):
        e1 = Embedding(edges=frozenset({(0, 1)}), vertices=frozenset({0, 1}))
        e2 = Embedding(edges=frozenset({(1, 2)}), vertices=frozenset({1, 2}))
        # shared vertex but no shared edge: still edge-disjoint
        assert e1.is_edge_disjoint(e2)
        e3 = Embedding(edges=frozenset({(0, 1), (1, 2)}), vertices=frozenset({0, 1, 2}))
        assert e1.overlaps(e3)

    def test_maximal_disjoint_selection_is_pairwise_disjoint(self):
        # 2-edge path pattern in a square: 4 embeddings, at most 2 disjoint
        pattern = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        target = build(
            {0: "a", 1: "a", 2: "a", 3: "a"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 3, "x")],
        )
        embeddings = find_embeddings(pattern, target)
        disjoint = maximal_disjoint_embeddings(embeddings)
        assert len(disjoint) == 2
        for i, a in enumerate(disjoint):
            for b in disjoint[i + 1 :]:
                assert a.is_edge_disjoint(b)

    def test_maximal_disjoint_of_empty_list(self):
        assert maximal_disjoint_embeddings([]) == []
