"""Tests for embedding cuts, the cut graph and the embedding graph fG."""

from __future__ import annotations

import math

import pytest

from repro.graphs import LabeledGraph
from repro.isomorphism import find_embeddings
from repro.isomorphism.embeddings import Embedding
from repro.pmi.cuts import (
    best_disjoint_cuts,
    build_cut_graph,
    enumerate_embedding_cuts,
)
from repro.pmi.embedding_graph import (
    best_disjoint_embeddings,
    build_embedding_graph,
    disjointness_weight,
    lower_bound_from_probabilities,
)


def embedding(*edges):
    vertices = {v for edge in edges for v in edge}
    return Embedding(edges=frozenset(edges), vertices=frozenset(vertices))


class TestEmbeddingCuts:
    def test_single_embedding_cuts_are_its_edges(self):
        cuts = enumerate_embedding_cuts([embedding((1, 2), (2, 3))])
        assert frozenset({(1, 2)}) in cuts
        assert frozenset({(2, 3)}) in cuts
        assert all(len(c) == 1 for c in cuts)

    def test_cut_must_hit_every_embedding(self):
        cuts = enumerate_embedding_cuts([embedding((1, 2)), embedding((3, 4))])
        assert cuts == [frozenset({(1, 2), (3, 4)})]

    def test_shared_edge_gives_singleton_cut(self):
        cuts = enumerate_embedding_cuts(
            [embedding((1, 2), (2, 3)), embedding((2, 3), (3, 4))]
        )
        assert frozenset({(2, 3)}) in cuts

    def test_cuts_are_minimal(self):
        cuts = enumerate_embedding_cuts(
            [embedding((1, 2), (2, 3)), embedding((2, 3), (3, 4))]
        )
        for i, cut in enumerate(cuts):
            for j, other in enumerate(cuts):
                if i != j:
                    assert not cut < other  # no cut strictly contains another

    def test_no_embeddings_no_cuts(self):
        assert enumerate_embedding_cuts([]) == []

    def test_max_cuts_cap(self):
        embeddings = [embedding((i, i + 1), (i + 1, i + 2)) for i in range(0, 12, 3)]
        cuts = enumerate_embedding_cuts(embeddings, max_cuts=3)
        assert len(cuts) <= 3

    def test_paper_example7_cuts(self):
        """Figure 8: embeddings {e1,e2}, {e2,e3}, {e3,e4} admit the cuts
        {e2,e4}, {e2,e3} and {e1,e3} (plus any other minimal transversals)."""
        e1, e2, e3, e4 = (1, 2), (2, 3), (3, 4), (4, 5)
        embeddings = [embedding(e1, e2), embedding(e2, e3), embedding(e3, e4)]
        cuts = enumerate_embedding_cuts(embeddings)
        assert frozenset({e2, e4}) in cuts
        assert frozenset({e2, e3}) in cuts
        assert frozenset({e1, e3}) in cuts


class TestEmbeddingGraph:
    def test_weights_are_negative_log_survival(self):
        assert disjointness_weight(0.0) == pytest.approx(0.0)
        assert disjointness_weight(0.5) == pytest.approx(math.log(2.0))
        assert disjointness_weight(1.0) > 20  # clamped, large but finite

    def test_adjacency_links_disjoint_embeddings(self):
        e_a = embedding((1, 2))
        e_b = embedding((3, 4))
        e_c = embedding((1, 2), (3, 4))
        adjacency, weights = build_embedding_graph([e_a, e_b, e_c], [0.5, 0.5, 0.5])
        assert 1 in adjacency[0]          # disjoint
        assert 2 not in adjacency[0]      # overlaps
        assert len(weights) == 3

    def test_best_disjoint_embeddings_lower_bound(self):
        e_a = embedding((1, 2))
        e_b = embedding((3, 4))
        chosen, lower = best_disjoint_embeddings([e_a, e_b], [0.4, 0.5])
        assert set(chosen) == {0, 1}
        assert lower == pytest.approx(1 - 0.6 * 0.5)

    def test_lower_bound_from_probabilities(self):
        assert lower_bound_from_probabilities([0.4, 0.5]) == pytest.approx(0.7)
        assert lower_bound_from_probabilities([]) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            build_embedding_graph([embedding((1, 2))], [0.1, 0.2])


class TestCutGraph:
    def test_best_disjoint_cuts_upper_bound(self):
        cut_a = frozenset({(1, 2)})
        cut_b = frozenset({(3, 4)})
        chosen, upper = best_disjoint_cuts([cut_a, cut_b], [0.3, 0.4])
        assert set(chosen) == {0, 1}
        assert upper == pytest.approx(0.7 * 0.6)

    def test_no_cuts_means_no_pruning_power(self):
        chosen, upper = best_disjoint_cuts([], [])
        assert chosen == []
        assert upper == 1.0

    def test_cut_graph_shape(self):
        cut_a = frozenset({(1, 2)})
        cut_b = frozenset({(1, 2), (3, 4)})
        adjacency, weights = build_cut_graph([cut_a, cut_b], [0.5, 0.5])
        assert 1 not in adjacency[0]
        assert len(weights) == 2

    def test_cut_graph_links_exactly_the_disjoint_pairs(self):
        cuts = [
            frozenset({(1, 2)}),
            frozenset({(3, 4)}),
            frozenset({(1, 2), (5, 6)}),
            frozenset({(5, 6)}),
        ]
        adjacency, _ = build_cut_graph(cuts, [0.5] * len(cuts))
        for i, cut in enumerate(cuts):
            assert adjacency[i] == {j for j, other in enumerate(cuts) if not cut & other}

    def test_tighter_bound_with_more_disjoint_cuts(self):
        one_cut = best_disjoint_cuts([frozenset({(1, 2)})], [0.5])[1]
        two_cuts = best_disjoint_cuts(
            [frozenset({(1, 2)}), frozenset({(3, 4)})], [0.5, 0.5]
        )[1]
        assert two_cuts < one_cut


class TestCutsFromRealEmbeddings:
    def test_cuts_destroy_every_embedding(self):
        target = LabeledGraph.from_edges(
            {0: "a", 1: "a", 2: "a", 3: "a"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 3, "x")],
        )
        pattern = LabeledGraph.from_edges({0: "a", 1: "a"}, [(0, 1, "x")])
        embeddings = find_embeddings(pattern, target)
        cuts = enumerate_embedding_cuts(embeddings, max_cut_size=4)
        for cut in cuts:
            remaining = [key for key in target.edge_keys() if key not in cut]
            survivor = target.subgraph_by_edges(remaining)
            assert find_embeddings(pattern, survivor) == []
