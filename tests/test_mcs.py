"""Tests for subgraph distance / maximum common subgraph (Definitions 7-8)."""

from __future__ import annotations

import pytest

from repro.graphs import LabeledGraph
from repro.reference import (
    is_subgraph_similar,
    maximum_common_subgraph_size,
    signature_distance_lower_bound,
    subgraph_distance,
)


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


@pytest.fixture
def target():
    return build(
        {0: "a", 1: "b", 2: "c", 3: "d"},
        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
    )


class TestSubgraphDistance:
    def test_distance_zero_for_contained_query(self, target):
        query = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert subgraph_distance(query, target) == 0

    def test_distance_counts_missing_edges(self, target):
        # path a-b-c plus an extra edge that the target lacks
        query = build(
            {0: "a", 1: "b", 2: "c", 3: "z"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
        )
        assert subgraph_distance(query, target) == 1

    def test_distance_two(self, target):
        query = build(
            {0: "a", 1: "b", 2: "q", 3: "r"},
            [(0, 1, "x"), (1, 2, "x"), (1, 3, "x")],
        )
        assert subgraph_distance(query, target) == 2

    def test_max_distance_cap_returns_none(self, target):
        query = build(
            {0: "q", 1: "r", 2: "s"}, [(0, 1, "x"), (1, 2, "x")]
        )
        assert subgraph_distance(query, target, max_distance=1) is None

    def test_distance_of_identical_graph_is_zero(self, target):
        assert subgraph_distance(target.copy(), target) == 0

    def test_triangle_vs_path(self):
        triangle = build(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]
        )
        path = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        assert subgraph_distance(triangle, path) == 1


class TestSimilarityPredicate:
    def test_similar_within_threshold(self, target):
        query = build(
            {0: "a", 1: "b", 2: "c", 3: "z"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
        )
        assert not is_subgraph_similar(query, target, 0)
        assert is_subgraph_similar(query, target, 1)
        assert is_subgraph_similar(query, target, 2)

    def test_threshold_at_least_query_size_is_trivially_true(self, target):
        query = build({0: "q", 1: "q"}, [(0, 1, "zz")])
        assert is_subgraph_similar(query, target, 1)

    def test_negative_threshold_rejected(self, target):
        query = build({0: "a", 1: "b"}, [(0, 1, "x")])
        with pytest.raises(ValueError):
            is_subgraph_similar(query, target, -1)


class TestMcsSize:
    def test_mcs_size(self, target):
        query = build(
            {0: "a", 1: "b", 2: "c", 3: "z"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
        )
        assert maximum_common_subgraph_size(query, target) == 2

    def test_mcs_of_contained_query_is_its_size(self, target):
        query = build({0: "b", 1: "c"}, [(0, 1, "x")])
        assert maximum_common_subgraph_size(query, target) == 1

    def test_capped_search_returns_none(self, target):
        query = build({0: "q", 1: "r", 2: "s"}, [(0, 1, "x"), (1, 2, "x")])
        assert maximum_common_subgraph_size(query, target, max_distance=1) is None


class TestLowerBound:
    def test_signature_bound_counts_missing_signatures(self, target):
        query = build({0: "q", 1: "r"}, [(0, 1, "zz")])
        assert signature_distance_lower_bound(query, target) == 1

    def test_signature_bound_zero_when_all_present(self, target):
        query = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert signature_distance_lower_bound(query, target) == 0

    def test_signature_bound_never_exceeds_true_distance(self, target):
        query = build(
            {0: "a", 1: "b", 2: "q", 3: "r"},
            [(0, 1, "x"), (1, 2, "x"), (1, 3, "x")],
        )
        assert signature_distance_lower_bound(query, target) <= subgraph_distance(query, target)
