"""Unit tests for the neighbor-edge partition and Definition 1's predicate,
the oracle each partition set is checked against."""

from __future__ import annotations

import pytest

from repro.graphs import LabeledGraph
from repro.graphs.neighbor_edges import partition_into_neighbor_sets
from repro.reference import is_neighbor_edge_set


@pytest.fixture
def paper_002_skeleton() -> LabeledGraph:
    """Skeleton shaped like the paper's graph 002 (triangle + star on v3)."""
    graph = LabeledGraph(name="002c")
    for vertex, label in ((1, "a"), (2, "a"), (3, "b"), (4, "b"), (5, "c")):
        graph.add_vertex(vertex, label)
    graph.add_edge(1, 2, "e")
    graph.add_edge(1, 3, "e")
    graph.add_edge(2, 3, "e")
    graph.add_edge(3, 4, "e")
    graph.add_edge(3, 5, "e")
    return graph


class TestDetection:
    def test_is_neighbor_edge_set_star(self, paper_002_skeleton):
        assert is_neighbor_edge_set(paper_002_skeleton, {(2, 3), (3, 4), (3, 5)})

    def test_is_neighbor_edge_set_triangle(self, paper_002_skeleton):
        assert is_neighbor_edge_set(paper_002_skeleton, {(1, 2), (1, 3), (2, 3)})

    def test_is_neighbor_edge_set_rejects_disconnected_edges(self, paper_002_skeleton):
        assert not is_neighbor_edge_set(paper_002_skeleton, {(1, 2), (3, 4)})

    def test_is_neighbor_edge_set_rejects_missing_edges(self, paper_002_skeleton):
        assert not is_neighbor_edge_set(paper_002_skeleton, {(1, 5)})

    def test_singleton_counts_as_neighbor_set(self, paper_002_skeleton):
        assert is_neighbor_edge_set(paper_002_skeleton, {(1, 2)})

    def test_every_vertex_star_is_a_neighbor_set(self, paper_002_skeleton):
        for vertex in paper_002_skeleton.vertices():
            star = {edge.key() for edge in paper_002_skeleton.incident_edges(vertex)}
            assert is_neighbor_edge_set(paper_002_skeleton, star), vertex

    def test_a_path_of_three_edges_is_not_a_neighbor_set(self, paper_002_skeleton):
        """Neither a star nor a triangle: no shared vertex, four endpoints."""
        assert not is_neighbor_edge_set(paper_002_skeleton, {(1, 2), (2, 3), (3, 4)})


class TestPartition:
    def test_partition_covers_every_edge_exactly_once(self, paper_002_skeleton):
        partition = partition_into_neighbor_sets(paper_002_skeleton, max_size=3)
        all_edges = [key for group in partition for key in group]
        assert len(all_edges) == len(set(all_edges)) == paper_002_skeleton.num_edges
        assert set(all_edges) == set(paper_002_skeleton.edge_keys())

    def test_partition_respects_max_size(self, paper_002_skeleton):
        for max_size in (1, 2, 3, 4):
            partition = partition_into_neighbor_sets(paper_002_skeleton, max_size=max_size)
            assert all(len(group) <= max_size for group in partition)

    def test_partition_groups_are_valid_neighbor_sets(self, paper_002_skeleton):
        partition = partition_into_neighbor_sets(paper_002_skeleton, max_size=4)
        for group in partition:
            assert is_neighbor_edge_set(paper_002_skeleton, group)

    def test_partition_rejects_bad_max_size(self, paper_002_skeleton):
        with pytest.raises(ValueError):
            partition_into_neighbor_sets(paper_002_skeleton, max_size=0)

    def test_partition_of_single_edge_graph(self):
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        partition = partition_into_neighbor_sets(graph)
        assert partition == [frozenset({(1, 2)})]
