"""Tests for possible-world semantics (Definition 3, Equation 1, Example 1)."""

from __future__ import annotations

import pytest

from repro.exceptions import VerificationError
from repro.reference import enumerate_possible_worlds, total_world_mass, world_weight

from tests.conftest import make_simple_probabilistic_graph


class TestEnumeration:
    def test_number_of_worlds(self, triangle_graph_001):
        worlds = enumerate_possible_worlds(triangle_graph_001, skip_zero=False)
        assert len(worlds) == 2 ** 3

    def test_probabilities_sum_to_one(self, triangle_graph_001):
        worlds = enumerate_possible_worlds(triangle_graph_001)
        assert sum(w.probability for w in worlds) == pytest.approx(1.0)

    def test_paper_figure1_weights(self, triangle_graph_001):
        """The 8-row JPT of graph 001 gives exactly those world weights."""
        worlds = enumerate_possible_worlds(triangle_graph_001, skip_zero=False)
        by_edges = {w.present_edges(): w.probability for w in worlds}
        all_edges = frozenset({(1, 2), (2, 3), (1, 3)})
        assert by_edges[all_edges] == pytest.approx(0.2)
        assert by_edges[frozenset()] == pytest.approx(0.1)

    def test_every_world_keeps_all_vertices(self, triangle_graph_001):
        for world in enumerate_possible_worlds(triangle_graph_001):
            assert world.graph.num_vertices == 3

    def test_sorted_by_probability(self, triangle_graph_001):
        worlds = enumerate_possible_worlds(triangle_graph_001)
        probabilities = [w.probability for w in worlds]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_assignment_round_trip(self, triangle_graph_001):
        world = enumerate_possible_worlds(triangle_graph_001)[0]
        assignment = world.assignment_dict()
        assert set(assignment) == set(triangle_graph_001.edge_variables())

    def test_overlapping_factors_are_normalized(self, overlap_graph_002):
        worlds = enumerate_possible_worlds(overlap_graph_002)
        assert sum(w.probability for w in worlds) == pytest.approx(1.0)

    def test_example1_product_semantics(self, overlap_graph_002):
        """Example 1: a world's raw weight is the product of its JPT rows."""
        raw_mass = total_world_mass(overlap_graph_002)
        worlds = enumerate_possible_worlds(overlap_graph_002, normalize=False, skip_zero=False)
        all_present = {key: 1 for key in overlap_graph_002.edge_variables()}
        expected = world_weight(overlap_graph_002, all_present)
        by_edges = {w.present_edges(): w.probability for w in worlds}
        assert by_edges[frozenset(overlap_graph_002.edge_variables())] == pytest.approx(expected)
        assert raw_mass > 0

    def test_partitioned_graph_mass_is_exactly_one(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.4)
        assert total_world_mass(graph) == pytest.approx(1.0)


class TestSafetyLimits:
    def test_refuses_huge_enumerations(self):
        graph = make_simple_probabilistic_graph()
        with pytest.raises(VerificationError):
            enumerate_possible_worlds(graph, max_edges=2)
        with pytest.raises(VerificationError):
            total_world_mass(graph, max_edges=2)
