"""Unit tests for probabilistic graphs (skeleton + neighbor-edge factors)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, ProbabilityError
from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph
from repro.probability import JointProbabilityTable
from repro.reference import WorldSampler, world_graph, world_weight

from tests.conftest import make_simple_probabilistic_graph


class TestFactorValidation:
    def test_factor_variable_order_must_match_edges(self):
        jpt = JointProbabilityTable.from_independent_marginals({(1, 2): 0.5, (2, 3): 0.5})
        with pytest.raises(ProbabilityError):
            NeighborEdgeFactor(((2, 3), (1, 2)), jpt)

    def test_every_edge_needs_a_factor(self):
        skeleton = LabeledGraph.from_edges({1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "x")])
        jpt = JointProbabilityTable.from_independent_marginals({(1, 2): 0.5})
        with pytest.raises(GraphError):
            ProbabilisticGraph(skeleton, [NeighborEdgeFactor(((1, 2),), jpt)])

    def test_factor_edges_must_exist_in_skeleton(self):
        skeleton = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        jpt = JointProbabilityTable.from_independent_marginals({(1, 2): 0.5, (2, 3): 0.5})
        with pytest.raises(GraphError):
            ProbabilisticGraph(skeleton, [NeighborEdgeFactor(((1, 2), (2, 3)), jpt)])


class TestFromEdgeProbabilities:
    def test_requires_probability_for_every_edge(self):
        skeleton = LabeledGraph.from_edges({1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "x")])
        with pytest.raises(ProbabilityError):
            ProbabilisticGraph.from_edge_probabilities(skeleton, {(1, 2): 0.5})

    def test_unknown_correlation_model_rejected(self):
        skeleton = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        with pytest.raises(ValueError):
            ProbabilisticGraph.from_edge_probabilities(
                skeleton, {(1, 2): 0.5}, correlation="mystery"
            )

    def test_independent_model_preserves_marginals(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.3)
        for key in graph.edge_variables():
            assert graph.edge_marginal(key) == pytest.approx(0.3)

    def test_partition_property(self):
        graph = make_simple_probabilistic_graph()
        assert graph.is_edge_partition()

    def test_max_model_builds_valid_factors(self):
        graph = make_simple_probabilistic_graph(correlation="max")
        for factor in graph.factors:
            assert factor.jpt.is_normalized()


class TestWorldMeasure:
    def test_world_weight_is_product_of_factors(self, triangle_graph_001):
        all_present = {key: 1 for key in triangle_graph_001.edge_variables()}
        assert world_weight(triangle_graph_001, all_present) == pytest.approx(0.2)
        none_present = {key: 0 for key in triangle_graph_001.edge_variables()}
        assert world_weight(triangle_graph_001, none_present) == pytest.approx(0.1)

    def test_world_graph_keeps_all_vertices(self, triangle_graph_001):
        none_present = {key: 0 for key in triangle_graph_001.edge_variables()}
        world = world_graph(triangle_graph_001, none_present)
        assert world.num_vertices == 3
        assert world.num_edges == 0

    def test_world_graph_contains_selected_edges(self, triangle_graph_001):
        assignment = {key: 0 for key in triangle_graph_001.edge_variables()}
        assignment[(1, 2)] = 1
        world = world_graph(triangle_graph_001, assignment)
        assert world.num_edges == 1
        assert world.has_edge(1, 2)

    def test_overlapping_factors_multiply(self, overlap_graph_002):
        assert not overlap_graph_002.is_edge_partition()
        assignment = {key: 1 for key in overlap_graph_002.edge_variables()}
        expected = 1.0
        for factor in overlap_graph_002.factors:
            expected *= factor.jpt.value({key: assignment[key] for key in factor.edges})
        assert world_weight(overlap_graph_002, assignment) == pytest.approx(expected)

    def test_factors_containing(self, overlap_graph_002):
        sharing = overlap_graph_002.factors_containing((2, 3))
        assert len(sharing) == 2
        only_one = overlap_graph_002.factors_containing((1, 2))
        assert len(only_one) == 1


class TestSampling:
    """One world at a time, through the reference's scalar sampler."""

    def test_sampled_assignment_covers_all_edges(self, overlap_graph_002, rng):
        assignment = WorldSampler(overlap_graph_002, rng).sample_assignment()
        assert set(assignment) == set(overlap_graph_002.edge_variables())
        assert all(value in (0, 1) for value in assignment.values())

    def test_sampling_respects_marginals_for_partitioned_graph(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.8)
        key = graph.edge_variables()[0]
        sampler = WorldSampler(graph, rng)
        hits = sum(sampler.sample_assignment()[key] for _ in range(1500))
        assert 0.74 < hits / 1500 < 0.86

    def test_sample_world_returns_labeled_graph(self, triangle_graph_001, rng):
        assignment = WorldSampler(triangle_graph_001, rng).sample_assignment()
        world = world_graph(triangle_graph_001, assignment)
        assert world.num_vertices == 3
        assert world.num_edges <= 3

    def test_average_edge_probability(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.25)
        assert graph.average_edge_probability() == pytest.approx(0.25)
