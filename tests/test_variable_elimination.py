"""Tests for exact marginal computation over neighbor-edge factors."""

from __future__ import annotations

import pytest

from repro.exceptions import ProbabilityError
from repro.probability import VariableEliminationEngine
from repro.reference import enumerate_possible_worlds

from tests.conftest import make_simple_probabilistic_graph


def brute_force_probability(graph, evidence):
    """Ground-truth marginal by world enumeration."""
    total = 0.0
    for world in enumerate_possible_worlds(graph):
        assignment = world.assignment_dict()
        if all(assignment[key] == value for key, value in evidence.items()):
            total += world.probability
    return total


class TestSingleEdgeMarginals:
    def test_independent_graph(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.3)
        engine = VariableEliminationEngine(graph)
        key = graph.edge_variables()[0]
        assert engine.probability_of_event({key: 1}) == pytest.approx(0.3)
        assert engine.probability_of_event({key: 0}) == pytest.approx(0.7)

    def test_correlated_triangle(self, triangle_graph_001):
        engine = VariableEliminationEngine(triangle_graph_001)
        for key in triangle_graph_001.edge_variables():
            expected = brute_force_probability(triangle_graph_001, {key: 1})
            assert engine.probability_of_event({key: 1}) == pytest.approx(expected)


class TestJointEvents:
    def test_all_present_independent(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        engine = VariableEliminationEngine(graph)
        edges = graph.edge_variables()
        assert engine.probability_all_present(edges) == pytest.approx(0.5 ** len(edges))

    def test_mixed_evidence_matches_enumeration(self, triangle_graph_001):
        engine = VariableEliminationEngine(triangle_graph_001)
        edges = triangle_graph_001.edge_variables()
        evidence = {edges[0]: 1, edges[1]: 0}
        expected = brute_force_probability(triangle_graph_001, evidence)
        assert engine.probability_of_event(evidence) == pytest.approx(expected)

    def test_overlapping_factors_match_enumeration(self, overlap_graph_002):
        engine = VariableEliminationEngine(overlap_graph_002)
        edges = overlap_graph_002.edge_variables()
        for evidence in ({edges[0]: 1}, {edges[2]: 1, edges[3]: 1}, {e: 1 for e in edges}):
            expected = brute_force_probability(overlap_graph_002, evidence)
            assert engine.probability_of_event(evidence) == pytest.approx(expected, abs=1e-9)

    def test_empty_evidence_is_one(self, triangle_graph_001):
        engine = VariableEliminationEngine(triangle_graph_001)
        assert engine.probability_of_event({}) == pytest.approx(1.0)

    def test_unknown_edge_rejected(self, triangle_graph_001):
        engine = VariableEliminationEngine(triangle_graph_001)
        with pytest.raises(ProbabilityError):
            engine.probability_of_event({(9, 10): 1})

    def test_result_is_a_probability(self, small_ppi_database):
        graph = small_ppi_database.graphs[0]
        engine = VariableEliminationEngine(graph)
        edges = graph.edge_variables()[:4]
        value = engine.probability_all_present(edges)
        assert 0.0 <= value <= 1.0
