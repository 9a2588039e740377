"""Tests for possible-world sampling and Monte-Carlo helpers."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ProbabilityError
from repro.probability import monte_carlo_sample_size
from repro.reference import WorldSampler

from tests.conftest import make_simple_probabilistic_graph


class TestSampleSize:
    def test_paper_formula(self):
        xi, tau = 0.05, 0.1
        expected = math.ceil((4 * math.log(2 / xi)) / tau**2)
        assert monte_carlo_sample_size(xi, tau) == expected

    def test_tighter_tau_needs_more_samples(self):
        assert monte_carlo_sample_size(0.05, 0.05) > monte_carlo_sample_size(0.05, 0.2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            monte_carlo_sample_size(xi=0.0)
        with pytest.raises(ValueError):
            monte_carlo_sample_size(xi=1.5)
        with pytest.raises(ValueError):
            monte_carlo_sample_size(tau=0.0)

    def test_relative_error_above_one_rejected(self):
        """Regression: τ = 5 used to slip through and yield a degenerate
        1-sample estimate; τ is a relative error and must be in (0, 1]."""
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\]"):
            monte_carlo_sample_size(tau=5.0)
        with pytest.raises(ValueError):
            monte_carlo_sample_size(tau=1.0000001)

    def test_tau_of_exactly_one_is_allowed(self):
        assert monte_carlo_sample_size(0.05, 1.0) == math.ceil(4 * math.log(2 / 0.05))


class TestWorldSampler:
    def test_assignment_covers_all_edges(self, overlap_graph_002, rng):
        sampler = WorldSampler(overlap_graph_002, rng=rng)
        assignment = sampler.sample_assignment()
        assert set(assignment) == set(overlap_graph_002.edge_variables())

    def test_evidence_is_respected(self, triangle_graph_001, rng):
        sampler = WorldSampler(triangle_graph_001, rng=rng)
        key = triangle_graph_001.edge_variables()[0]
        for _ in range(20):
            present = sampler.sample_present_edges({key: 1})
            assert key in present

    def test_impossible_evidence_raises(self):
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        sampler = WorldSampler(graph, rng=1)
        key = graph.edge_variables()[0]
        with pytest.raises(ProbabilityError):
            sampler.sample_assignment({key: 0})

    def test_event_probability_estimate(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.7)
        sampler = WorldSampler(graph, rng=rng)
        key = graph.edge_variables()[0]
        estimate = sampler.estimate_event_probability(
            lambda present: key in present, num_samples=2000
        )
        assert estimate == pytest.approx(0.7, abs=0.05)

    def test_conditional_probability_estimate_independent_edges(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        sampler = WorldSampler(graph, rng=rng)
        first, second = graph.edge_variables()[:2]
        estimate = sampler.estimate_conditional_probability(
            event=lambda present: first in present,
            condition=lambda present: second in present,
            num_samples=3000,
        )
        # independence: conditioning on the other edge does not change the marginal
        assert estimate == pytest.approx(0.6, abs=0.06)

    def test_conditional_probability_unmet_condition_returns_zero(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        sampler = WorldSampler(graph, rng=rng)
        estimate = sampler.estimate_conditional_probability(
            event=lambda present: True,
            condition=lambda present: False,
            num_samples=50,
        )
        assert estimate == 0.0

    def test_deterministic_with_seed(self, triangle_graph_001):
        a = WorldSampler(triangle_graph_001, rng=42).sample_assignment()
        b = WorldSampler(triangle_graph_001, rng=42).sample_assignment()
        assert a == b
