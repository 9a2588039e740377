"""Tests for SSP verification (exact inclusion-exclusion and the SMP sampler),
against the possible-world definition in ``repro.reference``."""

from __future__ import annotations

import statistics

import pytest

from repro.core import VerificationConfig, Verifier, relax_query
from repro.datasets import extract_query
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.exceptions import ConfigurationError, VerificationError
from repro.graphs import LabeledGraph
from repro.probability import estimate_union_probability_batch
from repro.reference import similarity_probability_by_enumeration

from tests.conftest import make_simple_probabilistic_graph


def path_query():
    query = LabeledGraph(name="q")
    query.add_vertex(0, "a")
    query.add_vertex(1, "b")
    query.add_vertex(2, "a")
    query.add_edge(0, 1, "x")
    query.add_edge(1, 2, "x")
    return query


class TestEnumerationGroundTruth:
    def test_enumeration_matches_hand_computation(self):
        """Query = single a-b edge, distance 0: SSP = Pr(at least one of the
        four a-b edges is present) = 1 - (1-p)^4."""
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        query = LabeledGraph()
        query.add_vertex(0, "a")
        query.add_vertex(1, "b")
        query.add_edge(0, 1, "x")
        ssp = similarity_probability_by_enumeration(query, graph, 0)
        assert ssp == pytest.approx(1 - 0.5**4)

    def test_enumeration_size_guard(self, small_ppi_database):
        with pytest.raises(VerificationError):
            similarity_probability_by_enumeration(
                path_query(), small_ppi_database.graphs[0], 1, max_edges=4
            )


class TestExactInclusionExclusion:
    @pytest.mark.parametrize("delta", [0, 1])
    def test_matches_enumeration(self, delta):
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        query = path_query()
        exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
        assert exact.subgraph_similarity_probability(query, graph, delta) == pytest.approx(
            similarity_probability_by_enumeration(query, graph, delta), abs=1e-9
        )

    def test_matches_enumeration_on_correlated_graph(self, triangle_graph_001):
        query = LabeledGraph()
        query.add_vertex(0, "a")
        query.add_vertex(1, "b")
        query.add_vertex(2, "c")
        query.add_edge(0, 1, "e")
        query.add_edge(1, 2, "e")
        exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
        for delta in (0, 1):
            assert exact.subgraph_similarity_probability(
                query, triangle_graph_001, delta
            ) == pytest.approx(
                similarity_probability_by_enumeration(query, triangle_graph_001, delta),
                abs=1e-9,
            )

    def test_zero_probability_when_query_label_missing(self):
        graph = make_simple_probabilistic_graph()
        query = LabeledGraph()
        query.add_vertex(0, "zz")
        query.add_vertex(1, "zz")
        query.add_edge(0, 1, "q")
        verifier = Verifier(VerificationConfig(method="inclusion_exclusion"))
        assert verifier.subgraph_similarity_probability(query, graph, 0) == 0.0


class TestSamplingVerifier:
    def test_sampler_close_to_exact(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        query = path_query()
        exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
        sampler = Verifier(VerificationConfig(method="sampling", num_samples=4000), rng=rng)
        truth = exact.subgraph_similarity_probability(query, graph, 1)
        estimate = sampler.subgraph_similarity_probability(query, graph, 1)
        assert estimate == pytest.approx(truth, abs=0.05)

    def test_sampler_on_correlated_graph(self, triangle_graph_001, rng):
        query = LabeledGraph()
        query.add_vertex(0, "a")
        query.add_vertex(1, "b")
        query.add_edge(0, 1, "e")
        exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
        sampler = Verifier(VerificationConfig(method="sampling", num_samples=4000), rng=rng)
        truth = exact.subgraph_similarity_probability(query, triangle_graph_001, 0)
        estimate = sampler.subgraph_similarity_probability(query, triangle_graph_001, 0)
        assert estimate == pytest.approx(truth, abs=0.05)

    def test_estimator_error_falls_as_the_sample_budget_grows(self, small_ppi_database):
        """Mean |error| over 5 trials at 3,200 samples is at most that at 50
        (+ 0.02) against the exact SSP.  The estimator is called on the
        verifier's events directly: ``method="sampling"`` answers a support
        this narrow exactly, so its error would read 0 at every budget."""
        graph = small_ppi_database.graphs[0]
        query = extract_query(graph.skeleton, 4, rng=99)
        exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
        truth = exact.subgraph_similarity_probability(query, graph, 1)
        assert 0.0 < truth < 1.0
        (events,) = exact.events_block(relax_query(query, 1, exact.relaxation), [graph])

        def mean_error(num_samples):
            estimates = (
                estimate_union_probability_batch(graph, events, num_samples=num_samples, rng=trial)
                for trial in range(5)
            )
            return statistics.fmean(abs(estimate - truth) for estimate in estimates)

        assert mean_error(3200) <= mean_error(50) + 0.02

    def test_unknown_method_rejected(self):
        """The possible-world definition is an oracle, not a method: refused,
        and the refusal names the two methods there are."""
        with pytest.raises(ConfigurationError) as refused:
            VerificationConfig(method="enumeration")
        assert str(refused.value).endswith("('sampling', 'inclusion_exclusion')")


class TestConfigValidation:
    @pytest.mark.parametrize("method", ["sampling_scaler", "sampling_scalar", "exact", ""])
    def test_unknown_method_is_refused_at_construction(self, method):
        """Not when the first candidate reaches verification — a query with no
        candidate would never get there and answer silently."""
        with pytest.raises(ConfigurationError, match="'sampling', 'inclusion_exclusion'"):
            VerificationConfig(method=method)

    @pytest.mark.parametrize("method", ["sampling", "inclusion_exclusion"])
    def test_the_two_methods_are_accepted(self, method):
        assert VerificationConfig(method=method).method == method

    @pytest.mark.parametrize("limit", [0, -1, True, 2.5, "64"])
    @pytest.mark.parametrize("config", [VerificationConfig, BoundConfig, FeatureSelectionConfig])
    def test_embedding_limit_is_an_integer_of_at_least_one_or_none(self, config, limit):
        """A cap of 0 or -1 enumerated no embedding, so every SSP came out 0.0
        and every candidate was dismissed; ``True`` was taken as a cap of 1."""
        with pytest.raises(ConfigurationError, match="embedding_limit"):
            config(embedding_limit=limit)
        assert config(embedding_limit=None).embedding_limit is None
        assert config(embedding_limit=1).embedding_limit == 1
