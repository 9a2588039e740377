"""Tests for the Exact scan and independent-model baselines."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import ExactScanBaseline, database_to_independent, to_independent_model
from repro.baselines.exact_scan import ExactScanConfig
from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import QueryError
from repro.reference import enumerate_possible_worlds

from tests.conftest import WIDE_SUPPORT_DISTANCE, make_simple_probabilistic_graph


@pytest.fixture(scope="module")
def tiny_db():
    config = PPIDatasetConfig(
        num_graphs=4,
        num_families=2,
        vertices_per_graph=8,
        edges_per_graph=10,
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
    )
    return generate_ppi_database(config, rng=44)


class TestExactScan:
    def test_scan_verifies_every_graph(self, tiny_db):
        query = extract_query(tiny_db.graphs[0].skeleton, 3, rng=1)
        scan = ExactScanBaseline(tiny_db.graphs)
        result = scan.query(query, probability_threshold=0.2, distance_threshold=1, rng=2)
        assert result.statistics.verified == len(tiny_db.graphs)
        assert result.statistics.answers == len(result.answers)

    def test_scan_probabilities_respect_threshold(self, tiny_db):
        query = extract_query(tiny_db.graphs[1].skeleton, 3, rng=3)
        scan = ExactScanBaseline(tiny_db.graphs)
        result = scan.query(query, probability_threshold=0.3, distance_threshold=1, rng=2)
        assert all(answer.probability >= 0.3 for answer in result.answers)

    def test_exact_method_with_sampling_fallback(self, tiny_db):
        config = ExactScanConfig(
            verification=VerificationConfig(
                method="inclusion_exclusion", num_samples=300, max_exact_events=1
            ),
            fallback_to_sampling=True,
        )
        query = extract_query(tiny_db.graphs[2].skeleton, 3, rng=5)
        scan = ExactScanBaseline(tiny_db.graphs, config)
        result = scan.query(query, probability_threshold=0.2, distance_threshold=1, rng=2)
        assert result.statistics.verified == len(tiny_db.graphs)

    def test_fallback_can_be_disabled(self, tiny_db):
        from repro.exceptions import VerificationError

        config = ExactScanConfig(
            verification=VerificationConfig(method="inclusion_exclusion", max_exact_events=1),
            fallback_to_sampling=False,
        )
        query = extract_query(tiny_db.graphs[0].skeleton, 3, rng=6)
        scan = ExactScanBaseline(tiny_db.graphs, config)
        with pytest.raises(VerificationError):
            scan.query(query, probability_threshold=0.2, distance_threshold=1, rng=2)

    @pytest.mark.parametrize("epsilon, delta", [(0.0, 1), (1.5, 1), (0.2, 3), (0.2, -1)])
    def test_malformed_queries_are_refused(self, tiny_db, epsilon, delta):
        query = extract_query(tiny_db.graphs[0].skeleton, 3, rng=1)
        with pytest.raises(QueryError):
            ExactScanBaseline(tiny_db.graphs).query(query, epsilon, delta, rng=2)


class TestScanStreams:
    """Every graph verifies on its own ``(root, VERIFY_STREAM, graph id)``
    stream, sampling fallbacks included."""

    CONFIG = VerificationConfig(method="inclusion_exclusion", num_samples=50, max_exact_events=1)

    def test_probabilities_do_not_depend_on_the_graphs_scanned_before(
        self, wide_support_corpus
    ):
        """Graph ``i`` stays at id ``i`` while every other graph moves: its
        probability is the same, and in both query modes it is the pipeline's
        under the config the fallback runs."""
        graphs, (query, _) = wide_support_corpus
        scan = ExactScanBaseline(graphs, ExactScanConfig(verification=self.CONFIG))
        probabilities = answered(scan.query(query, 1e-9, WIDE_SUPPORT_DISTANCE, rng=5))
        assert answered(scan.top_k(query, len(graphs), WIDE_SUPPORT_DISTANCE, rng=5)) == (
            probabilities
        )
        # a top-k of the whole database verifies every structural candidate
        pipeline = GraphCatalog.build(graphs, rng=5).query_top_k(
            query,
            len(graphs),
            WIDE_SUPPORT_DISTANCE,
            config=SearchConfig(verification=replace(self.CONFIG, method="sampling")),
            rng=5,
        )
        assert pipeline.statistics.sampled > 0
        assert answered(pipeline) == probabilities
        for position in range(len(graphs)):
            others = (graphs[:position] + graphs[position + 1 :])[::-1]
            moved = [*others[:position], graphs[position], *others[position:]]
            rescanned = ExactScanBaseline(moved, scan.config).query(
                query, 1e-9, WIDE_SUPPORT_DISTANCE, rng=5
            )
            assert answered(rescanned).get(position) == probabilities.get(position)


def answered(result) -> dict[int, float]:
    return {answer.graph_id: answer.probability for answer in result.answers}


class TestIndependentModel:
    def test_marginals_preserved(self, triangle_graph_001):
        independent = to_independent_model(triangle_graph_001)
        for key in triangle_graph_001.edge_variables():
            assert independent.edge_marginal(key) == pytest.approx(
                triangle_graph_001.edge_marginal(key)
            )

    def test_correlation_removed(self, triangle_graph_001):
        """Under the independent model every world weight is a product of
        marginals; under the correlated model it generally is not."""
        independent = to_independent_model(triangle_graph_001)
        marginals = {
            key: triangle_graph_001.edge_marginal(key)
            for key in triangle_graph_001.edge_variables()
        }
        for world in enumerate_possible_worlds(independent):
            expected = 1.0
            for key, value in world.assignment_dict().items():
                expected *= marginals[key] if value else 1 - marginals[key]
            assert world.probability == pytest.approx(expected)

    def test_skeleton_and_name_preserved(self, overlap_graph_002):
        independent = to_independent_model(overlap_graph_002)
        assert independent.skeleton == overlap_graph_002.skeleton
        assert independent.name == overlap_graph_002.name
        assert len(independent.factors) == len(overlap_graph_002.factors)

    def test_database_conversion(self, tiny_db):
        converted = database_to_independent(tiny_db.graphs)
        assert len(converted) == len(tiny_db.graphs)

    def test_independent_model_is_idempotent(self):
        graph = make_simple_probabilistic_graph(correlation="independent")
        converted = to_independent_model(graph)
        for factor, original in zip(converted.factors, graph.factors):
            assert factor.jpt == original.jpt
