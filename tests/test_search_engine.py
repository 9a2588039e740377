"""Integration tests: the full filter-and-verify pipeline behind
``GraphCatalog`` against ground truth, and the one-shard adapter the
``verify_heavy`` benchmark workload still builds through held equal to it."""

from __future__ import annotations

import pytest

from repro.core import (
    GraphCatalog,
    ProbabilisticGraphDatabase,
    SearchConfig,
    VerificationConfig,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError, IndexError_, QueryError
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, FeatureSelectionConfig
from tests.conftest import build_index

FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
)


@pytest.fixture(scope="module")
def tiny_database():
    """A database small enough for exact (inclusion-exclusion) ground truth."""
    config = PPIDatasetConfig(
        num_graphs=6,
        num_families=2,
        vertices_per_graph=9,
        edges_per_graph=11,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=31)


@pytest.fixture(scope="module")
def indexed_database(tiny_database):
    return GraphCatalog.build(
        tiny_database.graphs,
        feature_config=FEATURE_CONFIG,
        # exact SIP bounds keep the pruning deterministic and provably sound,
        # so the end-to-end result must coincide with the exact ground truth
        bound_config=BoundConfig(method="exact"),
        rng=17,
    )


def exact_answers(graphs, query, epsilon, delta):
    """Ground-truth answer set by exact verification of every graph."""
    from repro.core.verification import Verifier

    verifier = Verifier(VerificationConfig(method="inclusion_exclusion", embedding_limit=None))
    answers = {}
    for graph_id, graph in enumerate(graphs):
        probability = verifier.subgraph_similarity_probability(query, graph, delta)
        if probability >= epsilon:
            answers[graph_id] = probability
    return answers


class TestValidation:
    def test_query_before_index(self, tiny_database, path_query):
        """The adapter's one state without a catalog refuses every query."""
        database = ProbabilisticGraphDatabase(tiny_database.graphs)
        with pytest.raises(IndexError_):
            database.query(path_query, 0.5, 1)

    def test_empty_database_rejected(self):
        with pytest.raises(CatalogError):
            GraphCatalog.build([])

    def test_bad_thresholds_rejected(self, indexed_database, path_query):
        with pytest.raises(QueryError):
            indexed_database.query(path_query, 0.0, 1)
        with pytest.raises(QueryError):
            indexed_database.query(path_query, 1.5, 1)
        with pytest.raises(QueryError):
            indexed_database.query(path_query, 0.5, -1)
        with pytest.raises(QueryError):
            indexed_database.query(path_query, 0.5, path_query.num_edges)

    def test_disconnected_query_rejected(self, indexed_database):
        disconnected = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")]
        )
        with pytest.raises(QueryError):
            indexed_database.query(disconnected, 0.5, 1)

    def test_len(self, indexed_database, tiny_database):
        assert len(indexed_database) == len(tiny_database.graphs)


class TestEndToEndCorrectness:
    @pytest.mark.parametrize("epsilon", [0.2, 0.4])
    def test_pipeline_matches_exact_ground_truth(self, indexed_database, tiny_database, epsilon):
        query = extract_query(tiny_database.graphs[0].skeleton, 3, rng=5)
        config = SearchConfig(
            verification=VerificationConfig(method="inclusion_exclusion")
        )
        result = indexed_database.query(query, epsilon, 1, config=config, rng=3)
        truth = exact_answers(tiny_database.graphs, query, epsilon, 1)
        assert result.answer_ids() == set(truth)

    def test_answers_sorted_by_probability(self, indexed_database, tiny_database):
        query = extract_query(tiny_database.graphs[1].skeleton, 3, rng=9)
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        result = indexed_database.query(query, 0.1, 1, config=config, rng=3)
        probabilities = [answer.probability for answer in result.answers]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_statistics_are_consistent(self, indexed_database, tiny_database):
        query = extract_query(tiny_database.graphs[2].skeleton, 3, rng=2)
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        result = indexed_database.query(query, 0.3, 1, config=config, rng=3)
        stats = result.statistics
        assert stats.database_size == len(tiny_database.graphs)
        assert stats.structural_candidates <= stats.database_size
        assert stats.probabilistic_candidates <= stats.structural_candidates
        assert stats.verified <= stats.probabilistic_candidates
        assert stats.answers == len(result.answers)
        assert stats.relaxed_query_count >= 1
        assert stats.total_seconds >= 0.0

    def test_sampling_verification_agrees_on_clear_cases(self, indexed_database, tiny_database):
        """With a low threshold the sampling pipeline should agree with the
        exact one on graphs whose SSP is far from the threshold."""
        query = extract_query(tiny_database.graphs[0].skeleton, 3, rng=7)
        exact_cfg = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        sample_cfg = SearchConfig(
            verification=VerificationConfig(method="sampling", num_samples=2500)
        )
        exact_result = indexed_database.query(query, 0.15, 1, config=exact_cfg, rng=3)
        sampled_result = indexed_database.query(query, 0.15, 1, config=sample_cfg, rng=3)
        truth = exact_answers(tiny_database.graphs, query, 0.15, 1)
        clear = {gid for gid, p in truth.items() if abs(p - 0.15) > 0.08}
        assert clear & exact_result.answer_ids() == clear & sampled_result.answer_ids()


def counters(result):
    stats = result.statistics.as_dict()
    return {key: value for key, value in stats.items() if not key.endswith("_seconds")}


def outcome(result):
    answers = [(a.graph_id, a.graph_name, a.probability, a.decided_by) for a in result.answers]
    return answers, counters(result)


class TestAdapter:
    def test_answers_and_counters_equal_the_catalog(self, tiny_database, tmp_path):
        """``ProbabilisticGraphDatabase`` is ``GraphCatalog.build`` behind the
        surface ``benchmarks/e2e``'s ``verify_heavy`` calls, and ``to_catalog``
        is ``GraphCatalog.from_index``: equal answers and counters, so moving
        that workload onto the catalog moves no number."""
        graphs = tiny_database.graphs
        arguments = dict(
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(num_samples=40), rng=29
        )
        adapter = ProbabilisticGraphDatabase(graphs).build_index(**arguments)
        built = GraphCatalog.build(graphs, **arguments)
        direct = build_index(graphs, **arguments)
        adopted = adapter.to_catalog(directory=tmp_path)
        assert adopted.generation is not None
        config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=200))
        queries = [extract_query(graph.skeleton, 4, rng=seed) for seed, graph in enumerate(graphs)]
        for index, query in enumerate(queries):
            for call in (
                lambda target: target.query(query, 0.3, 1, config=config, rng=index),
                lambda target: target.query(query, 0.1, 2, config=config, rng=index),
                lambda target: target.query_top_k(query, 2, 1, config=config, rng=index),
            ):
                expected = outcome(call(built))
                assert outcome(call(adapter)) == expected
                assert outcome(call(adopted)) == outcome(call(direct.catalog)) == expected
        adopted.close()
        adapter.close()
        built.close()
