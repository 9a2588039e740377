"""Top-k parity harness.

Two contracts under test:

1. **Reference parity** — pipeline ``query_top_k`` answers (graph ids *and*
   probabilities) equal the index-free ``ExactScanBaseline.top_k`` reference,
   which verifies every graph and ranks by ``(-probability, graph_id)``.
   Randomized databases, k ∈ {1, 3, len(db)}.  Exact SIP bounds + exact
   verification keep the pruning provably sound, so the two sides must agree
   exactly.
2. **Dense-planner invariant** — top-k through a catalog, a batch at a time,
   is byte-identical to a dense planner built by hand over the same indexes,
   answers and counters, *including stochastic (sampling) verification*: the
   one loop visits every candidate with per-graph-seeded estimates, so
   nothing depends on what else the batch holds.
"""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.exact_scan import ExactScanBaseline, ExactScanConfig
from repro.core import GraphCatalog, SearchConfig, VerificationConfig, pipeline
from repro.core.verification import Verifier
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig

from tests.conftest import WIDE_SUPPORT_DISTANCE, build_index, replay_top_k_one_at_a_time

DISTANCE_THRESHOLD = 1

FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
EXACT_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="inclusion_exclusion")
)
EXACT_SCAN_CONFIG = ExactScanConfig()  # inclusion-exclusion
# stochastic verification on purpose: the merge invariant must hold for the
# sampled pipeline too, not just the exact one
SAMPLING_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)


def random_database(seed: int, num_graphs: int):
    config = PPIDatasetConfig(
        num_graphs=num_graphs,
        num_families=2,
        vertices_per_graph=8,
        edges_per_graph=9,
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=seed)


def random_workload(database, seed: int, num_queries: int = 3):
    return [
        extract_query(
            database.graphs[index % len(database.graphs)].skeleton,
            3,
            rng=seed + index,
        )
        for index in range(num_queries)
    ]


def answer_tuples(result):
    return [
        (a.graph_id, a.graph_name, a.probability, a.decided_by) for a in result.answers
    ]


def build_engine(graphs, seed):
    return GraphCatalog.build(
        graphs, feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=seed
    )


def dense_planner(graphs, seed, bound_config=None):
    """The dense from-scratch planner over the indexes ``GraphCatalog.build``
    builds with these arguments (exact SIP bounds by default)."""
    return build_index(
        graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=bound_config or BoundConfig(method="exact"),
        rng=seed,
    ).planner()


class TestReferenceParity:
    """Pipeline top-k == exhaustive exact-scan top-k, randomized."""

    @pytest.mark.parametrize("seed,num_graphs", [(111, 7), (222, 8)])
    def test_top_k_matches_exact_scan_reference(self, seed, num_graphs):
        database = random_database(seed, num_graphs)
        workload = random_workload(database, seed=seed * 5 + 1)
        reference = ExactScanBaseline(database.graphs, EXACT_SCAN_CONFIG)
        engine = build_engine(database.graphs, seed)
        for query_index, query in enumerate(workload):
            for k in (1, 3, num_graphs):
                expected = reference.top_k(query, k, DISTANCE_THRESHOLD, rng=seed)
                expected_tuples = [
                    (a.graph_id, a.probability) for a in expected.answers
                ]
                result = engine.query_top_k(
                    query, k, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=seed
                )
                assert [
                    (a.graph_id, a.probability) for a in result.answers
                ] == expected_tuples, (query_index, k)
        engine.close()

    def test_k_larger_than_matches_returns_all_positive(self):
        database = random_database(333, 6)
        query = random_workload(database, seed=90, num_queries=1)[0]
        engine = build_engine(database.graphs, 333)
        huge = engine.query_top_k(
            query, len(database.graphs), DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=2
        )
        reference = ExactScanBaseline(database.graphs, EXACT_SCAN_CONFIG).top_k(
            query, len(database.graphs), DISTANCE_THRESHOLD, rng=2
        )
        assert [(a.graph_id, a.probability) for a in huge.answers] == [
            (a.graph_id, a.probability) for a in reference.answers
        ]
        assert all(a.probability > 0.0 for a in huge.answers)

    def test_top_k_is_prefix_of_threshold_ranking(self):
        """Top-k answers are exactly the k best answers a permissive
        threshold query returns (same order, same probabilities)."""
        database = random_database(444, 7)
        query = random_workload(database, seed=41, num_queries=1)[0]
        engine = build_engine(database.graphs, 444)
        k = 3
        top = engine.query_top_k(
            query, k, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=7
        )
        threshold = engine.query(
            query, 1e-9, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=7
        )
        assert answer_tuples(top) == answer_tuples(threshold)[: len(top.answers)]


class TestDensePlannerInvariant:
    """Catalog top-k ≡ dense-planner top-k, byte for byte."""

    @pytest.mark.parametrize("seed,num_graphs", [(555, 7), (666, 8)])
    def test_batch_byte_identical_to_dense_planner_with_sampling(self, seed, num_graphs):
        database = random_database(seed, num_graphs)
        workload = random_workload(database, seed=seed * 7 + 3)
        reference = dense_planner(database.graphs, seed)
        engine = build_engine(database.graphs, seed)
        for k in (1, 3, num_graphs):
            expected = [
                pickle.dumps(
                    answer_tuples(
                        reference.execute_top_k(
                            query, k, DISTANCE_THRESHOLD, SAMPLING_SEARCH_CONFIG, rng=seed
                        )
                    )
                )
                for query in workload
            ]
            results = engine.query_top_k_many(
                workload, k, DISTANCE_THRESHOLD, config=SAMPLING_SEARCH_CONFIG, rng=seed
            )
            assert [pickle.dumps(answer_tuples(result)) for result in results] == expected, k
        engine.close()

    def test_wide_support_replay_over_both_routes(self, wide_support_corpus):
        """The one loop ranks estimates of both kinds — exact sums over narrow
        supports, sampled ones over wide supports — in a catalog as in the
        dense planner, and samples as often."""
        graphs, queries = wide_support_corpus
        bounds = BoundConfig(num_samples=40)
        engine = GraphCatalog.build(graphs, feature_config=FEATURE_CONFIG, bound_config=bounds, rng=5)
        reference = dense_planner(graphs, 5, bounds)
        for query in queries:
            for k in (1, 3):
                result = engine.query_top_k(
                    query, k, WIDE_SUPPORT_DISTANCE, config=SAMPLING_SEARCH_CONFIG, rng=5
                )
                expected = reference.execute_top_k(
                    query, k, WIDE_SUPPORT_DISTANCE, SAMPLING_SEARCH_CONFIG, rng=5
                )
                assert 0 < expected.statistics.sampled < expected.statistics.verified
                assert pickle.dumps(answer_tuples(result)) == pickle.dumps(
                    answer_tuples(expected)
                ), k
                assert _counters(result.statistics) == _counters(expected.statistics), k
        engine.close()

    def test_wide_support_top_k_equals_the_walk_of_blocks_of_one(
        self, wide_support_corpus, monkeypatch
    ):
        """The top-k walk that verifies its Usim-1 run in one call answers and
        counts as the one-at-a-time walk whose estimator verifies each
        candidate alone, ``verify_rows(planner, plan, [row], root)``, on both
        verification routes."""
        graphs, queries = wide_support_corpus
        engine = GraphCatalog.build(
            graphs, feature_config=FEATURE_CONFIG, bound_config=BoundConfig(num_samples=40), rng=5
        )
        blocks = []
        verify_rows = pipeline.verify_rows

        def counted_rows(planner, plan, rows, root):
            blocks.append(len(rows))
            return verify_rows(planner, plan, rows, root)

        def walk_alone(candidate_ids, usim, lsim, estimate, k):
            return replay_top_k_one_at_a_time(
                candidate_ids, usim, lsim, lambda graph_id: estimate([graph_id])[0], k
            )

        def top_k_runs():
            return [
                engine.query_top_k(
                    query, k, WIDE_SUPPORT_DISTANCE, config=SAMPLING_SEARCH_CONFIG, rng=5
                )
                for query in queries
                for k in (1, 3)
            ]

        monkeypatch.setattr(pipeline, "verify_rows", counted_rows)
        runs = top_k_runs()
        assert max(blocks) > 1
        del blocks[:]
        monkeypatch.setattr(pipeline, "replay_top_k", walk_alone)
        expected = top_k_runs()
        engine.close()
        assert set(blocks) == {1}
        for result, want in zip(runs, expected, strict=True):
            assert 0 < want.statistics.sampled < want.statistics.verified
            assert pickle.dumps(answer_tuples(result)) == pickle.dumps(answer_tuples(want))
            assert _counters(result.statistics) == _counters(want.statistics)

    def test_worker_count_does_not_change_answers(self):
        """``max_workers`` is still taken (the end-to-end harness passes it)
        and changes nothing: each width answers as a catalog built without it."""
        database = random_database(777, 6)
        query = random_workload(database, seed=71, num_queries=1)[0]
        fingerprints = []
        for max_workers in (None, 0, 1, 2):
            extra = {} if max_workers is None else dict(num_shards=2, max_workers=max_workers)
            engine = GraphCatalog.build(
                database.graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(method="exact"),
                rng=777,
                **extra,
            )
            try:
                result = engine.query_top_k(
                    query, 3, DISTANCE_THRESHOLD, config=SAMPLING_SEARCH_CONFIG, rng=13
                )
            finally:
                engine.close()
            fingerprints.append(pickle.dumps((answer_tuples(result), _counters(result.statistics))))
        assert len(set(fingerprints)) == 1

    def test_same_seed_same_answers(self):
        database = random_database(888, 7)
        query = random_workload(database, seed=81, num_queries=1)[0]
        engine = build_engine(database.graphs, 888)
        first = engine.query_top_k(
            query, 2, DISTANCE_THRESHOLD, config=SAMPLING_SEARCH_CONFIG, rng=5
        )
        second = engine.query_top_k(
            query, 2, DISTANCE_THRESHOLD, config=SAMPLING_SEARCH_CONFIG, rng=5
        )
        assert answer_tuples(first) == answer_tuples(second)

    def test_statistics_equal_the_dense_planners(self):
        """The floor is seeded once over every candidate and the walk runs
        once per query, so a catalog's top-k batch counts exactly what the
        dense planner counts, whatever the verification method."""
        database = random_database(999, 8)
        queries = random_workload(database, seed=91, num_queries=2)
        reference = dense_planner(database.graphs, 999)
        engine = build_engine(database.graphs, 999)
        for config in (EXACT_SEARCH_CONFIG, SAMPLING_SEARCH_CONFIG):
            expected = [
                reference.execute_top_k(query, 2, DISTANCE_THRESHOLD, config, rng=3)
                for query in queries
            ]
            assert sum(result.statistics.verified for result in expected) > 0
            results = engine.query_top_k_many(queries, 2, DISTANCE_THRESHOLD, config=config, rng=3)
            for want, got in zip(expected, results, strict=True):
                assert answer_tuples(got) == answer_tuples(want)
                assert _counters(got.statistics) == _counters(want.statistics)
        engine.close()


def _counters(statistics) -> dict:
    """``as_dict()`` without its wall-clock entries."""
    return {
        key: value
        for key, value in statistics.as_dict().items()
        if not key.endswith("_seconds")
    }


class TestTopKPruningEffectiveness:
    def test_dynamic_floor_skips_verifications(self):
        """With k much smaller than the candidate set, the tightening floor
        must verify no more graphs than the full threshold scan — and the
        skipped candidates show up in the verification stage's counters."""
        database = random_database(1234, 8)
        query = random_workload(database, seed=21, num_queries=1)[0]
        engine = build_engine(database.graphs, 1234)
        scan = engine.query(
            query, 1e-9, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=7
        )
        top = engine.query_top_k(
            query, 1, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=7
        )
        assert top.statistics.verified <= scan.statistics.verified
        verification_stage = top.statistics.stages[-1]
        assert (
            verification_stage.pruned
            == verification_stage.examined - top.statistics.verified
        )

    def test_one_shard_floor_skips_on_a_two_tier_database(self, monkeypatch):
        """A high-probability tier the answers come from beside a low one.
        The pinned counts are what the floor must skip: a floor that stops
        skipping verifies every survivor (12 per query here), and a walk that
        verifies past the floor hands more rows to ``verify_block`` than it
        counts.  Answers stay the exact scan's."""
        high, low = (
            generate_ppi_database(
                PPIDatasetConfig(
                    num_graphs=num_graphs,
                    num_families=3,
                    vertices_per_graph=8,
                    edges_per_graph=9,
                    motif_vertices=4,
                    motif_edges=4,
                    mean_edge_probability=probability,
                    probability_spread=0.08,
                ),
                rng=7,
            )
            for num_graphs, probability in ((12, 0.9), (24, 0.15))
        )
        graphs = high.graphs + low.graphs
        engine = GraphCatalog.build(
            graphs,
            feature_config=FeatureSelectionConfig(
                alpha=0.1, beta=0.15, gamma=0.1, max_vertices=3, max_features=16
            ),
            bound_config=BoundConfig(method="exact"),
            rng=7,
        )
        queries = list(high.family_motifs)
        blocks = []
        verify_block = Verifier.verify_block

        def spy(verifier, query, graphs, *args, **kwargs):
            blocks.append(len(graphs))
            return verify_block(verifier, query, graphs, *args, **kwargs)

        monkeypatch.setattr(Verifier, "verify_block", spy)
        results = engine.query_top_k_many(
            queries, 2, DISTANCE_THRESHOLD, config=EXACT_SEARCH_CONFIG, rng=7
        )
        assert [result.statistics.verified for result in results] == [4, 12, 11]
        assert [result.statistics.stages[-1].pruned for result in results] == [8, 0, 1]
        # no query verifies fewer rows than it counts, so the totals pin each
        assert sum(blocks) == 4 + 12 + 11
        reference = ExactScanBaseline(graphs, EXACT_SCAN_CONFIG)
        for query, result in zip(queries, results):
            expected = reference.top_k(query, 2, DISTANCE_THRESHOLD, rng=7)
            assert [(a.graph_id, a.probability) for a in result.answers] == [
                (a.graph_id, a.probability) for a in expected.answers
            ]
