"""Randomized pool parity harness and determinism regression tests.

The contract under test: for *any* database, workload and worker count,
:class:`ShardedPlanner` answers are **identical** to the sequential
:class:`QueryPlanner` — same accepted set, same pruned set, same SSP
estimates, same answer order, same counters.  The harness generates seeded
random probabilistic databases (odd and even sizes) and random T-PS
workloads, and checks every query in-process and through a two-slot pool
(``num_shards=2`` caps the width at two).

The determinism regression locks in the per-graph RNG derivation scheme:
two runs with the same seed must produce byte-identical answers and
counters even when ``max_workers`` varies (in-process vs a real process
pool), because every stochastic sub-task seeds itself from
``(root, stage, global graph id)`` rather than from a shared stream.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import GraphCatalog, QueryStatistics, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex

from tests.conftest import WIDE_SUPPORT_DISTANCE, build_index

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
# the pooled runs here fork a real two-slot pool, on a one-CPU host too
pytestmark = pytest.mark.usefixtures("two_usable_cpus")

FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
# sampling-based verification on purpose: parity must hold for the
# *stochastic* pipeline, not just the exact one
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)


def random_database(seed: int, num_graphs: int):
    """A small seeded random probabilistic database."""
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
    """Seeded random T-PS queries extracted from the database's skeletons."""
    return [
        extract_query(
            database.graphs[index % len(database.graphs)].skeleton,
            3,
            rng=seed + index,
        )
        for index in range(num_queries)
    ]


def answer_tuples(result):
    return [(a.graph_id, a.graph_name, a.probability, a.decided_by) for a in result.answers]


def counter_dict(statistics: QueryStatistics) -> dict:
    """The deterministic (non-timing) fields of one query's statistics."""
    full = statistics.as_dict()
    return {key: value for key, value in full.items() if not key.endswith("_seconds")}


def accepted_and_pruned(result):
    """(accepted-without-verification ids, pruned count) for one query."""
    accepted = {a.graph_id for a in result.answers if a.decided_by == "lower_bound"}
    return accepted, result.statistics.pruned_by_upper_bound


class TestRandomizedCrossShardParity:
    """Pooled answers == sequential answers, over randomized workloads."""

    # odd and even database sizes
    @pytest.mark.parametrize("seed,num_graphs", [(101, 7), (202, 8)])
    def test_sharded_matches_sequential(self, seed, num_graphs):
        database = random_database(seed, num_graphs)
        workload = random_workload(database, seed=seed * 3 + 1)

        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=seed
        )
        sequential_results = sequential.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
        )

        for max_workers in (0, 2):
            sharded = GraphCatalog.build(
                database.graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(method="exact"),
                rng=seed,
                num_shards=2,
                max_workers=max_workers,
            )
            try:
                sharded_results = sharded.query_many(
                    workload,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=seed,
                )
            finally:
                sharded.close()

            assert len(sequential_results) == len(sharded_results) == len(workload)
            for sequential_result, sharded_result in zip(sequential_results, sharded_results):
                # answers: ids, names, SSP estimates, decision stage, order
                assert answer_tuples(sequential_result) == answer_tuples(sharded_result)
                # the accept/prune partition itself
                assert accepted_and_pruned(sequential_result) == accepted_and_pruned(
                    sharded_result
                ), max_workers
                # every non-timing counter
                assert counter_dict(sequential_result.statistics) == counter_dict(
                    sharded_result.statistics
                ), max_workers

    def test_sampled_bound_build_parity(self):
        """Parity also holds when the PMI itself is built by Monte-Carlo
        sampling: the pool verifies what the in-process planner verifies."""
        database = random_database(77, 7)
        workload = random_workload(database, seed=500)
        sampled_bounds = BoundConfig(num_samples=40)

        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=sampled_bounds, rng=9
        )
        sharded = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=sampled_bounds,
            rng=9,
            num_shards=2,
            max_workers=2,
        )
        for query in workload:
            before = sequential.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=4
            )
            after = sharded.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=4
            )
            assert answer_tuples(before) == answer_tuples(after)
        sharded.close()

    def test_wide_support_request_takes_both_routes_identically(self, wide_support_corpus):
        """The estimator is chosen per candidate: a narrow support is summed
        exactly, a wide one draws worlds on the candidate's own stream.  One
        request holds both, and the pool reproduces both to the byte — the
        sampled estimates are what makes that a contract."""
        graphs, queries = wide_support_corpus
        engines = [
            GraphCatalog.build(
                graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(num_samples=40),
                rng=9,
                num_shards=2,
                max_workers=max_workers,
            )
            for max_workers in (0, 2)
        ]
        sequential, *sharded = [
            engine.query_many(
                queries, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=4
            )
            for engine in engines
        ]
        for position, expected in enumerate(sequential):
            assert 0 < expected.statistics.sampled < expected.statistics.verified
            for results in sharded:
                assert answer_tuples(results[position]) == answer_tuples(expected)
                assert counter_dict(results[position].statistics) == counter_dict(
                    expected.statistics
                )
        for engine in engines:
            engine.close()

    def test_single_query_parity_through_process_pool(self):
        """One end-to-end case through a real process pool (the others run
        in-process to keep the harness fast)."""
        database = random_database(303, 6)
        query = random_workload(database, seed=900, num_queries=1)[0]

        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=1
        )
        sharded = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=1,
            num_shards=2,
            max_workers=2,
        )
        try:
            before = sequential.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=11
            )
            after = sharded.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=11
            )
        finally:
            sharded.close()
        assert answer_tuples(before) == answer_tuples(after)
        assert counter_dict(before.statistics) == counter_dict(after.statistics)


    def test_loaded_pmi_sharded_matches_sequential(self, tmp_path):
        """A persisted PMI adopted by a pooled catalog answers byte-identically
        (answers and counters, threshold and top-k) to the in-process
        catalog adopted from the same loaded PMI."""
        database = random_database(414, 7)
        workload = random_workload(database, seed=41)
        built = build_index(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=6,
        )
        built.pmi.save(tmp_path)

        sequential = GraphCatalog.from_index(
            database.graphs, ProbabilisticMatrixIndex.load(tmp_path), built.structural_index
        )
        sharded = GraphCatalog.from_index(
            database.graphs,
            ProbabilisticMatrixIndex.load(tmp_path),
            built.structural_index,
            num_shards=3,
            max_workers=2,
        )
        assert (sharded.planner().num_shards, sharded.planner().width) == (3, 2)
        for expected, actual in zip(
            sequential.query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6
            ),
            sharded.query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6
            ),
        ):
            assert answer_tuples(expected) == answer_tuples(actual)
            assert counter_dict(expected.statistics) == counter_dict(actual.statistics)
        for expected, actual in zip(
            sequential.query_top_k_many(
                workload, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6
            ),
            sharded.query_top_k_many(
                workload, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6
            ),
        ):
            assert answer_tuples(expected) == answer_tuples(actual)
            assert counter_dict(expected.statistics) == counter_dict(actual.statistics)
        sharded.close()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_loaded_pmi_without_build_root_is_refused(self, tmp_path, num_shards):
        """Delta appends must reuse the build root, so a payload that predates
        its recording cannot back a catalog — a typed error, not a mismatch,
        and the same one for every pool cap."""
        database = random_database(515, 4)
        built = build_index(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=6,
        )
        built.pmi.save(tmp_path)
        loaded = ProbabilisticMatrixIndex.load(tmp_path)
        loaded.build_root = None
        with pytest.raises(CatalogError, match="build root"):
            GraphCatalog.from_index(
                database.graphs, loaded, built.structural_index, num_shards=num_shards
            )


class TestDeterminismRegression:
    """Same seed ⇒ byte-identical results, independent of worker count."""

    def test_query_many_byte_identical_across_worker_counts(self):
        database = random_database(404, 7)
        workload = random_workload(database, seed=40, num_queries=2)

        fingerprints = []
        for max_workers in (0, 1, 2):
            engine = GraphCatalog.build(
                database.graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(method="exact"),
                rng=21,
                num_shards=2,
                max_workers=max_workers,
            )
            try:
                results = engine.query_many(
                    workload,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=21,
                )
            finally:
                engine.close()
            # answers and non-timing counters, serialized: wall-clock fields
            # are the only legitimately nondeterministic state
            fingerprints.append(
                pickle.dumps(
                    [
                        (tuple(answer_tuples(r)), tuple(sorted(counter_dict(r.statistics).items())))
                        for r in results
                    ]
                )
            )
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_two_runs_same_seed_identical(self):
        database = random_database(505, 6)
        workload = random_workload(database, seed=50, num_queries=2)
        engine = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=33,
            num_shards=3,
            max_workers=0,
        )
        first = engine.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=33
        )
        second = engine.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=33
        )
        for a, b in zip(first, second):
            assert pickle.dumps(answer_tuples(a)) == pickle.dumps(answer_tuples(b))
