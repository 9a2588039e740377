"""Randomized catalog parity harness and determinism regression tests.

The contract under test: for *any* database and workload, a
:class:`GraphCatalog` answers **identically** to a dense
:class:`QueryPlanner` built by hand over the same indexes — same accepted
set, same pruned set, same SSP estimates, same answer order, same counters.
The harness generates seeded random probabilistic databases (odd and even
sizes) and random T-PS workloads, and checks every query.

The determinism regression locks in the per-graph RNG derivation scheme:
two runs with the same seed produce byte-identical answers and counters
whatever runs them, because every stochastic sub-task seeds itself from
``(root, stage, global graph id)`` rather than from a shared stream.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    GraphCatalog,
    QueryPlanner,
    QueryStatistics,
    SearchConfig,
    VerificationConfig,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex

from tests.conftest import WIDE_SUPPORT_DISTANCE, build_index

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1

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


def dense_reference(graphs, bound_config, rng) -> QueryPlanner:
    """The dense from-scratch planner over the indexes
    ``GraphCatalog.build(graphs, FEATURE_CONFIG, bound_config, rng)`` builds."""
    return build_index(
        graphs, feature_config=FEATURE_CONFIG, bound_config=bound_config, rng=rng
    ).planner()


def assert_same_result(actual, expected, context=None) -> None:
    """Answers, the accept/prune partition and every non-timing counter."""
    assert answer_tuples(actual) == answer_tuples(expected), context
    assert accepted_and_pruned(actual) == accepted_and_pruned(expected), context
    assert counter_dict(actual.statistics) == counter_dict(expected.statistics), context


class TestRandomizedCatalogParity:
    """Catalog answers == dense planner answers, over randomized workloads."""

    # odd and even database sizes
    @pytest.mark.parametrize("seed,num_graphs", [(101, 7), (202, 8)])
    def test_catalog_matches_dense_planner(self, seed, num_graphs):
        database = random_database(seed, num_graphs)
        workload = random_workload(database, seed=seed * 3 + 1)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=seed
        )
        reference = dense_reference(database.graphs, BoundConfig(method="exact"), seed)
        results = catalog.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
        )
        assert len(results) == len(workload)
        for query, result in zip(workload, results):
            assert_same_result(
                result,
                reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
                ),
            )

    def test_sampled_bound_build_parity(self):
        """Parity also holds when the PMI itself is built by Monte-Carlo
        sampling."""
        database = random_database(77, 7)
        workload = random_workload(database, seed=500)
        sampled_bounds = BoundConfig(num_samples=40)
        catalog = GraphCatalog.build(
            database.graphs, feature_config=FEATURE_CONFIG, bound_config=sampled_bounds, rng=9
        )
        reference = dense_reference(database.graphs, sampled_bounds, 9)
        for query in workload:
            assert_same_result(
                catalog.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=4
                ),
                reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=4
                ),
            )

    def test_wide_support_request_takes_both_routes_identically(self, wide_support_corpus):
        """The estimator is chosen per candidate: a narrow support is summed
        exactly, a wide one draws worlds on the candidate's own stream.  One
        request holds both, and the catalog reproduces both to the byte — the
        sampled estimates are what makes that a contract."""
        graphs, queries = wide_support_corpus
        bounds = BoundConfig(num_samples=40)
        catalog = GraphCatalog.build(
            graphs, feature_config=FEATURE_CONFIG, bound_config=bounds, rng=9
        )
        reference = dense_reference(graphs, bounds, 9)
        results = catalog.query_many(
            queries, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=4
        )
        for query, result in zip(queries, results):
            assert 0 < result.statistics.sampled < result.statistics.verified
            assert_same_result(
                result,
                reference.execute(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, SEARCH_CONFIG, rng=4
                ),
            )
        catalog.close()

    def test_loaded_pmi_catalog_matches_dense_planner(self, tmp_path):
        """A persisted PMI adopted by a catalog answers byte-identically
        (answers and counters, threshold and top-k) to a dense planner over
        the same loaded PMI."""
        database = random_database(414, 7)
        workload = random_workload(database, seed=41)
        built = build_index(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=6,
        )
        built.pmi.save(tmp_path)
        loaded = ProbabilisticMatrixIndex.load(tmp_path)
        catalog = GraphCatalog.from_index(database.graphs, loaded, built.structural_index)
        reference = QueryPlanner(
            database.graphs, ProbabilisticMatrixIndex.load(tmp_path), built.structural_index
        )
        for query, actual in zip(
            workload,
            catalog.query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6
            ),
        ):
            assert_same_result(
                actual,
                reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=6
                ),
            )
        for query, actual in zip(
            workload,
            catalog.query_top_k_many(workload, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=6),
        ):
            assert_same_result(
                actual,
                reference.execute_top_k(query, 3, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=6),
            )
        catalog.close()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_loaded_pmi_without_build_root_is_refused(self, tmp_path, num_shards):
        """Delta appends must reuse the build root, so a payload that predates
        its recording cannot back a catalog — a typed error, not a mismatch,
        and the same one whatever ``num_shards`` is passed."""
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
    """Same seed ⇒ byte-identical results, whatever runs the query."""

    def test_query_many_byte_identical_across_runners(self):
        """A catalog's batch, a second build's one query at a time, and the
        dense planner's: one fingerprint."""
        database = random_database(404, 7)
        workload = random_workload(database, seed=40, num_queries=2)
        build = dict(
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=21
        )
        reference = dense_reference(database.graphs, BoundConfig(method="exact"), 21)
        second = GraphCatalog.build(database.graphs, **build)
        runs = [
            GraphCatalog.build(database.graphs, **build).query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=21
            ),
            [
                second.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=21
                )
                for query in workload
            ],
            [
                reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=21
                )
                for query in workload
            ],
        ]
        # answers and non-timing counters, serialized: wall-clock fields are
        # the only legitimately nondeterministic state
        fingerprints = [
            pickle.dumps(
                [
                    (tuple(answer_tuples(r)), tuple(sorted(counter_dict(r.statistics).items())))
                    for r in results
                ]
            )
            for results in runs
        ]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_two_runs_same_seed_identical(self):
        database = random_database(505, 6)
        workload = random_workload(database, seed=50, num_queries=2)
        engine = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=33,
        )
        first = engine.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=33
        )
        second = engine.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=33
        )
        for a, b in zip(first, second):
            assert pickle.dumps(answer_tuples(a)) == pickle.dumps(answer_tuples(b))
