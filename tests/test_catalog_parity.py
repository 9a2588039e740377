"""Randomized rebuild-parity harness for the mutable catalog.

The contract under test (the catalog's reason to exist): after *any*
sequence of ``add_graph`` / ``remove_graph`` / ``update_graph`` /
``compact`` operations, threshold and top-k answers — probabilities, ranks,
and per-stage counters — are **byte-identical** to a from-scratch build
over the equivalent database (same ``external id → graph`` mapping, the
catalog's pinned feature set, the catalog's build root), also with a
query between every two mutations.

Verification uses Karp–Luby sampling on purpose: the parity must hold for
the stochastic pipeline, which is exactly what the stable-external-id RNG
stream derivation guarantees.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import (
    GraphCatalog,
    QueryPlanner,
    QueryStatistics,
    SearchConfig,
    VerificationConfig,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex

from test_sharding_parity import random_workload

from tests.conftest import WIDE_SUPPORT_DISTANCE, live_ids

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
BOUND_CONFIG = BoundConfig(num_samples=40)
SEARCH_CONFIG = SearchConfig(
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


def answer_tuples(result):
    return [
        (a.graph_id, a.graph_name, a.probability, a.decided_by)
        for a in result.answers
    ]


def counter_dict(statistics: QueryStatistics) -> dict:
    return {
        key: value
        for key, value in statistics.as_dict().items()
        if not key.endswith("seconds")
    }


def apply_random_mutations(catalog: GraphCatalog, pool, seed: int, num_ops: int):
    """Drive a seeded op sequence; returns the ops applied (for failure msgs)."""
    decider = random.Random(seed)
    pool = list(pool)
    ops = []
    for _ in range(num_ops):
        op = decider.choice(["add", "add", "remove", "update", "compact"])
        live = live_ids(catalog)
        if op == "add" and pool:
            ops.append(("add", catalog.add_graph(pool.pop())))
        elif op == "remove" and len(live) > 2:
            victim = decider.choice(live)
            catalog.remove_graph(victim)
            ops.append(("remove", victim))
        elif op == "update" and live and pool:
            target = decider.choice(live)
            catalog.update_graph(target, pool.pop())
            ops.append(("update", target))
        elif op == "compact":
            catalog.compact()
            ops.append(("compact",))
    return ops


def rebuild_from_scratch(catalog: GraphCatalog) -> QueryPlanner:
    """The reference: a dense, single-segment build of the equivalent database."""
    items = catalog.live_items()
    graphs = [graph for _, graph in items]
    external_ids = [external_id for external_id, _ in items]
    pmi = ProbabilisticMatrixIndex(
        feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
    ).build(
        graphs,
        features=catalog.features,
        rng=catalog.build_root,
        graph_ids=external_ids,
    )
    structural = StructuralFeatureIndex(
        embedding_limit=FEATURE_CONFIG.embedding_limit
    ).build([graph.skeleton for graph in graphs], catalog.features)
    return QueryPlanner(
        graphs, pmi, structural, graph_ids=np.asarray(external_ids, dtype=np.int64)
    )


def assert_result_parity(actual, expected, context: str) -> None:
    assert answer_tuples(actual) == answer_tuples(expected), context
    assert counter_dict(actual.statistics) == counter_dict(expected.statistics), context


@pytest.mark.parametrize("seed", [1201, 1202, 1203, 1301, 1302])
def test_mutated_catalog_matches_from_scratch_rebuild(seed):
    """Sequential catalog == dense rebuild, threshold and top-k, after ~10 ops."""
    database = random_database(seed, num_graphs=7)
    pool = random_database(seed + 1000, num_graphs=8).graphs
    queries = [
        extract_query(database.graphs[index % 7].skeleton, 3, rng=seed + index)
        for index in range(2)
    ]
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=seed,
    )
    ops = apply_random_mutations(catalog, pool, seed, num_ops=10)
    reference = rebuild_from_scratch(catalog)
    for query_index, query in enumerate(queries):
        context = f"seed={seed} ops={ops} query={query_index}"
        assert_result_parity(
            catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            ),
            reference.execute(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            ),
            context,
        )
        for k in (1, 2, 4):
            assert_result_parity(
                catalog.query_top_k(
                    query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
                ),
                reference.execute_top_k(
                    query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
                ),
                f"{context} k={k}",
            )


@pytest.mark.parametrize("seed", [1301, 1302])
@pytest.mark.parametrize("num_shards", [2, 4])
def test_mutated_sharded_catalog_matches_sequential(seed, num_shards):
    """A catalog given the pool arguments the end-to-end harness still
    passes (``num_shards`` and ``max_workers`` are checked, then ignored)
    == a catalog given none == the dense rebuild, after the same mutations.
    """
    database = random_database(seed, num_graphs=7)
    pool = random_database(seed + 1000, num_graphs=8).graphs
    query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
    sequential = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=seed,
    )
    sharded = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=seed,
        num_shards=num_shards,
        max_workers=2,
    )
    ops = apply_random_mutations(sequential, pool, seed, num_ops=8)
    ops_sharded = apply_random_mutations(sharded, pool, seed, num_ops=8)
    assert ops == ops_sharded  # same seed, same sizes -> same decisions
    context = f"seed={seed} K={num_shards} ops={ops}"
    reference = rebuild_from_scratch(sequential)
    threshold_results = [
        planner_like.query(
            query,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=SEARCH_CONFIG,
            rng=seed,
        )
        for planner_like in (sequential, sharded)
    ]
    expected = reference.execute(
        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
    )
    for result in threshold_results:
        assert_result_parity(result, expected, context)
    for k in (1, 2, 4):
        expected_top = reference.execute_top_k(
            query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
        )
        sequential_top = sequential.query_top_k(
            query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
        )
        sharded_top = sharded.query_top_k(
            query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
        )
        assert_result_parity(sequential_top, expected_top, f"{context} k={k}")
        assert_result_parity(sharded_top, expected_top, f"{context} k={k}")
    sharded.close()


@pytest.mark.parametrize("num_shards", [1, 2])
def test_wide_support_request_after_mutations_matches_rebuild(wide_support_corpus, num_shards):
    """Rebuild parity where one request takes both verification routes: the
    candidates that sample do so on their stable external id's stream, the
    others are summed exactly, before and after the catalog moved rows."""
    graphs, queries = wide_support_corpus
    catalog = GraphCatalog.build(
        graphs[:6],
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=1501,
        num_shards=num_shards,
        max_workers=0,
    )
    catalog.add_graph(graphs[6])
    catalog.remove_graph(1)
    catalog.update_graph(3, graphs[7])
    reference = rebuild_from_scratch(catalog)
    for query in queries:
        actual = catalog.query(
            query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=15
        )
        expected = reference.execute(
            query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=15
        )
        assert 0 < actual.statistics.sampled < actual.statistics.verified
        assert_result_parity(actual, expected, f"after mutations, K={num_shards}")
        assert answer_tuples(
            catalog.query_top_k(query, 2, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=15)
        ) == answer_tuples(
            reference.execute_top_k(query, 2, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=15)
        )
    catalog.close()


def test_compaction_is_invisible_to_queries():
    """Interleaved compactions never change any answer (stable-id contract)."""
    seed = 1401
    database = random_database(seed, num_graphs=6)
    pool = random_database(seed + 1000, num_graphs=4).graphs
    query = extract_query(database.graphs[1].skeleton, 3, rng=seed)
    mutated = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=seed,
    )
    mutated.add_graph(pool[0])
    mutated.remove_graph(2)
    mutated.update_graph(4, pool[1])
    before = mutated.query(
        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
    )
    before_top = mutated.query_top_k(
        query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
    )
    mutated.compact()
    mutated.compact()  # second compact: empty delta, no tombstones — identity
    after = mutated.query(
        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
    )
    after_top = mutated.query_top_k(
        query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
    )
    assert_result_parity(after, before, "threshold across compactions")
    assert_result_parity(after_top, before_top, "top-k across compactions")


def test_mixed_plan_batch_matches_dense_reference():
    """Threshold and top-k plans made on the catalog's planner, each run
    under its own root, equal the from-scratch dense planner answering the
    same queries one by one — and again after mutations and a compaction."""
    database = random_database(8301, 8)
    spare = random_database(8302, 2).graphs
    queries = random_workload(database, seed=8303)
    catalog = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=8301
    )
    # (query, k or None for a threshold plan, root)
    batch = [
        (queries[0], None, 21),
        (queries[1], 3, 22),
        (queries[2], None, 23),
        (queries[0], 2, 24),
        (queries[1], None, 21),
    ]
    outcomes = []
    for phase in ("before compact", "after compact"):
        if phase == "after compact":
            catalog.remove_graph(1)
            catalog.update_graph(5, spare[0])
            catalog.add_graph(spare[1])
            catalog.compact()
        planner = catalog.planner()
        plans = [
            planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            if k is None
            else planner.plan_top_k(query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            for query, k, _ in batch
        ]
        results = [planner.execute_plan(plan, root) for plan, (_, _, root) in zip(plans, batch)]
        outcomes.append((phase, rebuild_from_scratch(catalog), results))
    catalog.close()
    for phase, reference, results in outcomes:
        for position, ((query, k, root), actual) in enumerate(zip(batch, results)):
            context = f"{phase} plan {position}"
            if k is None:
                expected = reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                )
            else:
                expected = reference.execute_top_k(
                    query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                )
            assert_result_parity(actual, expected, context)


@pytest.mark.parametrize("seed", [8401, 8402])
def test_catalog_fuzz_with_queries_between_mutations(seed):
    """A query (threshold and top-k, k ∈ {1, 2, 4}) after every add,
    remove, update and compaction answers as the rebuild of that state."""
    database = random_database(seed, num_graphs=7)
    pool = random_database(seed + 1000, num_graphs=8).graphs
    query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
    catalog = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=seed
    )

    def assert_parity(context):
        reference = rebuild_from_scratch(catalog)
        assert_result_parity(
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            ),
            reference.execute(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            ),
            context,
        )
        for k in (1, 2, 4):
            actual_top = catalog.query_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
            expected_top = reference.execute_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
            assert answer_tuples(actual_top) == answer_tuples(expected_top), f"{context} k={k}"
        assert catalog.active_shm_segments() == [], context

    assert_parity(f"seed={seed} before any mutation")
    decider = random.Random(seed)
    spare = list(pool)
    for step, op in enumerate(["add", "remove", "update", "add", "update", "remove"]):
        live = live_ids(catalog)
        if op == "add":
            catalog.add_graph(spare.pop())
        elif op == "remove":
            catalog.remove_graph(decider.choice(live))
        else:
            catalog.update_graph(decider.choice(live), spare.pop())
        assert_parity(f"seed={seed} step {step}: {op}")
    catalog.compact()
    assert_parity(f"seed={seed} after compact")
    # the seeded op stream of the tests above, compacts included
    ops = apply_random_mutations(catalog, spare, seed, num_ops=6)
    assert_parity(f"seed={seed} ops={ops}")
    catalog.close()


def test_a_compaction_down_to_no_live_graph_and_back():
    """A catalog compacted down to one live graph, then to none, then grown
    back answers byte-identically to a rebuild — and, with nothing live,
    with no answer over an empty database."""
    seed = 8511
    database = random_database(seed, num_graphs=6)
    query = extract_query(database.graphs[2].skeleton, 3, rng=seed)
    catalog = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=seed
    )

    def ask():
        return catalog.query(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
        )

    def expected():
        return rebuild_from_scratch(catalog).execute(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
        )

    assert_result_parity(ask(), expected(), "six live graphs")
    for graph_id in range(1, 6):
        catalog.remove_graph(graph_id)
    catalog.compact()
    assert_result_parity(ask(), expected(), "one live graph")

    catalog.remove_graph(0)
    catalog.compact()
    empty = ask()
    assert empty.answers == [] and empty.statistics.database_size == 0

    for graph in database.graphs[:4]:
        catalog.add_graph(graph)
    catalog.compact()
    assert_result_parity(ask(), expected(), "four live graphs")
    catalog.close()
