"""Shared-memory shard-plane parity harness.

The contract under test: attaching shards through ``multiprocessing``
shared memory is *invisible* — answers, probabilities, ranks, and every
per-stage counter are byte-identical to the sequential in-process planner
for any shard count K, any worker count, and across catalog mutations with
mid-stream generation hot-swaps.  The assertions reuse the byte-parity
helpers from ``test_sharding_parity`` / ``test_catalog_parity`` so the shm
plane is held to exactly the same bar as the original fan-out.

Also locked in here: the O(1) initializer-payload regression (descriptors
must not grow with shard bytes), the cheap executor-resize path (the
published plane survives a pool-width change), and generation retirement
(mutations unlink the old segments; the next query publishes a disjoint
set of names).
"""

from __future__ import annotations

import gc
import pickle

import pytest

from test_catalog_parity import (
    apply_random_mutations,
    assert_result_parity,
    rebuild_from_scratch,
)
from test_sharding_parity import (
    FEATURE_CONFIG,
    SEARCH_CONFIG,
    answer_tuples,
    counter_dict,
    random_database,
    random_workload,
)

from repro.core import GraphCatalog, ProbabilisticGraphDatabase, ShardPlane
from repro.pmi import BoundConfig
from repro.utils.shm import resident_segment_names

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave the system's segment set exactly as it found it."""
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


class TestPoolShmParity:
    """shm-attached pool answers == sequential answers, byte for byte."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_shm_pool_matches_sequential(self, num_shards):
        database = random_database(8101, 8)
        workload = random_workload(database, seed=8103)

        sequential = ProbabilisticGraphDatabase(database.graphs)
        sequential.build_index(
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=3
        )
        expected = sequential.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=3
        )

        sharded = ProbabilisticGraphDatabase(database.graphs)
        sharded.build_index(
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=3,
            num_shards=num_shards,
            max_workers=2,
        )
        try:
            actual = sharded.query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=3
            )
            if num_shards > 1:
                # the pool really ran on attached segments
                plane = sharded.planner.shard_plane
                assert plane is not None and not plane.closed
                assert len(plane.segment_names()) == num_shards
        finally:
            sharded.close()
        for expected_result, actual_result in zip(expected, actual):
            assert answer_tuples(expected_result) == answer_tuples(actual_result)
            assert counter_dict(expected_result.statistics) == counter_dict(
                actual_result.statistics
            )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_top_k_parity_through_shm_pool(self, k):
        database = random_database(8202, 7)
        query = random_workload(database, seed=8205, num_queries=1)[0]
        sequential = ProbabilisticGraphDatabase(database.graphs)
        sequential.build_index(
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=5
        )
        sharded = ProbabilisticGraphDatabase(database.graphs)
        sharded.build_index(
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=5,
            num_shards=2,
            max_workers=2,
        )
        try:
            expected = sequential.query_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=17
            )
            actual = sharded.query_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=17
            )
        finally:
            sharded.close()
        assert answer_tuples(actual) == answer_tuples(expected)


    @pytest.mark.parametrize("max_workers", [0, 2])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_mixed_plan_batch_matches_dense_reference(self, num_shards, max_workers):
        """One ``execute_plans`` batch mixing threshold and top-k plans, each
        under its own root, equals the from-scratch dense planner answering
        the same queries one by one."""
        database = random_database(8301, 8)
        queries = random_workload(database, seed=8303)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=8301,
            num_shards=num_shards,
            max_workers=max_workers,
        )
        reference = rebuild_from_scratch(catalog)
        # (query, k or None for a threshold plan, root)
        batch = [
            (queries[0], None, 21),
            (queries[1], 3, 22),
            (queries[2], None, 23),
            (queries[0], 2, 24),
            (queries[1], None, 21),
        ]
        try:
            planner = catalog.planner()
            plans = [
                planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
                if k is None
                else planner.plan_top_k(query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG)
                for query, k, _ in batch
            ]
            results = planner.execute_plans(plans, [root for _, _, root in batch])
            assert (catalog.active_shm_segments() != []) == (
                num_shards > 1 and max_workers > 1
            )
        finally:
            catalog.close()
        assert len(results) == len(batch)
        for position, ((query, k, root), actual) in enumerate(zip(batch, results)):
            context = f"K={num_shards} workers={max_workers} plan {position}"
            if k is None:
                expected = reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                )
                assert_result_parity(actual, expected, context)
                continue
            expected = reference.execute_top_k(
                query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
            )
            assert answer_tuples(actual) == answer_tuples(expected), context
            got, want = counter_dict(actual.statistics), counter_dict(expected.statistics)
            if num_shards > 1:
                # a shard verifies against its local floor, so the pruning and
                # verification counters legitimately exceed the dense run's
                # (test_topk_parity::test_merged_statistics_report_shard_work)
                kept = ("database_size", "structural_candidates", "answers",
                        "relaxed_query_count")
                got = {key: got[key] for key in kept}
                want = {key: want[key] for key in kept}
            assert got == want, context


class TestGenerationHotSwap:
    """Catalog mutations retire the old generation and republish a new one."""

    @pytest.mark.parametrize("seed", [8401, 8402])
    def test_catalog_fuzz_with_mid_stream_hot_swap(self, seed):
        database = random_database(seed, num_graphs=7)
        pool = random_database(seed + 1000, num_graphs=8).graphs
        from repro.datasets import extract_query

        query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=seed,
            num_shards=2,
            max_workers=2,
        )
        try:
            # generation 1 goes live on the first pooled query
            catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            generation_one = set(catalog.active_shm_segments())
            assert len(generation_one) == 2

            # mutations (including compacts) invalidate the cached planner,
            # which unlinks generation 1 — the hot-swap's retire step
            ops = apply_random_mutations(catalog, pool, seed, num_ops=6)
            assert catalog.active_shm_segments() == []
            assert not (generation_one & set(resident_segment_names()))

            # generation 2: fresh disjoint segments, byte-identical answers
            context = f"seed={seed} ops={ops}"
            reference = rebuild_from_scratch(catalog)
            actual = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            generation_two = set(catalog.active_shm_segments())
            assert generation_two and not (generation_one & generation_two)
            expected = reference.execute(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            assert_result_parity(actual, expected, context)
            for k in (1, 2, 4):
                actual_top = catalog.query_top_k(
                    query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
                )
                expected_top = reference.execute_top_k(
                    query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
                )
                assert answer_tuples(actual_top) == answer_tuples(expected_top), (
                    f"{context} k={k}"
                )
        finally:
            catalog.close()
        assert catalog.active_shm_segments() == []

    def test_compact_hot_swap_is_invisible(self):
        seed = 8501
        database = random_database(seed, num_graphs=6)
        from repro.datasets import extract_query

        query = extract_query(database.graphs[1].skeleton, 3, rng=seed)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=seed,
            num_shards=2,
            max_workers=2,
        )
        try:
            before = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            generation_one = set(catalog.active_shm_segments())
            catalog.compact()
            after = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            generation_two = set(catalog.active_shm_segments())
        finally:
            catalog.close()
        assert_result_parity(after, before, "threshold across compact hot-swap")
        assert generation_one and generation_two
        assert not generation_one & generation_two


class TestExecutorResizeAndPayload:
    """The O(1) initializer contract and the cheap pool-resize path."""

    def test_initializer_payload_stays_o1_in_shard_bytes(self):
        """Descriptor payload must not grow with the database; pickling the
        shards themselves does — that asymmetry IS the feature."""
        payloads = {}
        for label, num_graphs in (("small", 6), ("large", 24)):
            engine = ProbabilisticGraphDatabase(random_database(8601, num_graphs).graphs)
            engine.build_index(
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(method="exact"),
                rng=11,
                num_shards=2,
                max_workers=0,
            )
            plane = ShardPlane(engine.planner.shards)
            try:
                descriptor_bytes = plane.payload_bytes()
                shard_bytes = plane.shard_bytes()
                pickled_bytes = len(pickle.dumps(engine.planner.shards))
            finally:
                plane.close()
            payloads[label] = (descriptor_bytes, shard_bytes, pickled_bytes)

        small, large = payloads["small"], payloads["large"]
        # 4x the graphs: shard bytes grow, descriptors stay ~flat
        assert large[1] > small[1] * 2
        assert large[0] < small[0] * 1.5
        # and the descriptors are a small fraction of shipping the shards
        assert large[0] < large[2] / 10

    def test_resize_reuses_published_plane(self):
        database = random_database(8702, 8)
        workload = random_workload(database, seed=8703, num_queries=1)
        engine = ProbabilisticGraphDatabase(database.graphs)
        engine.build_index(
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=13,
            num_shards=4,
            max_workers=2,
        )
        planner = engine.planner
        plans = [
            planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            for query in workload
        ]
        roots = [13] * len(plans)
        try:
            first = planner.execute_plans(plans, roots)
            plane = planner.shard_plane
            names = set(plane.segment_names())
            # widen the pool: only the executor is recycled — the same plane
            # object (and the same segments) serves the new workers
            planner.max_workers = 4
            second = planner.execute_plans(plans, roots)
            assert planner.shard_plane is plane
            assert set(plane.segment_names()) == names
            assert not plane.closed
        finally:
            planner.close()
        assert planner.shard_plane is None
        for before, after in zip(first, second):
            assert answer_tuples(before) == answer_tuples(after)
            assert counter_dict(before.statistics) == counter_dict(after.statistics)
