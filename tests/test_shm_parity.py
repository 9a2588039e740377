"""Shared-memory shard-plane parity harness.

The contract under test: attaching shards through ``multiprocessing``
shared memory is *invisible* — answers, probabilities, ranks, and every
per-stage counter are byte-identical to the sequential in-process planner
for any shard count K, any worker count, and across catalog mutations with
mid-stream generation hot-swaps.  The assertions reuse the byte-parity
helpers from ``test_sharding_parity`` / ``test_catalog_parity`` so the shm
plane is held to exactly the same bar as the original fan-out.

Also locked in here: the O(1) descriptor-payload regression (descriptors
must not grow with shard bytes) and its O(delta) twin (what a mutation
republishes must not grow with the base), the cheap pool-resize path (the
published plane survives a pool-width change), and what a mutation or a
compaction may touch: the worker pool, and in each worker the graphs it has
deserialized, survive both; a mutation replaces only the touched shard's
delta segment, ``compact()`` republishes every segment under the live pool,
and each shard lives in exactly one worker throughout.
"""

from __future__ import annotations

import gc
import os
import pickle
import random

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

from repro.core import GraphCatalog, QueryPlanner, ShardPlane, sharding
from repro.datasets import extract_query
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.shm import resident_segment_names

from tests.conftest import WIDE_SUPPORT_DISTANCE, build_index

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

        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=3
        )
        expected = sequential.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=3
        )

        sharded = GraphCatalog.build(
            database.graphs,
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
                plane = sharded.planner().shard_plane
                assert plane is not None and not plane.closed
                # one base arena and one delta segment per shard
                assert len(plane.base_segment_names()) == num_shards
                assert len(plane.delta_segment_names()) == num_shards
                assert sorted(plane.segment_names()) == sorted(
                    plane.base_segment_names() + plane.delta_segment_names()
                )
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
        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=5
        )
        sharded = GraphCatalog.build(
            database.graphs,
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


    def test_wide_support_request_through_shm_pool(self, wide_support_corpus):
        """Pool workers pick the estimator per candidate exactly as the
        sequential engine does: the exact values and the sampled ones of one
        request come back byte-identical, threshold and top-k."""
        graphs, queries = wide_support_corpus
        build = dict(feature_config=FEATURE_CONFIG, bound_config=BoundConfig(num_samples=40), rng=3)
        sequential = GraphCatalog.build(graphs, **build)
        sharded = GraphCatalog.build(graphs, **build, num_shards=2, max_workers=2)
        try:
            for query in queries:
                expected = sequential.query(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                actual = sharded.query(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                assert 0 < actual.statistics.sampled < actual.statistics.verified
                assert answer_tuples(actual) == answer_tuples(expected)
                assert counter_dict(actual.statistics) == counter_dict(expected.statistics)
                top = sharded.query_top_k(
                    query, 3, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                assert 0 < top.statistics.sampled < top.statistics.verified
                assert answer_tuples(top) == answer_tuples(
                    sequential.query_top_k(
                        query, 3, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                    )
                )
            assert sharded.planner().shard_plane is not None  # the pool really ran
        finally:
            sharded.close()

    @pytest.mark.parametrize("max_workers", [0, 2])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_mixed_plan_batch_matches_dense_reference(self, num_shards, max_workers):
        """One ``execute_plans`` batch mixing threshold and top-k plans, each
        under its own root, equals the from-scratch dense planner answering
        the same queries one by one — and again after mutations and a
        compaction, which a pooled planner takes under its live pool."""
        database = random_database(8301, 8)
        spare = random_database(8302, 2).graphs
        queries = random_workload(database, seed=8303)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=8301,
            num_shards=num_shards,
            max_workers=max_workers,
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
        try:
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
                results = planner.execute_plans(plans, [root for _, _, root in batch])
                assert (catalog.active_shm_segments() != []) == (
                    num_shards > 1 and max_workers > 1
                )
                outcomes.append((phase, rebuild_from_scratch(catalog), results))
        finally:
            catalog.close()
        for phase, reference, results in outcomes:
            assert len(results) == len(batch)
            for position, ((query, k, root), actual) in enumerate(zip(batch, results)):
                context = f"K={num_shards} workers={max_workers} {phase} plan {position}"
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
                    # a shard verifies against its local floor, so the pruning
                    # and verification counters legitimately exceed the dense
                    # run's (test_topk_parity::test_merged_statistics_report_shard_work)
                    kept = ("database_size", "structural_candidates", "answers",
                            "relaxed_query_count")
                    got = {key: got[key] for key in kept}
                    want = {key: want[key] for key in kept}
                assert got == want, context


def pooled_catalog(database, seed: int) -> GraphCatalog:
    """Two shards behind a two-worker pool."""
    return GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=seed,
        num_shards=2,
        max_workers=2,
    )


def worker_pids(catalog) -> list[int]:
    """The pid of every slot's worker, in slot order."""
    return catalog.planner().map_slots(os.getpid)


def shard_of(catalog, external_id: int) -> int:
    """The id of the shard holding the live row of ``external_id``."""
    (shard_id,) = [
        shard.spec.shard_id
        for shard in catalog.planner().shards
        if external_id in shard.live_global_ids()
    ]
    return shard_id


def _probe_materialized_base_graphs() -> tuple[int, dict[int, int]]:
    """Runs in a pool worker: base graphs deserialized so far, per shard."""
    return os.getpid(), {
        shard_id: shard.graphs.base.materialized_count()
        for shard_id, shard in sharding._WORKER_SHARDS.items()
    }


def materialized_base_graphs(catalog) -> dict[int, dict[int, int]]:
    """pid -> shard id -> base graphs that worker holds deserialized."""
    return dict(catalog.planner().map_slots(_probe_materialized_base_graphs))


def _mark_held_graphs() -> int:
    """Runs in a pool worker: tag every graph object it holds deserialized
    (a tag no pickle carries); returns how many it tagged."""
    held = [
        graph
        for shard in sharding._WORKER_SHARDS.values()
        for part in (shard.graphs.base, shard.graphs.delta)
        for graph in part.by_digest().values()
    ]
    for graph in held:
        graph.__dict__["_held_before"] = True
    return len(held)


def _read_marks() -> dict[int, bool]:
    """Runs in a pool worker: live external id -> whether the graph object
    the worker answers with carries :func:`_mark_held_graphs`' tag.  Every
    live row is read, so a graph nobody carried over is deserialized afresh."""
    return {
        int(graph_id): "_held_before" in shard.graphs[row].__dict__
        for shard in sharding._WORKER_SHARDS.values()
        for row, graph_id in enumerate(shard.graph_ids)
        if shard.active_mask[row]
    }


def merged(parts: list[dict]) -> dict:
    return {key: value for part in parts for key, value in part.items()}


def _served_shards() -> tuple[int, list[int]]:
    """Runs in a pool worker: the shards it has materialized."""
    return os.getpid(), sorted(sharding._WORKER_SHARDS)


def _index_objects() -> tuple[int, set[int]]:
    """Runs in a pool worker: the ids of every index and planner object
    alive in it (a gc scan).  Those it inherited at fork keep their ids."""
    gc.collect()
    kinds = (ProbabilisticMatrixIndex, StructuralFeatureIndex, QueryPlanner)
    return os.getpid(), {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}


class TestWorkersOnlyVerify:
    """The parent filters and ranks; a worker holds graphs and ids."""

    def test_a_worker_builds_no_index_or_planner(self):
        seed = 8461
        database = random_database(seed, num_graphs=10)
        queries = random_workload(database, seed=seed + 1, num_queries=3)
        catalog = pooled_catalog(database, seed)
        try:
            planner = catalog.planner()
            inherited = dict(planner.map_slots(_index_objects))
            plans = [
                planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
                for query in queries
            ] + [planner.plan_top_k(query, 2, DISTANCE_THRESHOLD, SEARCH_CONFIG) for query in queries]
            results = planner.execute_plans(plans, list(range(len(plans))))
            assert sum(result.statistics.verified for result in results[: len(queries)])
            served = dict(planner.map_slots(_served_shards))
            assert any(served.values())  # the threshold survivors went to the workers
            for pid, ids in planner.map_slots(_index_objects):
                assert ids <= inherited[pid], "a worker built an index or a planner"
        finally:
            catalog.close()

    def test_a_batch_decided_in_the_parent_sends_no_frame(self, monkeypatch):
        """Top-k ranks in the parent, and a threshold query with no
        structural candidate leaves nothing to verify: no slot is sent a
        frame, and a fresh pool is not even forked."""
        seed = 8462
        database = random_database(seed, num_graphs=10)
        queries = random_workload(database, seed=seed + 1, num_queries=3)
        unmatched = LabeledGraph.from_edges({0: "none", 1: "such"}, [(0, 1, "label")])
        catalog = pooled_catalog(database, seed)
        frames = []
        original = sharding._Slot.submit

        def counting_submit(self, fn, *args):
            frames.append(fn)
            return original(self, fn, *args)

        monkeypatch.setattr(sharding._Slot, "submit", counting_submit)
        try:
            planner = catalog.planner()
            top_k = catalog.query_top_k_many(queries, 2, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=5)
            assert sum(result.statistics.verified for result in top_k)
            nothing = catalog.query(unmatched, PROBABILITY_THRESHOLD, 0, SEARCH_CONFIG, rng=5)
            assert nothing.statistics.structural_candidates == 0
            assert frames == [] and planner._slots == [] and planner.shard_plane is None
            catalog.query_many(queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            assert frames and set(frames) == {sharding._verify_slot}
        finally:
            catalog.close()


class TestGenerationHotSwap:
    """A mutation republishes one shard's delta; compact() republishes every
    segment under the live pool."""

    @pytest.mark.parametrize("seed", [8401, 8402])
    def test_catalog_fuzz_with_mid_stream_hot_swap(self, seed):
        database = random_database(seed, num_graphs=7)
        pool = random_database(seed + 1000, num_graphs=8).graphs

        query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
        catalog = pooled_catalog(database, seed)

        def assert_parity(context):
            reference = rebuild_from_scratch(catalog)
            actual = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
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

        try:
            # generation 1 goes live on the first pooled query
            assert_parity(f"seed={seed} before any mutation")
            plane = catalog.planner().shard_plane
            pids = worker_pids(catalog)
            bases = plane.base_segment_names()
            deltas = plane.delta_segment_names()
            generation_one = set(catalog.active_shm_segments())
            assert generation_one == set(bases) | set(deltas)
            assert len(bases) == len(deltas) == 2

            # add / remove / update keep the read path: same workers, same
            # base segments, and only a touched shard's delta is replaced
            decider = random.Random(seed)
            spare = list(pool)
            for step, op in enumerate(["add", "remove", "update", "add", "update", "remove"]):
                live = catalog.live_external_ids()
                if op == "add":
                    touched = {shard_of(catalog, catalog.add_graph(spare.pop()))}
                elif op == "remove":
                    victim = decider.choice(live)
                    touched = {shard_of(catalog, victim)}
                    catalog.remove_graph(victim)
                else:
                    target = decider.choice(live)
                    touched = {shard_of(catalog, target)}
                    catalog.update_graph(target, spare.pop())
                    touched.add(shard_of(catalog, target))
                context = f"seed={seed} step {step}: {op} touching shards {sorted(touched)}"
                # nothing is published inside the mutation
                assert plane.delta_segment_names() == deltas, context
                assert_parity(context)
                assert catalog.planner().shard_plane is plane, context
                assert worker_pids(catalog) == pids, context
                assert plane.base_segment_names() == bases, context
                republished = plane.delta_segment_names()
                for shard_id, (before, after) in enumerate(zip(deltas, republished)):
                    if shard_id in touched:
                        assert after != before, context
                        assert before not in resident_segment_names(), context
                    else:
                        assert after == before, context
                assert set(catalog.active_shm_segments()) == set(bases) | set(republished)
                assert set(bases) | set(republished) <= set(resident_segment_names())
                deltas = republished

            # compact() swaps the generation under the live pool: every name
            # of generation 1 — bases and deltas — is retired, generation 2
            # is already published, and the workers are the same processes
            generation_one = set(bases) | set(deltas)
            catalog.compact()
            assert plane.closed
            assert not (generation_one & set(resident_segment_names()))
            generation_two = set(catalog.active_shm_segments())
            assert len(generation_two) == 4 and not (generation_one & generation_two)
            assert generation_two <= set(resident_segment_names())
            assert catalog.planner().shard_plane is not plane
            assert worker_pids(catalog) == pids

            # generation 2 answers byte-identically, from the same segments
            assert_parity(f"seed={seed} after compact")
            assert set(catalog.active_shm_segments()) == generation_two
            assert worker_pids(catalog) == pids

            # the seeded op stream of the catalog parity suite, compacts
            # included, interleaved with pooled queries
            ops = apply_random_mutations(catalog, spare, seed, num_ops=6)
            assert_parity(f"seed={seed} ops={ops}")
            assert worker_pids(catalog) == pids
        finally:
            catalog.close()
        assert catalog.active_shm_segments() == []

    def test_burst_of_mutations_republishes_each_touched_shard_once(self, monkeypatch):
        """N mutations between two queries cost one delta publication per
        touched shard, made by the fan-out that needs it — update_graph
        (remove + install) does not publish twice.  The query comes from a
        graph no mutation touches, so every query has survivors to send."""
        seed = 8451
        database = random_database(seed, num_graphs=8)
        spare = random_database(seed + 1000, num_graphs=4).graphs
        query = extract_query(database.graphs[3].skeleton, 3, rng=seed)
        catalog = pooled_catalog(database, seed)
        published = []
        original = sharding.publish_delta

        def counting_publish_delta(shard):
            published.append(shard.spec.shard_id)
            return original(shard)

        def ask():
            result = catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=1
            )
            assert result.statistics.verified  # survivors: the query fans out

        try:
            ask()
            monkeypatch.setattr(sharding, "publish_delta", counting_publish_delta)
            catalog.update_graph(0, spare[0])  # both halves in shard 0
            catalog.update_graph(1, spare[1])
            catalog.remove_graph(2)
            assert published == []
            ask()
            assert published == [0]
            ask()
            assert published == [0]  # a read republishes nothing
            catalog.add_graph(spare[2])  # shard 0 is the smaller one
            catalog.add_graph(spare[3])  # now a tie: shard 0 again
            catalog.remove_graph(7)  # shard 1
            ask()
            assert published == [0, 0, 1]
        finally:
            catalog.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/maps")
    def test_worker_mappings_and_dev_shm_stay_bounded_over_many_mutations(self):
        """50 mixed mutations and six compactions, a query after each: a
        worker maps a constant number of segments — what it inherited from
        the parent at fork (the parent's own mappings of the first
        generation; only those can turn into deleted mappings) plus the
        current base arena of the one shard its slot serves — because a
        republished delta is copied out and detached at once, and a retired
        base is detached the moment the worker meets the next one (a view
        into it left alive would defer the unmap to process exit).
        /dev/shm holds exactly one base and one delta per shard throughout,
        and nothing after close()."""
        seed = 8471
        database = random_database(seed, num_graphs=8)
        spare = random_database(seed + 1000, num_graphs=6).graphs
        query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
        resident_before = set(resident_segment_names())
        catalog = pooled_catalog(database, seed)

        def mapped_segments(pid: int) -> list[str]:
            """One entry per tpsshm mapping: its name, or "(deleted)"."""
            with open(f"/proc/{pid}/maps") as maps:
                names = [line.split("/")[-1].strip() for line in maps if "tpsshm_" in line]
            return sorted("(deleted)" if name.endswith("(deleted)") else name for name in names)

        def ask():
            return catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
            )

        try:
            ask()
            pids = worker_pids(catalog)
            first = {pid: mapped_segments(pid) for pid in pids}
            compactions = 0
            for step in range(50):
                if step % 3 == 0:
                    catalog.add_graph(spare[step % len(spare)], external_id=1000)
                elif step % 3 == 1:  # a base id of either shard in turn
                    catalog.update_graph(step // 3 % 8, spare[step % len(spare)])
                else:
                    catalog.remove_graph(1000)
                if step % 8 == 7:
                    catalog.compact()
                    compactions += 1
                ask()
                assert worker_pids(catalog) == pids
                plane = catalog.planner().shard_plane
                bases = plane.base_segment_names()
                for slot, pid in enumerate(pids):
                    mapped = mapped_segments(pid)
                    # what it was forked with, and the base of its own shard
                    assert len(mapped) == len(first[pid]), (step, pid, mapped)
                    assert bases[slot] in mapped, (step, pid, mapped)
                    assert set(mapped) <= {*first[pid], *bases, "(deleted)"}, (step, pid, mapped)
                    assert mapped.count("(deleted)") < len(first[pid]), (step, pid, mapped)
                published = set(resident_segment_names()) - resident_before
                assert published == set(plane.segment_names())
                assert published == set(bases) | set(plane.delta_segment_names())
                assert len(published) == 2 * len(bases)
            assert compactions == 6
            final = ask()
            assert_result_parity(
                final,
                rebuild_from_scratch(catalog).execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
                ),
                "after 50 mutations and 6 compactions",
            )
        finally:
            catalog.close()
        assert set(resident_segment_names()) == resident_before

    def test_workers_keep_their_deserialized_base_graphs_across_a_mutation(self):
        """The base mapping and the LazyGraphList over it outlive a mutation:
        no worker's count of deserialized base graphs falls, for any shard."""
        seed = 8461
        database = random_database(seed, num_graphs=8)
        spare = random_database(seed + 1000, num_graphs=2).graphs
        queries = [extract_query(database.graphs[i].skeleton, 3, rng=seed + i) for i in (0, 5)]
        catalog = pooled_catalog(database, seed)

        def warm():
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=3
            )

        try:
            warm()
            before = materialized_base_graphs(catalog)
            assert any(count for counts in before.values() for count in counts.values())
            catalog.add_graph(spare[0])
            catalog.remove_graph(1)
            catalog.update_graph(6, spare[1])
            warm()
            after = materialized_base_graphs(catalog)
            assert after.keys() == before.keys()  # the same worker processes
            for pid, counts in before.items():
                for shard_id, count in counts.items():
                    assert after[pid][shard_id] >= count, (pid, shard_id)
        finally:
            catalog.close()

    def test_a_cold_worker_deserializes_the_candidates_not_the_shard(self):
        """The parent filters; after the first query on a fresh pool each
        (worker, shard) holds deserialized exactly the rows that shard's
        pipeline handed on to verification, and a shard with none of them
        was sent no frame, so no worker attached it."""
        seed = 8471
        database = random_database(seed, num_graphs=16)
        query = extract_query(database.graphs[3].skeleton, 4, rng=seed)
        catalog = pooled_catalog(database, seed)
        try:
            planner = catalog.planner()
            plan = planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            opened = {}
            for shard in planner.shards:
                part = shard.make_planner().execute_plan(plan, rng=seed)
                opened[shard.spec.shard_id] = part.statistics.verified
            assert 0 < sum(opened.values()) < len(database.graphs) // 2
            catalog.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed)
            held = materialized_base_graphs(catalog)
            assert {shard_id for counts in held.values() for shard_id in counts} == {
                shard_id for shard_id, count in opened.items() if count
            }
            for pid, counts in held.items():
                for shard_id, count in counts.items():
                    assert count == opened[shard_id], (pid, shard_id)
        finally:
            catalog.close()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_each_shard_is_materialized_in_exactly_one_worker(self, num_shards):
        """Shard i is served by slot i mod W only, before and after a
        compaction: no shard is attached — or its graphs deserialized — in a
        second process, however many queries pass."""
        seed = 8481
        database = random_database(seed, num_graphs=12)
        queries = random_workload(database, seed=seed + 1, num_queries=3)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=40),
            rng=seed,
            num_shards=num_shards,
            max_workers=2,
        )
        expected = [list(range(slot, num_shards, 2)) for slot in range(2)]
        try:
            for _ in range(2):
                for query in queries:
                    catalog.query(
                        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=3
                    )
                served = catalog.planner().map_slots(_served_shards)
                assert [shards for _, shards in served] == expected
                catalog.compact()
        finally:
            catalog.close()

    def test_a_graph_that_survives_compaction_is_the_same_object_in_its_worker(self):
        """Across compact() a worker keeps every graph it had deserialized
        whose pickle the new generation stores again — the object itself,
        caches included — and reads an updated graph afresh.  One query
        comes from each shard, so each worker has survivors to verify; the
        in-process reference runs first, as its memos ride in the pickles."""
        seed = 8491
        database = random_database(seed, num_graphs=8)
        replacement = random_database(seed + 1000, num_graphs=1).graphs[0]
        queries = [extract_query(database.graphs[i].skeleton, 3, rng=seed) for i in (0, 4)]
        catalog = pooled_catalog(database, seed)

        def ask(context):
            reference = rebuild_from_scratch(catalog)
            expected = [
                reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
                )
                for query in queries
            ]
            for query, want in zip(queries, expected):
                assert_result_parity(
                    catalog.query(
                        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
                    ),
                    want,
                    context,
                )

        try:
            ask("generation one")
            planner = catalog.planner()
            assert sum(planner.map_slots(_mark_held_graphs)) > 0
            # the query's candidates were tagged; every other live row is read now
            held = merged(planner.map_slots(_read_marks))
            assert any(held.values()) and not all(held.values())
            assert sorted(held) == catalog.live_external_ids()
            updated = next(graph_id for graph_id, tagged in held.items() if tagged)
            catalog.update_graph(updated, replacement)
            catalog.compact()
            ask("generation two")
            carried = merged(planner.map_slots(_read_marks))
            assert carried.keys() == held.keys()
            assert carried.pop(updated) is False  # a new pickle: read afresh
            assert all(carried[graph_id] for graph_id in carried if held[graph_id])
        finally:
            catalog.close()

    def test_a_compaction_that_changes_the_shard_count_takes_the_full_swap(self):
        """A pooled two-shard catalog compacted down to one live graph, then
        to none, drops its sharded planner (one store is one planner) and
        answers byte-identically to a rebuild — or, with nothing live, to the
        in-process twin that took the same steps; grown back and compacted to
        two shards again, it pools again."""
        seed = 8511
        database = random_database(seed, num_graphs=6)
        query = extract_query(database.graphs[2].skeleton, 3, rng=seed)
        pooled, twin = (
            GraphCatalog.build(
                database.graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(num_samples=40),
                rng=seed,
                num_shards=2,
                max_workers=workers,
            )
            for workers in (2, 0)
        )

        def ask(catalog):
            return catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
            )

        def expected():
            return rebuild_from_scratch(pooled).execute(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
            )

        try:
            assert_result_parity(ask(pooled), expected(), "two shards")
            generation_one = set(pooled.active_shm_segments())
            for catalog in (pooled, twin):
                for graph_id in range(1, 6):
                    catalog.remove_graph(graph_id)
                catalog.compact()
            assert pooled.num_shards == 1 and pooled.active_shm_segments() == []
            assert not generation_one & set(resident_segment_names())
            assert_result_parity(ask(pooled), expected(), "one live graph")

            for catalog in (pooled, twin):
                catalog.remove_graph(0)
                catalog.compact()
            assert_result_parity(ask(pooled), ask(twin), "no live graph")

            for catalog in (pooled, twin):
                for graph in database.graphs[:4]:
                    catalog.add_graph(graph)
                catalog.compact()
            assert pooled.num_shards == 2
            assert_result_parity(ask(pooled), expected(), "two shards again")
            assert len(pooled.active_shm_segments()) == 4
        finally:
            pooled.close()
            twin.close()

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
    """The O(1) descriptor contract and the cheap pool-resize path."""

    def test_initializer_payload_stays_o1_in_shard_bytes(self):
        """Descriptor payload must not grow with the database; pickling the
        shards themselves does — that asymmetry IS the feature."""
        payloads = {}
        for label, num_graphs in (("small", 6), ("large", 24)):
            catalog = GraphCatalog.build(
                random_database(8601, num_graphs).graphs,
                feature_config=FEATURE_CONFIG,
                bound_config=BoundConfig(method="exact"),
                rng=11,
                num_shards=2,
                max_workers=0,
            )
            plane = ShardPlane(catalog.planner().shards)
            try:
                descriptor_bytes = plane.payload_bytes()
                shard_bytes = plane.shard_bytes()
                pickled_bytes = len(pickle.dumps(catalog.planner().shards))
            finally:
                plane.close()
            payloads[label] = (descriptor_bytes, shard_bytes, pickled_bytes)

        small, large = payloads["small"], payloads["large"]
        # 4x the graphs: shard bytes grow, descriptors stay ~flat
        assert large[1] > small[1] * 2
        assert large[0] < small[0] * 1.5
        # and the descriptors are a small fraction of shipping the shards
        assert large[0] < large[2] / 10

    def test_republished_bytes_stay_o_delta_in_base_size(self):
        """The O(delta) twin of the test above: what a mutation republishes
        follows the delta and the tombstones, never the base.  The same
        arrival and the same removal against the same features cost the same
        bytes — to the byte — behind 8 base graphs and behind 64."""
        database = random_database(8651, 64)
        arrival = random_database(8652, 1).graphs[0]
        built = build_index(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(num_samples=20),
            rng=11,
        )
        sizes = {}
        for num_graphs in (8, 64):
            catalog = GraphCatalog.from_index(
                database.graphs[:num_graphs],
                built.pmi.subset(range(num_graphs)),
                built.structural_index.subset(range(num_graphs)),
                num_shards=2,
                max_workers=0,
            )
            planner = catalog.planner()
            plane = ShardPlane(planner.shards)
            try:
                base_bytes = plane.shard_bytes() - plane.delta_bytes()
                empty_delta_bytes = plane.delta_bytes()
                catalog.add_graph(arrival, external_id=1000)  # one delta row in shard 0
                catalog.remove_graph(0)  # one tombstone on a base row of shard 0
                plane.republish_delta(planner.shards[0])
                sizes[num_graphs] = (base_bytes, empty_delta_bytes, plane.delta_bytes())
            finally:
                plane.close()
                catalog.close()
        small, large = sizes[8], sizes[64]
        assert large[0] > small[0] * 4  # 8x the graphs: the base arenas grow
        assert large[1] == small[1]  # an empty delta is the same few bytes
        assert large[2] == small[2]  # and so is the mutated one
        assert large[2] > large[1]  # which really carries the new row

    def test_resize_reuses_published_plane(self):
        database = random_database(8702, 8)
        workload = random_workload(database, seed=8703, num_queries=1)
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=13,
            num_shards=4,
            max_workers=2,
        )
        planner = catalog.planner()
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
