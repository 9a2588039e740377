"""Pool parity harness: workers that hold only the graphs they verify.

The contract under test: dealing threshold survivors to pool workers is
*invisible* — answers, probabilities, ranks, and every per-stage counter are
byte-identical to the sequential in-process planner for any worker count,
and across catalog mutations and compactions under a live pool.  The
assertions reuse the byte-parity helpers from ``test_sharding_parity`` /
``test_catalog_parity`` so the pool is held to exactly the same bar as the
in-process planner.

Also locked in here: how survivors are dealt — a survivor whose graph a slot
holds goes to that slot, the rest as one block to the slot holding the
fewest graphs — and so what a worker holds: a ``digest → graph`` store of
exactly the survivors its slot was sent, each graph in one worker only, the
same objects across a mutation and a compaction, bounded over many of both;
and what a frame ships: each graph once, nothing on a repeated request, and
after a mutation only the updated graph, once it survives.  Nothing is ever
published to ``/dev/shm``.
"""

from __future__ import annotations

import gc
import hashlib
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

from repro.core import GraphCatalog, QueryPlanner, sharding
from repro.datasets import extract_query
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex

from tests.conftest import WIDE_SUPPORT_DISTANCE, resident_segment_names

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
# every test here drives a real two-slot pool, on a one-CPU host too
pytestmark = pytest.mark.usefixtures("two_usable_cpus")
# the graphs the dealing test extracts its queries from, in query order
QUERY_SOURCES = (1, 3, 9)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave the system's segment set exactly as it found it."""
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


class TestPoolParity:
    """Pool answers == sequential answers, byte for byte."""

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_pool_matches_sequential(self, max_workers):
        database = random_database(8101, 8)
        workload = random_workload(database, seed=8103)

        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=3
        )
        expected = sequential.query_many(
            workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=3
        )

        pooled = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=3,
            num_shards=2,
            max_workers=max_workers,
        )
        try:
            actual = pooled.query_many(
                workload, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=3
            )
            # the pool really ran: graphs were shipped
            graph_bytes = [slot.graph_bytes for slot in pooled.planner()._slots]
            assert bool(sum(graph_bytes)) == (max_workers > 1)
        finally:
            pooled.close()
        for expected_result, actual_result in zip(expected, actual):
            assert answer_tuples(expected_result) == answer_tuples(actual_result)
            assert counter_dict(expected_result.statistics) == counter_dict(
                actual_result.statistics
            )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_top_k_parity_through_the_pool(self, k):
        database = random_database(8202, 7)
        query = random_workload(database, seed=8205, num_queries=1)[0]
        sequential = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG, bound_config=BoundConfig(method="exact"), rng=5
        )
        pooled = GraphCatalog.build(
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
            actual = pooled.query_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=17
            )
        finally:
            pooled.close()
        assert answer_tuples(actual) == answer_tuples(expected)
        assert counter_dict(actual.statistics) == counter_dict(expected.statistics)

    def test_wide_support_request_through_the_pool(self, wide_support_corpus):
        """Pool workers pick the estimator per candidate exactly as the
        sequential engine does: the exact values and the sampled ones of one
        request come back byte-identical, threshold and top-k."""
        graphs, queries = wide_support_corpus
        build = dict(feature_config=FEATURE_CONFIG, bound_config=BoundConfig(num_samples=40), rng=3)
        sequential = GraphCatalog.build(graphs, **build)
        pooled = GraphCatalog.build(graphs, **build, num_shards=2, max_workers=2)
        try:
            for query in queries:
                expected = sequential.query(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                actual = pooled.query(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                assert 0 < actual.statistics.sampled < actual.statistics.verified
                assert answer_tuples(actual) == answer_tuples(expected)
                assert counter_dict(actual.statistics) == counter_dict(expected.statistics)
                top = pooled.query_top_k(
                    query, 3, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                )
                assert 0 < top.statistics.sampled < top.statistics.verified
                assert answer_tuples(top) == answer_tuples(
                    sequential.query_top_k(
                        query, 3, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=3
                    )
                )
            assert pooled.planner()._slots  # the pool really ran
        finally:
            pooled.close()

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_mixed_plan_batch_matches_dense_reference(self, max_workers):
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
            num_shards=2,
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
                assert bool(planner._slots) == (max_workers > 1)
                outcomes.append((phase, rebuild_from_scratch(catalog), results))
        finally:
            catalog.close()
        for phase, reference, results in outcomes:
            assert len(results) == len(batch)
            for position, ((query, k, root), actual) in enumerate(zip(batch, results)):
                context = f"workers={max_workers} {phase} plan {position}"
                if k is None:
                    expected = reference.execute(
                        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                    )
                else:
                    expected = reference.execute_top_k(
                        query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                    )
                assert_result_parity(actual, expected, context)


def pooled_catalog(database, seed: int) -> GraphCatalog:
    """A two-slot pool (``num_shards=2`` caps ``max_workers=2`` at two)."""
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


def digest_of(graph) -> bytes:
    """What a frame names ``graph`` by: the 16-byte blake2b of its pickle."""
    payload = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(payload, digest_size=16).digest()


def survivor_digests(catalog, query, root) -> set[bytes]:
    """The digests of the graphs a threshold query under ``root`` leaves to
    verify, filtered in this process the way the planner filters before it
    deals anything."""
    planner = catalog.planner().query_planner
    plan = planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
    part = planner.filter_plan(plan, root)
    return {digest_of(planner.graphs[row]) for row in part.rows}


def _stored_digests() -> tuple[int, set[bytes]]:
    """Runs in a pool worker: the digests of every graph it holds."""
    return os.getpid(), set(sharding._WORKER_GRAPHS)


def stored_digests(catalog) -> list[set[bytes]]:
    """Per slot, in slot order, the digests its worker holds."""
    return [digests for _, digests in catalog.planner().map_slots(_stored_digests)]


def _mark_held_graphs() -> int:
    """Runs in a pool worker: tag every graph object it holds (a tag no
    pickle carries); returns how many it tagged."""
    for graph in sharding._WORKER_GRAPHS.values():
        graph.__dict__["_held_before"] = True
    return len(sharding._WORKER_GRAPHS)


def _read_marks() -> dict[bytes, bool]:
    """Runs in a pool worker: digest -> whether the graph object it holds
    under that digest carries :func:`_mark_held_graphs`' tag."""
    return {
        digest: "_held_before" in graph.__dict__
        for digest, graph in sharding._WORKER_GRAPHS.items()
    }


def _index_objects() -> tuple[int, set[int]]:
    """Runs in a pool worker: the ids of every index and planner object
    alive in it (a gc scan).  Those it inherited at fork keep their ids."""
    gc.collect()
    kinds = (ProbabilisticMatrixIndex, StructuralFeatureIndex, QueryPlanner)
    return os.getpid(), {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}


def count_shipped(monkeypatch) -> list[list[bytes]]:
    """Patch the slots so every verify frame's shipped digests are recorded,
    one list per frame, in the order the frames are sent."""
    shipped: list[list[bytes]] = []
    original = sharding._Slot.submit

    def recording_submit(self, fn, *args):
        if fn is sharding._verify_slot:
            shipped.append(list(args[1]))
        return original(self, fn, *args)

    monkeypatch.setattr(sharding._Slot, "submit", recording_submit)
    return shipped


def record_dealt(monkeypatch, slots) -> list[set[bytes]]:
    """Patch the slots so the digests every verify frame names are recorded
    per slot, in slot order."""
    dealt: list[set[bytes]] = [set() for _ in slots]
    original = sharding._Slot.submit

    def recording_submit(self, fn, *args):
        if fn is sharding._verify_slot:
            dealt[slots.index(self)].update(d for _, _, digests in args[2] for d in digests)
        return original(self, fn, *args)

    monkeypatch.setattr(sharding._Slot, "submit", recording_submit)
    return dealt


def deal(stores: list[set[bytes]], plans: list[set[bytes]]) -> list[set[bytes]]:
    """The dealing rule, written out: per plan, a survivor whose digest a
    slot holds goes to that slot, and the rest go to the slot that holds the
    fewest graphs, lowest index on ties.  ``stores`` are the digests each
    slot's worker holds before; returns them after."""
    stores = [set(store) for store in stores]
    for digests in plans:
        fewest = min(range(len(stores)), key=lambda slot: len(stores[slot]))
        owners = {
            digest: next((s for s, store in enumerate(stores) if digest in store), fewest)
            for digest in digests
        }
        for digest, owner in owners.items():
            stores[owner].add(digest)
    return stores


class TestWorkersOnlyVerify:
    """The parent filters and ranks; a worker holds the graphs it verifies."""

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
            assert any(stored_digests(catalog))  # the threshold survivors went to the workers
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
            assert frames == [] and planner._slots == []
            catalog.query_many(queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            assert frames and set(frames) == {sharding._verify_slot}
        finally:
            catalog.close()

    def test_a_repeated_request_list_ships_no_graph_bytes(self, monkeypatch):
        """The first pass of a request list ships each slot the pickle of
        every distinct graph dealt to it, once; the second pass of the same
        list ships nothing."""
        seed = 8463
        database = random_database(seed, num_graphs=12)
        queries = random_workload(database, seed=seed + 1, num_queries=4)
        catalog = pooled_catalog(database, seed)
        shipped = count_shipped(monkeypatch)
        sizes = {
            digest_of(graph): len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
            for graph in database.graphs
        }
        try:
            planner = catalog.planner()
            expected = deal(
                [set(), set()],
                [survivor_digests(catalog, query, root) for root, query in enumerate(queries)],
            )
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG,
                rngs=list(range(len(queries))),
            )
            first = [slot.graph_bytes for slot in planner._slots]
            assert first == [sum(sizes[digest] for digest in digests) for digests in expected]
            assert all(first)
            every = [digest for frame in shipped for digest in frame]
            assert len(every) == len(set(every)) == sum(map(len, expected))
            assert stored_digests(catalog) == expected

            shipped.clear()
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG,
                rngs=list(range(len(queries))),
            )
            assert shipped and not any(shipped)  # frames went out, graphs did not
            assert [slot.graph_bytes for slot in planner._slots] == first
        finally:
            catalog.close()


class TestGenerationHotSwap:
    """Mutations and compactions under a live pool: a swap of views, never
    a republication."""

    @pytest.mark.parametrize("seed", [8401, 8402])
    def test_catalog_fuzz_with_mid_stream_hot_swap(self, seed):
        database = random_database(seed, num_graphs=7)
        pool = random_database(seed + 1000, num_graphs=8).graphs

        query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
        catalog = pooled_catalog(database, seed)
        resident_before = resident_segment_names()

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
            # the slot's record of its worker is the worker's store
            records = [set(slot.held) for slot in catalog.planner()._slots]
            assert stored_digests(catalog) == records, context
            assert resident_segment_names() == resident_before, context
            assert catalog.active_shm_segments() == [], context

        try:
            assert_parity(f"seed={seed} before any mutation")
            pids = worker_pids(catalog)

            # add / remove / update keep the read path: the same workers
            decider = random.Random(seed)
            spare = list(pool)
            for step, op in enumerate(["add", "remove", "update", "add", "update", "remove"]):
                live = catalog.live_external_ids()
                if op == "add":
                    catalog.add_graph(spare.pop())
                elif op == "remove":
                    catalog.remove_graph(decider.choice(live))
                else:
                    catalog.update_graph(decider.choice(live), spare.pop())
                context = f"seed={seed} step {step}: {op}"
                assert_parity(context)
                assert worker_pids(catalog) == pids, context

            # compact() swaps the generation under the live pool
            catalog.compact()
            assert worker_pids(catalog) == pids
            assert_parity(f"seed={seed} after compact")
            assert worker_pids(catalog) == pids

            # the seeded op stream of the catalog parity suite, compacts
            # included, interleaved with pooled queries
            ops = apply_random_mutations(catalog, spare, seed, num_ops=6)
            assert_parity(f"seed={seed} ops={ops}")
            assert worker_pids(catalog) == pids
        finally:
            catalog.close()
        assert catalog.active_shm_segments() == []

    def test_mutations_ship_only_updated_graphs_that_survive(self, monkeypatch):
        """Mutations send nothing.  The next frames ship only an updated
        graph, and only once it survives to a slot: a query it does not
        survive ships no graph, the first one it survives ships it alone, and
        a repeat ships nothing.  The first query comes from a graph no
        mutation touches, so every query has survivors to send."""
        seed = 8451
        database = random_database(seed, num_graphs=8)
        spare = random_database(seed + 1000, num_graphs=4).graphs
        query = extract_query(database.graphs[3].skeleton, 3, rng=seed)
        catalog = pooled_catalog(database, seed)
        shipped = count_shipped(monkeypatch)

        def ask(target):
            shipped.clear()
            result = catalog.query(
                target, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=1
            )
            assert result.statistics.verified  # survivors: the query fans out
            return {digest for frame in shipped for digest in frame}

        try:
            before = survivor_digests(catalog, query, 1)
            assert ask(query) == before
            shipped.clear()
            catalog.update_graph(0, spare[0])
            catalog.update_graph(1, spare[1])
            catalog.remove_graph(2)
            assert shipped == []  # no frame
            after = survivor_digests(catalog, query, 1)
            updated = {digest_of(spare[0]), digest_of(spare[1])}
            new = after - before
            assert new <= updated
            assert ask(query) == new
            assert ask(query) == set()

            # a query the first replacement survives ships it, once
            follow = extract_query(spare[0].skeleton, 3, rng=seed)
            survivors = survivor_digests(catalog, follow, 1)
            assert digest_of(spare[0]) in survivors
            assert ask(follow) == survivors - after
            assert ask(follow) == set()
        finally:
            catalog.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/maps")
    def test_worker_mappings_and_dev_shm_stay_bounded_over_many_mutations(self):
        """50 mixed mutations and six compactions, a query after each: the
        same workers throughout, none of them maps a shared-memory segment,
        /dev/shm never changes, and each worker's store is its slot's record
        — every graph in it one the parent still holds, so it can never
        outgrow the graphs this test created."""
        seed = 8471
        database = random_database(seed, num_graphs=8)
        spare = random_database(seed + 1000, num_graphs=6).graphs
        query = extract_query(database.graphs[0].skeleton, 3, rng=seed)
        resident_before = set(resident_segment_names())
        catalog = pooled_catalog(database, seed)
        known = {digest_of(graph) for graph in [*database.graphs, *spare]}

        def mapped_segments(pid: int) -> list[str]:
            with open(f"/proc/{pid}/maps") as maps:
                return [line.split()[-1] for line in maps if "tpsshm_" in line]

        def ask():
            return catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed
            )

        try:
            ask()
            pids = worker_pids(catalog)
            compactions = 0
            for step in range(50):
                if step % 3 == 0:
                    catalog.add_graph(spare[step % len(spare)], external_id=1000)
                elif step % 3 == 1:  # each base id in turn
                    catalog.update_graph(step // 3 % 8, spare[step % len(spare)])
                else:
                    catalog.remove_graph(1000)
                if step % 8 == 7:
                    catalog.compact()
                    compactions += 1
                ask()
                assert worker_pids(catalog) == pids
                stores = stored_digests(catalog)
                assert stores == [set(slot.held) for slot in catalog.planner()._slots], step
                for pid, store in zip(pids, stores):
                    assert mapped_segments(pid) == [], (step, pid)
                    assert store <= known, (step, pid)
                assert set(resident_segment_names()) == resident_before
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
        """The graphs a worker holds outlive a mutation as the same objects:
        every graph tagged before the mutation is still held, still tagged."""
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
            planner = catalog.planner()
            assert sum(planner.map_slots(_mark_held_graphs)) > 0
            before = stored_digests(catalog)
            pids = worker_pids(catalog)
            catalog.add_graph(spare[0])
            catalog.remove_graph(1)
            catalog.update_graph(6, spare[1])
            warm()
            assert worker_pids(catalog) == pids  # the same worker processes
            for held, marks in zip(before, planner.map_slots(_read_marks)):
                assert all(marks.get(digest) for digest in held)
        finally:
            catalog.close()

    def test_a_cold_worker_deserializes_the_candidates_not_the_shard(self):
        """The parent filters; after the first query on a fresh pool the
        worker of slot 0 — the fewest graphs, lowest index — holds exactly
        the graphs the pipeline handed on to verification, a fraction of the
        database, and the other worker none."""
        seed = 8471
        database = random_database(seed, num_graphs=16)
        query = extract_query(database.graphs[3].skeleton, 4, rng=seed)
        catalog = pooled_catalog(database, seed)
        try:
            expected = survivor_digests(catalog, query, seed)
            assert 0 < len(expected) < len(database.graphs) // 2
            catalog.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=seed)
            assert stored_digests(catalog) == [expected, set()]
        finally:
            catalog.close()

    def test_a_survivor_a_slot_holds_is_verified_by_that_slot(self, monkeypatch):
        """Query by query, each survivor a slot's worker already holds is
        named in that slot's frame, and the rest go as one block to the slot
        holding the fewest graphs: the workers' stores follow the rule
        written out (:func:`deal`), and the last query splits between the
        slots — its held survivors to their holders, its new ones to the
        other slot."""
        seed = 8481
        database = random_database(seed, num_graphs=12)
        queries = [
            extract_query(database.graphs[index].skeleton, 3, rng=seed + index)
            for index in QUERY_SOURCES
        ]
        catalog = pooled_catalog(database, seed)
        try:
            planner = catalog.planner()
            planner.map_slots(os.getpid)  # start the pool
            slots = list(planner._slots)
            stores = [set(), set()]
            for root, query in enumerate(queries):
                survivors = survivor_digests(catalog, query, root)
                holder = {digest: slot for slot, store in enumerate(stores) for digest in store}
                dealt = record_dealt(monkeypatch, slots)
                catalog.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=root
                )
                monkeypatch.undo()
                assert set().union(*dealt) == survivors, root
                for digest in survivors & holder.keys():
                    assert digest in dealt[holder[digest]], root
                stores = deal(stores, [survivors])
                assert stored_digests(catalog) == stores, root
            assert all(dealt) and survivors & holder.keys() and survivors - holder.keys()
        finally:
            catalog.close()

    def test_no_digest_is_held_by_two_slots_over_the_filter_heavy_requests(self):
        """The full ``filter_heavy`` request list of the end-to-end benchmark,
        then a mutation, then a compaction, each followed by the list again:
        no graph is held by two workers, and each worker's store is its
        slot's record."""
        from benchmarks.e2e import corpus as e2e
        from benchmarks.e2e.workloads import call

        corpus = e2e.build_corpus("filter_heavy", smoke=False)
        profile = corpus.profile
        requests = e2e.build_requests(corpus, seed=7)
        catalog = GraphCatalog.build(
            corpus.graphs,
            feature_config=e2e.FEATURE_CONFIG,
            bound_config=e2e.BOUND_CONFIG,
            rng=e2e.BUILD_SEED,
            num_shards=profile.shards,
            max_workers=profile.workers,
        )

        def replay_and_check(step: str) -> None:
            for request in requests:
                call(catalog, request, profile.delta, profile.search_config)
            stores = stored_digests(catalog)
            assert all(stores), step
            assert not stores[0] & stores[1], step
            assert stores == [set(slot.held) for slot in catalog.planner()._slots], step

        try:
            replay_and_check("request list")
            catalog.update_graph(corpus.victims[0], corpus.arrivals[0])
            catalog.add_graph(corpus.arrivals[1])
            replay_and_check("mutation")
            catalog.compact()
            replay_and_check("compaction")
        finally:
            catalog.close()

    def test_a_graph_that_survives_compaction_is_the_same_object_in_its_worker(self):
        """Across compact() a worker keeps every graph it holds that the new
        generation stores again — the object itself, caches included — and
        drops the one an update replaced once this process lets go of it.
        The two queries deal survivors to both slots, two graphs and four."""
        seed = 8491
        database = random_database(seed, num_graphs=8)
        replacement = random_database(seed + 1000, num_graphs=1).graphs[0]
        queries = [extract_query(database.graphs[i].skeleton, 3, rng=seed) for i in (1, 4)]
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
            held = stored_digests(catalog)
            assert all(held)
            updated = next(
                graph_id
                for graph_id, graph in enumerate(database.graphs)
                if digest_of(graph) in held[0] | held[1]
            )
            old_digest = digest_of(database.graphs[updated])
            catalog.update_graph(updated, replacement)
            catalog.compact()
            # a worker keeps a graph while this process holds it: let it go
            database.graphs[updated] = None
            gc.collect()
            ask("generation two")
            carried = planner.map_slots(_read_marks)
            for before, marks in zip(held, carried):
                assert old_digest not in marks  # the replaced graph was dropped
                assert any(marks.values())
                for digest, tagged in marks.items():
                    assert tagged == (digest in before), digest.hex()
        finally:
            catalog.close()

    def test_a_compaction_down_to_no_live_graph_keeps_the_pool(self):
        """A pooled catalog compacted down to one live graph, then to none,
        then grown back keeps its planner and its workers throughout, and
        answers byte-identically to a rebuild — or, with nothing live, to the
        in-process twin that took the same steps."""
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
            assert_result_parity(ask(pooled), expected(), "six live graphs")
            planner, pids = pooled.planner(), worker_pids(pooled)
            for catalog in (pooled, twin):
                for graph_id in range(1, 6):
                    catalog.remove_graph(graph_id)
                catalog.compact()
            assert_result_parity(ask(pooled), expected(), "one live graph")

            for catalog in (pooled, twin):
                catalog.remove_graph(0)
                catalog.compact()
            assert_result_parity(ask(pooled), ask(twin), "no live graph")

            for catalog in (pooled, twin):
                for graph in database.graphs[:4]:
                    catalog.add_graph(graph)
                catalog.compact()
            assert_result_parity(ask(pooled), expected(), "four live graphs")
            assert pooled.planner() is planner and worker_pids(pooled) == pids
        finally:
            pooled.close()
            twin.close()

    def test_compact_hot_swap_is_invisible(self):
        seed = 8501
        database = random_database(seed, num_graphs=6)
        query = extract_query(database.graphs[1].skeleton, 3, rng=seed)
        catalog = pooled_catalog(database, seed)
        try:
            before = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            pids = worker_pids(catalog)
            stores = stored_digests(catalog)
            catalog.compact()
            after = catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=seed,
            )
            assert worker_pids(catalog) == pids
            assert stored_digests(catalog) == stores  # nothing shipped or dropped
        finally:
            catalog.close()
        assert_result_parity(after, before, "threshold across compact hot-swap")
