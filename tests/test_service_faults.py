"""Fault injection for the query service and the pooled-planner lifecycle.

Every failure mode must resolve into a *typed* error frame or a clean
recovery — never a hang, never a crashed dispatcher, and (the autouse
fixture below) never an orphaned shared-memory segment:

* client disconnect mid-request — the work is dropped, the service lives;
* per-request deadline expiry — ``deadline_exceeded``, work skipped;
* a SIGKILL'd pool worker — the broken pool falls back in-process with
  byte-identical answers, then rebuilds; ``map_slots`` meeting one raises
  ``BrokenSlotError`` once and forks fresh workers on the next call;
* a full admission queue — immediate ``overloaded``;
* a bool where a mutation expects an external id — ``bad_request``;
* a non-integral, bool or non-finite δ or k — ``bad_request``, over TCP too;
* graceful shutdown mid-batch — queued work completes, new work gets
  ``shutting_down``;
* ``ShardedPlanner.close()`` double-close and close-during-inflight —
  idempotent and drain-on-close under concurrent submission;
* mutations racing pooled queries — every answer is that of a whole state,
  and every frame names only graphs its worker holds;
* a worker SIGKILL'd between a mutation and the next query — in-process
  fallback over the mutated state, then a fresh pool.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import sys
import threading
import time

import pytest

import test_catalog_parity
from test_catalog_parity import rebuild_from_scratch

from repro.core import GraphCatalog, QueryResult, SearchConfig, VerificationConfig, sharding
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import BrokenSlotError, ServiceError
from repro.graphs.io import labeled_graph_to_dict
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.service.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    SHUTTING_DOWN,
    encode_frame,
)

from tests.conftest import resident_segment_names

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
BOUND_CONFIG = BoundConfig(num_samples=40)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Same bar as test_pool_parity: faults must not leave shm segments."""
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


def build_catalog(seed: int, num_graphs: int = 6, **kwargs) -> tuple:
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
    database = generate_ppi_database(config, rng=seed)
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=seed,
        **kwargs,
    )
    return database, catalog


def answer_tuples(result):
    return [
        (a.graph_id, a.graph_name, a.probability, a.decided_by)
        for a in result.answers
    ]


def twin_answer(catalog: GraphCatalog, query, rng: int):
    """The answer of a dense planner built from scratch over the catalog's
    live graphs (the parity suite's reference; it rebuilds with its own
    index configs, which must be the ones ``build_catalog`` uses)."""
    assert (FEATURE_CONFIG, BOUND_CONFIG) == (
        test_catalog_parity.FEATURE_CONFIG,
        test_catalog_parity.BOUND_CONFIG,
    )
    return answer_tuples(
        rebuild_from_scratch(catalog).execute(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=rng
        )
    )


def test_client_disconnect_mid_request_does_not_kill_the_service():
    """A TCP client that vanishes mid-request leaves the service healthy."""

    async def scenario():
        database, catalog = build_catalog(seed=7001)
        query = extract_query(database.graphs[0].skeleton, 3, rng=1)
        # A long batch window guarantees the rude client's request is still
        # queued (not executing) when the connection dies.
        config = ServiceConfig(batch_window=0.2, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                host, port = await service.serve_tcp()
                client = ServiceClient(service)

                from repro.service.client import TcpServiceClient

                rude = await TcpServiceClient().connect(host, port)
                rude_job = asyncio.create_task(
                    rude.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=5)
                )
                await asyncio.sleep(0.02)  # let the frame reach the queue
                await rude.close()
                rude_job.cancel()
                try:
                    await rude_job
                except (asyncio.CancelledError, ServiceError):
                    pass

                # The service still answers correctly for everyone else.
                result = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=5
                )
                expected = catalog.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=5,
                )
                assert answer_tuples(result) == answer_tuples(expected)
                health = await client.health()
                assert health["status"] == "ok"
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_deadline_expiry_is_typed_and_skips_execution():
    """An expired deadline yields ``deadline_exceeded``; the dispatcher drops
    the corpse instead of burning backend time on it."""

    async def scenario():
        database, catalog = build_catalog(seed=7002)
        query = extract_query(database.graphs[0].skeleton, 3, rng=2)
        # Window far longer than the deadline: the request must time out in
        # the queue, and the later batch must skip it.
        config = ServiceConfig(batch_window=0.3, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                with pytest.raises(ServiceError) as excinfo:
                    await client.query(
                        query,
                        PROBABILITY_THRESHOLD,
                        DISTANCE_THRESHOLD,
                        rng=3,
                        deadline=0.01,
                    )
                assert excinfo.value.code == DEADLINE_EXCEEDED
                stats = await client.stats()
                assert stats["counters"]["deadline_expired"] == 1
                # An unhurried request on the same service still completes.
                result = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=3
                )
                expected = catalog.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=3,
                )
                assert answer_tuples(result) == answer_tuples(expected)
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_default_deadline_applies_to_requests_without_one():
    async def scenario():
        database, catalog = build_catalog(seed=7003)
        query = extract_query(database.graphs[1].skeleton, 3, rng=4)
        config = ServiceConfig(
            batch_window=0.3, default_deadline=0.01, search_config=SEARCH_CONFIG
        )
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                with pytest.raises(ServiceError) as excinfo:
                    await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=6)
                assert excinfo.value.code == DEADLINE_EXCEEDED
        finally:
            catalog.close()

    asyncio.run(scenario())


def _stored_digests() -> set[bytes]:
    """Runs in a pool worker: the digests of the graphs it holds."""
    return set(sharding._WORKER_GRAPHS)


def slot_zero_worker(planner) -> int:
    """The pid of slot 0's worker: a cold pool deals a query's survivors to
    slot 0, so killing it breaks the next fan-out of the same query, whose
    survivors go to the slot that holds them."""
    return planner.map_slots(os.getpid)[0]


@pytest.mark.usefixtures("two_usable_cpus")
def test_sigkilled_pool_worker_recovers_with_identical_answers():
    """SIGKILL a pool worker: the poisoned pool falls back in-process and the
    answers stay byte-identical (determinism is execution-strategy-free)."""

    async def scenario():
        database, catalog = build_catalog(seed=7004, num_shards=2, max_workers=2)
        reference = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7004,
        )
        query = extract_query(database.graphs[2].skeleton, 3, rng=8)
        config = ServiceConfig(batch_window=0.0, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                # Warm the pool, then murder the worker of slot 0.
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=9)
                planner = catalog.planner()
                assert planner._slots, "pool should be warm"
                os.kill(slot_zero_worker(planner), signal.SIGKILL)

                result = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=10
                )
                # the fan-out met the dead worker: the pool was dropped
                assert planner._slots == []
                expected = reference.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=10,
                )
                assert answer_tuples(result) == answer_tuples(expected)
                health = await client.health()
                assert health["status"] == "ok"
        finally:
            catalog.close()
            reference.close()

    asyncio.run(scenario())


@pytest.mark.usefixtures("two_usable_cpus")
@pytest.mark.parametrize("then", ["close", "query"])
def test_a_sigkilled_slot_is_never_parked(then):
    """A closed planner parks its workers for the next one of its width, but
    not a pool with a dead worker: whether ``close()`` finds it dead (its
    release task fails) or a query does first (the in-process fallback), the
    next catalog forks fresh workers, all of them."""
    database, catalog = build_catalog(seed=7013, num_shards=2, max_workers=2)
    query = extract_query(database.graphs[0].skeleton, 3, rng=120)

    def ask(target, rng):
        return answer_tuples(
            target.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=rng
            )
        )

    successor = None
    try:
        ask(catalog, 121)
        planner = catalog.planner()
        pids = planner.map_slots(os.getpid)
        os.kill(slot_zero_worker(planner), signal.SIGKILL)
        if then == "query":
            assert ask(catalog, 122) == twin_answer(catalog, query, rng=122)
        catalog.close()
        assert not os.path.isdir(f"/proc/{pids[1]}"), "the live sibling was parked"
        successor = build_catalog(seed=7014, num_shards=2, max_workers=2)[1]
        assert not set(pids) & set(successor.planner().map_slots(os.getpid))
        # and a healthy close parks as before
        fresh = successor.planner().map_slots(os.getpid)
        successor.close()
        assert catalog.planner().map_slots(os.getpid) == fresh
    finally:
        catalog.close()
        if successor is not None:
            successor.close()


@pytest.mark.usefixtures("two_usable_cpus")
def test_map_slots_after_a_sigkilled_worker_raises_once_then_forks_fresh():
    """``map_slots`` meets a dead worker the way a query fan-out does: every
    slot is shut down (the live sibling too, never parked) — but it raises a
    typed error instead of answering in-process.  The next call forks fresh
    workers, and queries answer as before."""
    database, catalog = build_catalog(seed=7015, num_shards=2, max_workers=2)
    query = extract_query(database.graphs[1].skeleton, 3, rng=130)

    def ask(rng):
        return answer_tuples(
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=rng
            )
        )

    try:
        ask(131)
        planner = catalog.planner()
        pids = planner.map_slots(os.getpid)
        os.kill(pids[0], signal.SIGKILL)
        with pytest.raises(BrokenSlotError):
            planner.map_slots(os.getpid)
        assert planner._slots == []
        assert not any(os.path.isdir(f"/proc/{pid}") for pid in pids), "a slot outlived the list"
        fresh = planner.map_slots(os.getpid)
        assert len(fresh) == 2 and not set(fresh) & set(pids)
        assert ask(132) == twin_answer(catalog, query, rng=132)
        assert planner.map_slots(os.getpid) == fresh
    finally:
        catalog.close()


def test_full_admission_queue_is_typed_and_never_hangs():
    """Submissions beyond ``max_queue_depth`` fail fast with ``overloaded``."""

    async def scenario():
        database, catalog = build_catalog(seed=7005)
        query = extract_query(database.graphs[0].skeleton, 3, rng=11)
        # Big window keeps the first submissions parked in the queue while
        # the overflow submission arrives.
        config = ServiceConfig(
            batch_window=0.3, max_queue_depth=2, search_config=SEARCH_CONFIG
        )
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                jobs = [
                    asyncio.create_task(
                        client.query(
                            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=20 + i
                        )
                    )
                    for i in range(2)
                ]
                await asyncio.sleep(0.02)  # both queued, window still open
                overflow = ServiceClient(service)
                with pytest.raises(ServiceError) as excinfo:
                    await asyncio.wait_for(
                        overflow.query(
                            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=30
                        ),
                        timeout=2.0,  # "never hangs": rejection is immediate
                    )
                assert excinfo.value.code == OVERLOADED
                results = await asyncio.gather(*jobs)  # queued work unharmed
                assert all(result is not None for result in results)
                stats = await client.stats()
                assert stats["counters"]["rejected_overloaded"] == 1
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_bool_external_id_is_a_bad_request():
    """``"external_id": true`` is no id: a ``bad_request`` frame, as for a
    bool anywhere else on the wire, and the free id 1 stays free."""

    async def scenario():
        database, catalog = build_catalog(seed=7011)
        try:
            async with QueryService(catalog, ServiceConfig(search_config=SEARCH_CONFIG)) as service:
                client = ServiceClient(service)
                await client.remove_graph(1)
                with pytest.raises(ServiceError) as excinfo:
                    await client.add_graph(database.graphs[1], external_id=True)
                assert excinfo.value.code == BAD_REQUEST
                assert catalog.live_external_ids() == [0, 2, 3, 4, 5]
        finally:
            catalog.close()

    asyncio.run(scenario())


NOT_AN_INTEGER = (1.5, True, float("inf"), float("nan"))


def test_non_integral_and_non_finite_delta_and_k_are_bad_requests():
    """δ = 1.5 is not δ = 1 and k = 2.5 is not k = 2: each, like a bool,
    ``Infinity`` or ``NaN``, gets a ``bad_request`` frame (``submit`` never
    raises), while an integral float still answers as its int."""

    async def scenario():
        database, catalog = build_catalog(seed=7012)
        query = extract_query(database.graphs[0].skeleton, 3, rng=1)
        base = {"query": labeled_graph_to_dict(query), "rng": 5}
        threshold = {**base, "op": "query", "probability_threshold": PROBABILITY_THRESHOLD}
        top_k = {**base, "op": "query_top_k", "distance_threshold": DISTANCE_THRESHOLD}
        try:
            async with QueryService(catalog, ServiceConfig(search_config=SEARCH_CONFIG)) as service:
                for value in NOT_AN_INTEGER:
                    frames = ({**threshold, "distance_threshold": value}, {**top_k, "k": value})
                    for frame in frames:
                        response = await service.submit(frame)
                        assert response["error"]["code"] == BAD_REQUEST, frame
                response = await service.submit(
                    {**threshold, "distance_threshold": float(DISTANCE_THRESHOLD)}
                )
                expected = catalog.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=5
                )
                assert QueryResult.from_dict(response["result"]).answers == expected.answers
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_a_non_finite_threshold_over_tcp_still_gets_a_response_frame():
    """``json.loads`` reads ``Infinity``: the line's task must answer it, not die."""

    async def scenario():
        database, catalog = build_catalog(seed=7013)
        query = extract_query(database.graphs[0].skeleton, 3, rng=1)
        try:
            async with QueryService(catalog, ServiceConfig(search_config=SEARCH_CONFIG)) as service:
                host, port = await service.serve_tcp()
                reader, writer = await asyncio.open_connection(host, port)
                frame = encode_frame(
                    {
                        "id": 9,
                        "op": "query_top_k",
                        "query": labeled_graph_to_dict(query),
                        "k": 2,
                        "distance_threshold": 1,
                    }
                ).replace(b'"distance_threshold":1', b'"distance_threshold":Infinity')
                writer.write(frame)
                await writer.drain()
                response = json.loads(await asyncio.wait_for(reader.readline(), timeout=10))
                writer.close()
                await writer.wait_closed()
                assert response["id"] == 9
                assert response["error"]["code"] == BAD_REQUEST
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_graceful_shutdown_mid_batch_drains_then_refuses():
    """stop() during queued traffic: admitted work completes with real
    answers; post-stop submissions get ``shutting_down``."""

    async def scenario():
        database, catalog = build_catalog(seed=7006)
        queries = [extract_query(database.graphs[i].skeleton, 3, rng=40 + i) for i in range(3)]
        config = ServiceConfig(batch_window=0.1, search_config=SEARCH_CONFIG)
        service = await QueryService(catalog, config).start()
        client = ServiceClient(service)
        try:
            jobs = [
                asyncio.create_task(
                    client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=50 + i)
                )
                for i, query in enumerate(queries)
            ]
            await asyncio.sleep(0.02)  # admitted, sitting in the window
            await service.stop()
            results = await asyncio.gather(*jobs)
            for i, (query, result) in enumerate(zip(queries, results)):
                expected = catalog.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=50 + i,
                )
                assert answer_tuples(result) == answer_tuples(expected), f"drained query {i}"
            with pytest.raises(ServiceError) as excinfo:
                await client.query(queries[0], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=60)
            assert excinfo.value.code == SHUTTING_DOWN
            await service.stop()  # idempotent
        finally:
            catalog.close()

    asyncio.run(scenario())


@pytest.mark.usefixtures("two_usable_cpus")
class TestShardedPlannerCloseRegression:
    """The close() lifecycle fixes: idempotent, concurrent, drain-on-close."""

    def test_double_close_is_a_no_op(self):
        database, catalog = build_catalog(seed=7007, num_shards=2, max_workers=2)
        query = extract_query(database.graphs[0].skeleton, 3, rng=70)
        try:
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG, rng=71,
            )
            planner = catalog.planner()
            planner.close()
            planner.close()  # regression: second close must not raise
            assert planner._slots == []
            # the planner keeps working after close (a parked or fresh pool)
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG, rng=72,
            )
        finally:
            catalog.close()

    def test_concurrent_close_races_are_safe(self):
        database, catalog = build_catalog(seed=7008, num_shards=2, max_workers=2)
        query = extract_query(database.graphs[1].skeleton, 3, rng=73)
        try:
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG, rng=74,
            )
            planner = catalog.planner()
            errors = []

            def closer():
                try:
                    planner.close()
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)

            threads = [threading.Thread(target=closer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, f"racing close() raised: {errors}"
        finally:
            catalog.close()

    def test_close_during_inflight_query_drains_not_tears(self):
        """close() racing execute_plans: the in-flight workload still returns
        byte-identical answers (pool shutdown waits for submitted tasks)."""
        database, catalog = build_catalog(seed=7009, num_shards=2, max_workers=2)
        reference = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7009,
        )
        queries = [
            extract_query(database.graphs[i % 6].skeleton, 3, rng=80 + i) for i in range(4)
        ]
        try:
            planner = catalog.planner()
            results: dict[str, object] = {}

            def run_workload():
                plans = [
                    planner.plan(
                        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG
                    )
                    for query in queries
                ]
                results["got"] = planner.execute_plans(plans, [81] * len(plans))

            worker = threading.Thread(target=run_workload)
            worker.start()
            planner.close()  # may land before, during, or after the fan-out
            worker.join()
            expected = reference.query_many(
                queries,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=81,
            )
            for got, want in zip(results["got"], expected):
                assert answer_tuples(got) == answer_tuples(want)
        finally:
            catalog.close()
            reference.close()

    def test_concurrent_submissions_with_close_never_deadlock(self):
        """Submitting threads racing close(): everything completes with the
        right answers and no segment in /dev/shm (the autouse fixture)."""
        database, catalog = build_catalog(seed=7010, num_shards=2, max_workers=2)
        reference = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7010,
        )
        query = extract_query(database.graphs[3].skeleton, 3, rng=90)
        try:
            planner = catalog.planner()
            outcomes: list = [None] * 3

            def submitter(slot: int):
                plan = planner.plan(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG
                )
                (outcomes[slot],) = planner.execute_plans([plan], [91 + slot])

            threads = [threading.Thread(target=submitter, args=(slot,)) for slot in range(3)]
            for thread in threads:
                thread.start()
            planner.close()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "submission deadlocked against close()"
            for slot in range(3):
                expected = reference.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=91 + slot,
                )
                assert answer_tuples(outcomes[slot]) == answer_tuples(expected)
        finally:
            catalog.close()
            reference.close()


@pytest.mark.usefixtures("two_usable_cpus")
class TestMutationsKeepTheReadPath:
    """A mutation swaps the query planner under a live pool; nothing tears."""

    @staticmethod
    def mutations(database, spare):
        """20 mutations, each round closed by a compaction.
        Ids 0, 2, 4 and 6 answer the query below in every whole state: each
        round copies one of them to an arrival id, swaps it for another
        answering graph and back (an answer list without that id can only
        come from between the halves of an update), turns the arrival into a
        graph that does not answer, drops it, and compacts."""
        ops = []
        for round_, victim in enumerate((0, 2, 4, 6)):
            arrival = 100 + round_
            ops.append(("add", arrival, database.graphs[victim]))
            ops.append(("update", victim, database.graphs[(victim + 2) % 8]))
            ops.append(("update", arrival, spare[round_]))
            ops.append(("update", victim, database.graphs[victim]))
            ops.append(("remove", arrival, None))
            ops.append(("compact", None, None))
        return ops

    @staticmethod
    def apply(catalog, op):
        kind, external_id, graph = op
        if kind == "add":
            catalog.add_graph(graph, external_id=external_id)
        elif kind == "update":
            catalog.update_graph(external_id, graph)
        elif kind == "compact":
            catalog.compact()
        else:
            catalog.remove_graph(external_id)

    def test_queries_racing_mutations_answer_from_whole_states(self):
        """Threads querying the pooled catalog in a loop while this thread
        applies 20 mutations and a compaction after every fifth: every
        answer is the from-scratch twin's for the state before or after some
        mutation (an update is one step, never the missing-id state between
        its halves) — no ``SlotError`` from a frame naming a graph its worker
        does not hold, no broken pool, no hang, and each slot's record equal
        to its worker's store once the readers stop.  Three readers over two
        workers, so one fan-out ships or drops graphs while another's frames
        are still queued."""
        database, catalog = build_catalog(seed=7011, num_graphs=8, num_shards=2, max_workers=2)
        spare = build_catalog(seed=8011, num_graphs=8)[0].graphs
        query = extract_query(database.graphs[0].skeleton, 3, rng=102)
        ops = self.mutations(database, spare)
        assert len(ops) == 24
        resident_before = set(resident_segment_names())

        # the 21 states' answers, from a sequential replay on a second catalog
        replay = build_catalog(seed=7011, num_graphs=8)[1]
        allowed = [twin_answer(replay, query, rng=101)]
        for op in ops:
            self.apply(replay, op)
            allowed.append(twin_answer(replay, query, rng=101))
        replay.close()
        assert len({tuple(answer) for answer in allowed}) > 8, "the states must differ"
        assert all({0, 2, 4, 6} <= {row[0] for row in answer} for answer in allowed)

        answers, errors = [], []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    answers.append(
                        answer_tuples(
                            catalog.query(
                                query,
                                PROBABILITY_THRESHOLD,
                                DISTANCE_THRESHOLD,
                                config=SEARCH_CONFIG,
                                rng=101,
                            )
                        )
                    )
            except Exception as exc:  # the failure under test
                errors.append(exc)

        def wait_for_answers(count: int) -> None:
            deadline = time.monotonic() + 60
            while len(answers) < count and not errors and time.monotonic() < deadline:
                time.sleep(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        try:
            catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=101
            )
            planner = catalog.planner()
            pids = planner.map_slots(os.getpid)
            for thread in threads:
                thread.start()
            for op in ops:
                # land each mutation while a query is in flight, and let at
                # least one whole query start after it
                wait_for_answers(len(answers) + 1)
                self.apply(catalog, op)
            wait_for_answers(len(answers) + 2)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a reader hung"
            assert not errors, f"a racing query failed: {errors!r}"
            assert len(answers) >= 21
            strays = [answer for answer in answers if answer not in allowed]
            assert not strays, f"{len(strays)} answers match no whole state: {strays[:1]}"
            settled = catalog.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=101
            )
            assert answer_tuples(settled) == allowed[-1] == twin_answer(catalog, query, rng=101)
            # the read path was never torn down
            assert catalog.planner() is planner
            assert planner.map_slots(os.getpid) == pids
            assert planner.map_slots(_stored_digests) == [
                set(slot.held) for slot in planner._slots
            ], "a slot's record drifted from its worker's store"
            assert set(resident_segment_names()) == resident_before
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            catalog.close()

    def test_sigkilled_worker_between_mutation_and_query_falls_back_then_rebuilds(self):
        """SIGKILL a worker after a mutation and before the query that would
        republish it: the query answers in-process, byte-identical to the
        twin of the *mutated* state, and the next one forks a fresh pool and
        ships it that state's graphs; nothing leaks (the autouse fixture).  The
        query comes from a graph no mutation touches, so its survivors, held
        by slot 0 since the warm-up, go to the killed worker."""
        database, catalog = build_catalog(seed=7012, num_graphs=8, num_shards=2, max_workers=2)
        spare = build_catalog(seed=8012, num_graphs=2)[0].graphs
        query = extract_query(database.graphs[1].skeleton, 3, rng=110)

        def ask(rng):
            return answer_tuples(
                catalog.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=rng
                )
            )

        try:
            ask(111)
            planner = catalog.planner()
            first_pids = set(planner.map_slots(os.getpid))
            catalog.update_graph(0, spare[0])
            catalog.add_graph(spare[1])
            os.kill(slot_zero_worker(planner), signal.SIGKILL)

            assert ask(112) == twin_answer(catalog, query, rng=112)
            assert catalog.planner() is planner
            assert planner._slots == []

            assert ask(113) == twin_answer(catalog, query, rng=113)
            slots = planner._slots
            assert slots and any(slot.graph_bytes for slot in slots)
            fresh = planner.map_slots(os.getpid)
            assert not first_pids & set(fresh)
            # the rebuilt pool follows later mutations like the first one did
            catalog.remove_graph(1)
            assert ask(114) == twin_answer(catalog, query, rng=114)
            assert planner._slots is slots and planner.map_slots(os.getpid) == fresh
        finally:
            catalog.close()
