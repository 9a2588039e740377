"""Fault injection for the query service and the catalog lifecycle.

Every failure mode must resolve into a *typed* error frame or a clean
recovery — never a hang, never a crashed dispatcher:

* client disconnect mid-request — the work is dropped, the service lives;
* per-request deadline expiry — ``deadline_exceeded``, work skipped;
* a full admission queue — immediate ``overloaded``;
* a bool where a mutation expects an external id — ``bad_request``;
* a non-integral, bool or non-finite δ or k — ``bad_request``, over TCP too;
* graceful shutdown mid-batch — queued work completes, new work gets
  ``shutting_down``;
* ``GraphCatalog.close()`` twice, from racing threads, and during
  in-flight ``query_many`` calls — a no-op for the answers: every query
  in flight and every later one answers as the twin does;
* mutations racing queries — every answer is that of a whole state.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from collections import deque

import pytest

import test_catalog_parity
from test_catalog_parity import rebuild_from_scratch

from repro.core import GraphCatalog, QueryResult, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import ConfigurationError, ServiceError
from repro.graphs.io import labeled_graph_to_dict, probabilistic_graph_to_dict
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.service.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    SHUTTING_DOWN,
    encode_frame,
)
from repro.service.server import _percentiles

from tests.conftest import GatedCatalog, eventually, live_ids

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
BOUND_CONFIG = BoundConfig(num_samples=40)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)


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
    """A TCP client that vanishes mid-request leaves the service healthy,
    and its queued request never reaches the backend."""

    async def scenario():
        database, catalog = build_catalog(seed=7001)
        query = extract_query(database.graphs[0].skeleton, 3, rng=1)
        backend = GatedCatalog(catalog)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(backend, config) as service:
                host, port = await service.serve_tcp()
                client = ServiceClient(service)
                # The held lane keeps the rude client's request queued (not
                # executing) when the connection dies.
                blocker = asyncio.create_task(
                    client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=4)
                )
                await backend.entered()

                from repro.service.client import TcpServiceClient

                rude = await TcpServiceClient().connect(host, port)
                rude_job = asyncio.create_task(
                    rude.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=5)
                )
                await eventually(
                    lambda: service.health()["queue_depth"] == 1, "the frame to reach the queue"
                )
                await rude.close()
                rude_job.cancel()
                try:
                    await rude_job
                except (asyncio.CancelledError, ServiceError):
                    pass
                await eventually(
                    lambda: all(item.cancelled for item in service._pending),
                    "the service to see the disconnect",
                )
                backend.open()
                await blocker

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
                stats = await client.stats()
                assert stats["counters"]["dropped_before_execution"] == 1
                assert backend.calls == [1, 1]
        finally:
            backend.open()
            catalog.close()

    asyncio.run(scenario())


def test_deadline_expiry_is_typed_and_skips_execution():
    """An expired deadline yields ``deadline_exceeded``; the dispatcher drops
    the corpse instead of burning backend time on it."""

    async def scenario():
        database, catalog = build_catalog(seed=7002)
        query = extract_query(database.graphs[0].skeleton, 3, rng=2)
        backend = GatedCatalog(catalog)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(backend, config) as service:
                client = ServiceClient(service)
                # A held lane: the request must time out in the queue, and
                # the lane must skip it once it frees up.
                blocker = asyncio.create_task(
                    client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=2)
                )
                await backend.entered()
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
                backend.open()
                await blocker
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
                stats = await client.stats()
                assert stats["counters"]["dropped_before_execution"] == 1
                assert backend.calls == [1, 1]
        finally:
            backend.open()
            catalog.close()

    asyncio.run(scenario())


def test_default_deadline_applies_to_requests_without_one():
    async def scenario():
        database, catalog = build_catalog(seed=7003)
        query = extract_query(database.graphs[1].skeleton, 3, rng=4)
        backend = GatedCatalog(catalog)
        config = ServiceConfig(default_deadline=0.01, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(backend, config) as service:
                client = ServiceClient(service)
                # its own deadline outlasts the default while it holds the lane
                blocker = asyncio.create_task(
                    client.query(
                        query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=5, deadline=60
                    )
                )
                await backend.entered()
                with pytest.raises(ServiceError) as excinfo:
                    await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=6)
                assert excinfo.value.code == DEADLINE_EXCEEDED
                backend.open()
                await blocker
        finally:
            backend.open()
            catalog.close()

    asyncio.run(scenario())


def test_full_admission_queue_is_typed_and_never_hangs():
    """Submissions beyond ``max_queue_depth`` fail fast with ``overloaded``."""

    async def scenario():
        database, catalog = build_catalog(seed=7005)
        query = extract_query(database.graphs[0].skeleton, 3, rng=11)
        backend = GatedCatalog(catalog)
        config = ServiceConfig(max_queue_depth=2, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(backend, config) as service:
                client = ServiceClient(service)
                # The held lane keeps the next submissions parked in the
                # queue while the overflow submission arrives.
                blocker = asyncio.create_task(
                    client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=19)
                )
                await backend.entered()
                jobs = [
                    asyncio.create_task(
                        client.query(
                            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=20 + i
                        )
                    )
                    for i in range(2)
                ]
                await eventually(lambda: service.health()["queue_depth"] == 2, "both queued")
                overflow = ServiceClient(service)
                with pytest.raises(ServiceError) as excinfo:
                    await asyncio.wait_for(
                        overflow.query(
                            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=30
                        ),
                        timeout=2.0,  # "never hangs": rejection is immediate
                    )
                assert excinfo.value.code == OVERLOADED
                backend.open()
                results = await asyncio.gather(blocker, *jobs)  # queued work unharmed
                assert all(result is not None for result in results)
                stats = await client.stats()
                assert stats["counters"]["rejected_overloaded"] == 1
        finally:
            backend.open()
            catalog.close()

    asyncio.run(scenario())


SERVICE_CONFIG_FIELDS = [
    # (field, value, accepted)
    ("max_batch_size", 1, True),
    ("max_batch_size", 0, False),
    ("max_batch_size", True, False),
    ("max_batch_size", 2.5, False),
    ("max_batch_size", "8", False),
    ("max_queue_depth", 1, True),
    ("max_queue_depth", 0, False),
    ("max_queue_depth", "3", False),
    ("max_queue_depth", False, False),
    ("cache_entries", 0, True),
    ("cache_entries", -1, False),
    ("cache_entries", 1.0, False),
    ("cache_entries", True, False),
    ("stats_window", 0, True),
    ("stats_window", -1, False),
    ("stats_window", None, False),
    ("default_deadline", None, True),
    ("default_deadline", 2, True),
    ("default_deadline", 0.5, True),
    ("default_deadline", -1.0, False),
    ("default_deadline", 0, False),
    ("default_deadline", True, False),
    ("default_deadline", "1", False),
    ("default_deadline", float("nan"), False),
    ("default_deadline", float("inf"), False),
    ("drain_timeout", 1, True),
    ("drain_timeout", 0.0, False),
    ("drain_timeout", None, False),
    ("drain_timeout", False, False),
    ("drain_timeout", float("inf"), False),
    ("search_config", SEARCH_CONFIG, True),
    ("search_config", {}, False),
]


@pytest.mark.parametrize(
    "field, value, accepted",
    SERVICE_CONFIG_FIELDS,
    ids=[f"{field}={value!r}" for field, value, _ in SERVICE_CONFIG_FIELDS],
)
def test_service_config_checks_every_field(field, value, accepted):
    """Counts are ints (never bools) >= 1 (batch, queue) or >= 0 (cache,
    stats window); durations are finite reals > 0 (``None`` is no default
    deadline); anything else is a ``ConfigurationError`` at construction,
    never a raw error from the service later, nor a deadline that expires
    every request."""
    if not accepted:
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})
        return
    config = ServiceConfig(**{field: value})
    assert getattr(config, field) == value
    QueryService(None, config)  # sizes its answer cache and latency windows from it


@pytest.mark.parametrize(
    "samples, expected",
    [
        ([1.0, 2.0], (1.0, 2.0, 2.0)),
        ([float(x) for x in range(100, 0, -1)], (50.0, 95.0, 99.0)),
        ([3.0], (3.0, 3.0, 3.0)),
    ],
)
def test_latency_percentiles_are_nearest_rank(samples, expected):
    """``/stats``' p-th latency percentile is the ``ceil(p/100 * n)``-th
    smallest sample (1-based), whatever order the window holds them in."""
    summary = _percentiles(deque(samples))
    assert (summary["p50"], summary["p95"], summary["p99"]) == expected
    assert summary["count"] == len(samples)
    assert _percentiles(deque()) == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "count": 0}


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
                assert live_ids(catalog) == [0, 2, 3, 4, 5]
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_a_graph_payload_naming_an_element_twice_is_a_bad_request():
    """A query naming a vertex twice, or an added or updated graph naming an
    edge or a table row twice, gets a ``bad_request`` frame; before, the last
    occurrence won and the request ran on a graph the client never sent."""

    async def scenario():
        database, catalog = build_catalog(seed=7014)
        query = labeled_graph_to_dict(extract_query(database.graphs[0].skeleton, 3, rng=1))
        query["vertices"].append([query["vertices"][0][0], "another label"])
        edge_twice = probabilistic_graph_to_dict(database.graphs[1])
        edge_twice["skeleton"]["edges"].append(edge_twice["skeleton"]["edges"][0])
        row_twice = probabilistic_graph_to_dict(database.graphs[1])
        row_twice["factors"][0]["table"].append(row_twice["factors"][0]["table"][0])
        frames = [
            {"op": "query", "query": query, "probability_threshold": 0.3,
             "distance_threshold": 1},
            {"op": "add_graph", "graph": edge_twice},
            {"op": "update_graph", "external_id": 1, "graph": row_twice},
        ]
        try:
            async with QueryService(catalog, ServiceConfig(search_config=SEARCH_CONFIG)) as service:
                for frame in frames:
                    error = (await service.submit(frame))["error"]
                    assert error["code"] == BAD_REQUEST, frame["op"]
                    assert "twice" in error["message"] or "repeated" in error["message"]
            assert live_ids(catalog) == list(range(6))
            assert catalog.mutation_generation == 0
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
    """stop() while a batch runs and more is queued: admitted work completes
    with real answers; submissions once stop() began get ``shutting_down``."""

    async def scenario():
        database, catalog = build_catalog(seed=7006)
        queries = [extract_query(database.graphs[i].skeleton, 3, rng=40 + i) for i in range(3)]
        backend = GatedCatalog(catalog)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        service = await QueryService(backend, config).start()
        client = ServiceClient(service)

        def ask(i):
            return asyncio.create_task(
                client.query(queries[i], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=50 + i)
            )

        try:
            jobs = [ask(0)]
            await backend.entered()  # query 0 holds the lane
            jobs += [ask(1), ask(2)]
            await eventually(lambda: service.health()["queue_depth"] == 2, "both queued")
            stopping = asyncio.create_task(service.stop())
            await eventually(lambda: service.health()["status"] == "draining", "the drain")
            backend.open()
            await stopping
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
            backend.open()
            catalog.close()

    asyncio.run(scenario())


class TestCatalogClose:
    """``close()`` drops the catalog's planner and nothing else: it is
    idempotent, racing closes are safe, and a query in flight keeps the
    planner it read."""

    def test_double_close_is_a_no_op(self):
        """A second ``close()``, and four more racing each other, raise
        nothing, and the catalog answers afterwards as its twin does."""
        database, catalog = build_catalog(seed=7007)
        query = extract_query(database.graphs[0].skeleton, 3, rng=70)

        def ask(rng):
            return answer_tuples(
                catalog.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG, rng=rng,
                )
            )

        before = ask(71)
        catalog.close()
        catalog.close()
        errors = []

        def closer():
            try:
                catalog.close()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"racing close() raised: {errors}"
        assert ask(71) == before
        assert ask(72) == twin_answer(catalog, query, rng=72)
        catalog.close()

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_close_racing_inflight_query_many_leaves_its_answers(self, kind):
        """Three threads run ``query_many`` (or ``query_top_k_many``) while
        this one closes the catalog again and again: every batch, whichever
        planner it read, answers byte-identically to a catalog nobody
        closed, and none hangs."""
        database, catalog = build_catalog(seed=7009)
        reference = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7009,
        )
        queries = [
            extract_query(database.graphs[i % 6].skeleton, 3, rng=80 + i) for i in range(4)
        ]
        outcomes: list = [None] * 3

        def batch(target, slot: int):
            if kind == "threshold":
                return target.query_many(
                    queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG, rng=81 + slot,
                )
            return target.query_top_k_many(
                queries, 2, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=81 + slot
            )

        def run_workload(slot: int):
            outcomes[slot] = batch(catalog, slot)

        threads = [threading.Thread(target=run_workload, args=(slot,)) for slot in range(3)]
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                catalog.close()  # lands before, during, or after each batch
                time.sleep(0.001)
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a query hung against close()"
            for slot, got in enumerate(outcomes):
                expected = batch(reference, slot)
                assert [answer_tuples(result) for result in got] == [
                    answer_tuples(result) for result in expected
                ]
        finally:
            catalog.close()
            reference.close()


class TestMutationsKeepTheReadPath:
    """A mutation replaces the catalog's planner under running queries;
    nothing tears."""

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
        """Threads querying the catalog in a loop while this thread applies
        20 mutations and a compaction after every fifth: every answer is the
        from-scratch twin's for the state before or after some mutation (an
        update is one step, never the missing-id state between its halves)
        — no error and no hang.  Three readers, so one query reads a planner
        while another still runs on the one it replaced."""
        database, catalog = build_catalog(seed=7011, num_graphs=8)
        spare = build_catalog(seed=8011, num_graphs=8)[0].graphs
        query = extract_query(database.graphs[0].skeleton, 3, rng=102)
        ops = self.mutations(database, spare)
        assert len(ops) == 24

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
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            catalog.close()
