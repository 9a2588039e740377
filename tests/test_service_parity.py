"""Service-parity harness: the always-on query service must answer
byte-identically to sequential library-mode calls.

The contract: for any max batch size, any interleaving of concurrent
clients, any batch the dispatcher forms from its queue, and any sequence of
catalog mutations applied through the service, a seeded request's answers
(probabilities, ranks, decided_by) and deterministic statistics counters
equal those of ``catalog.query(...)`` / ``catalog.query_top_k(...)`` on a
twin catalog mutated identically.  Micro-batching, the answer cache, and
the wire round-trip must all be invisible in the bytes.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.core import (
    GraphCatalog,
    QueryResult,
    QueryStatistics,
    SearchConfig,
    VerificationConfig,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.graphs.io import labeled_graph_to_dict, probabilistic_graph_to_dict
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import QueryService, ServiceClient, ServiceConfig, TcpServiceClient

from tests.conftest import WIDE_SUPPORT_DISTANCE, GatedCatalog, eventually

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


def build_twins(seed: int, num_graphs: int = 6, num_shards: int = 1):
    """A service catalog and an identical library-mode reference catalog."""
    database = random_database(seed, num_graphs)
    kwargs = dict(feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=seed)
    if num_shards > 1:
        kwargs.update(num_shards=num_shards, max_workers=2)
    served = GraphCatalog.build(database.graphs, **kwargs)
    twin = GraphCatalog.build(database.graphs, **kwargs)
    return database, served, twin


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


def assert_result_parity(actual, expected, context: str) -> None:
    assert answer_tuples(actual) == answer_tuples(expected), context
    assert counter_dict(actual.statistics) == counter_dict(expected.statistics), context


def random_workload(database, seed: int, count: int):
    """Seeded mixed requests: (kind, query, params, rng seed) tuples."""
    decider = random.Random(seed)
    requests = []
    for index in range(count):
        query = extract_query(
            database.graphs[decider.randrange(len(database.graphs))].skeleton,
            3,
            rng=seed * 1000 + index,
        )
        rng_seed = seed * 77 + index
        if decider.random() < 0.5:
            requests.append(("query", query, PROBABILITY_THRESHOLD, rng_seed))
        else:
            requests.append(("query_top_k", query, decider.choice([1, 2, 4]), rng_seed))
    return requests


async def run_and_compare(client, twin, requests, context=""):
    """Fire all requests concurrently through the service, compare each to a
    sequential twin-catalog call with the same seed."""

    async def one(kind, query, param, seed):
        if kind == "query":
            return await client.query(query, param, DISTANCE_THRESHOLD, rng=seed)
        return await client.query_top_k(query, param, DISTANCE_THRESHOLD, rng=seed)

    served = await asyncio.gather(*[one(*request) for request in requests])
    for index, ((kind, query, param, seed), actual) in enumerate(zip(requests, served)):
        if kind == "query":
            expected = twin.query(
                query, param, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
        else:
            expected = twin.query_top_k(
                query, param, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
        assert_result_parity(actual, expected, f"{context} request={index} kind={kind}")


@pytest.mark.parametrize("max_batch_size", [1, 8, 16])
def test_concurrent_mixed_workload_matches_sequential(max_batch_size):
    """Any coalescing limit: concurrent mixed traffic == sequential twin calls."""

    async def scenario():
        database, served, twin = build_twins(seed=9001)
        config = ServiceConfig(max_batch_size=max_batch_size, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)
                await run_and_compare(
                    client,
                    twin,
                    random_workload(database, seed=21, count=8),
                    context=f"max_batch={max_batch_size}",
                )
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("max_batch_size", [1, 3, 16])
def test_batch_size_never_changes_answers(max_batch_size):
    """Identical workload under different coalescing limits → identical bytes.

    max_batch_size=1 is the no-batching reference; larger limits must not
    shift a single probability even though requests share backend calls."""

    async def scenario():
        database, served, twin = build_twins(seed=9002)
        config = ServiceConfig(max_batch_size=max_batch_size, search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)
                await run_and_compare(
                    client,
                    twin,
                    random_workload(database, seed=33, count=6),
                    context=f"max_batch={max_batch_size}",
                )
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharded_backend_parity(num_shards):
    """The service over a catalog given the pool arguments a harness still
    passes (checked, then ignored) answers like a catalog given none."""

    async def scenario():
        database, served, twin = build_twins(seed=9003, num_shards=num_shards)
        sequential_twin = GraphCatalog.build(
            database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=9003
        )
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)
                requests = random_workload(database, seed=45, count=4)
                await run_and_compare(
                    client, sequential_twin, requests, context=f"shards={num_shards}"
                )
        finally:
            served.close()
            twin.close()
            sequential_twin.close()

    asyncio.run(scenario())


def test_interleaved_mutations_stay_in_parity():
    """Phases of concurrent traffic with service-routed mutations between.

    The twin receives the same mutation sequence through the library API;
    every post-mutation phase must still match byte-for-byte — the answer
    cache must never serve a pre-mutation result (generation keying), and
    queries must never jump the mutation barrier in the dispatch queue."""

    async def scenario():
        database, served, twin = build_twins(seed=9004)
        pool = random_database(10004, num_graphs=4).graphs
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)

                await run_and_compare(
                    client, twin, random_workload(database, seed=51, count=4), "phase=0"
                )

                added = await client.add_graph(pool[0])
                twin.add_graph(pool[0])
                assert added["external_id"] == 6

                await run_and_compare(
                    client, twin, random_workload(database, seed=52, count=4), "phase=1"
                )

                await client.update_graph(2, pool[1])
                twin.update_graph(2, pool[1])
                await client.remove_graph(0)
                twin.remove_graph(0)

                await run_and_compare(
                    client, twin, random_workload(database, seed=53, count=4), "phase=2"
                )

                await client.compact()
                twin.compact()

                await run_and_compare(
                    client, twin, random_workload(database, seed=54, count=4), "phase=3"
                )
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


def test_queries_concurrent_with_mutations_match_some_serialization():
    """Queries racing a mutation get the before- or after-answer, nothing else.

    Unlike the phase-structured test above, queries here are *not* awaited
    before the mutation is submitted, so the dispatcher is free to order
    them on either side of the barrier — but every response must equal the
    twin's answer in one of the two catalog states."""

    async def scenario():
        database, served, twin_before = build_twins(seed=9005)
        pool = random_database(10005, num_graphs=2).graphs
        twin_after = GraphCatalog.build(
            database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=9005
        )
        twin_after.add_graph(pool[0])
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        query = extract_query(database.graphs[0].skeleton, 3, rng=77)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)
                mutator = ServiceClient(service)
                jobs = [
                    client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=seed)
                    for seed in (501, 502, 503)
                ]
                jobs.append(mutator.add_graph(pool[0]))
                responses = await asyncio.gather(*jobs)
                for seed, actual in zip((501, 502, 503), responses[:3]):
                    candidates = [
                        twin.query(
                            query,
                            PROBABILITY_THRESHOLD,
                            DISTANCE_THRESHOLD,
                            config=SEARCH_CONFIG,
                            rng=seed,
                        )
                        for twin in (twin_before, twin_after)
                    ]
                    assert answer_tuples(actual) in [
                        answer_tuples(candidate) for candidate in candidates
                    ], f"seed={seed} answers match neither catalog state"
        finally:
            served.close()
            twin_before.close()
            twin_after.close()

    asyncio.run(scenario())


def test_a_freed_lane_takes_the_queue_up_to_the_mutation():
    """Hold the lane, queue k same-group queries, a mutation and more
    queries, then release: the k queries run as one backend call, the
    mutation alone, the rest after it — and every answer is byte-identical
    to sequential calls in admission order."""
    k, later = 4, 3

    async def scenario():
        database, served, twin = build_twins(seed=9009)
        backend = GatedCatalog(served)
        queries = [
            extract_query(database.graphs[i % 3].skeleton, 3, rng=90 + i)
            for i in range(1 + k + later)
        ]
        seeds = [700 + i for i in range(len(queries))]
        try:
            config = ServiceConfig(search_config=SEARCH_CONFIG)
            async with QueryService(backend, config) as service:
                client = ServiceClient(service)

                def ask(i):
                    return asyncio.create_task(
                        client.query(
                            queries[i], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=seeds[i]
                        )
                    )

                jobs = [ask(0)]
                await backend.entered()  # query 0 holds the lane
                jobs += [ask(i) for i in range(1, 1 + k)]
                added = asyncio.create_task(client.add_graph(database.graphs[0]))
                jobs += [ask(i) for i in range(1 + k, len(queries))]
                await eventually(
                    lambda: service.health()["queue_depth"] == k + 1 + later, "the queue"
                )
                backend.open()
                served_results = await asyncio.gather(*jobs)
                assert (await added)["external_id"] == 6
                stats = await client.stats()
            assert backend.calls == [1, k, later]
            assert stats["batch"]["max_size"] == k
            # the mutation counts under mutations, not as a batch of one
            assert (stats["batch"]["count"], stats["counters"]["mutations"]) == (3, 1)
            assert stats["batch"]["mean_size"] == round((1 + k + later) / 3, 6)

            def sequential(i):
                return twin.query(
                    queries[i], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG, rng=seeds[i],
                )

            expected = [sequential(i) for i in range(1 + k)]
            crossed = [sequential(i) for i in range(1 + k, len(queries))]
            twin.add_graph(database.graphs[0])
            expected += [sequential(i) for i in range(1 + k, len(queries))]
            assert any(
                answer_tuples(a) != answer_tuples(b) for a, b in zip(crossed, expected[1 + k :])
            ), "the mutation must change an answer queued behind it"
            for index, (actual, want) in enumerate(zip(served_results, expected)):
                assert_result_parity(actual, want, f"request={index}")
        finally:
            backend.open()
            served.close()
            twin.close()

    asyncio.run(scenario())


def test_tcp_transport_byte_parity():
    """The NDJSON TCP path carries the same bytes as the in-process path.

    Concurrent coroutines pipeline over one connection; every decoded
    result must match the sequential twin exactly — JSON float round-trip
    (repr shortest form) makes this a true byte-parity check."""

    async def scenario():
        database, served, twin = build_twins(seed=9006)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                host, port = await service.serve_tcp()
                tcp = await TcpServiceClient().connect(host, port)
                try:
                    await run_and_compare(
                        tcp, twin, random_workload(database, seed=61, count=6), "tcp"
                    )
                finally:
                    await tcp.close()
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("transport", [ServiceClient, TcpServiceClient])
def test_every_client_call_sends_and_decodes_the_protocol_frames(transport):
    """The eight calls, one copy shared by both transports: each sends the
    frame the protocol defines and returns exactly what the service's
    response frame holds (decoded into a ``QueryResult`` for the two
    queries), and the answers and replies equal the library's on a twin."""

    async def scenario():
        database, served, twin = build_twins(seed=9009)
        arrivals = random_database(9010, num_graphs=2).graphs
        query = extract_query(database.graphs[2].skeleton, 3, rng=90)
        exchanged = []
        try:
            async with QueryService(served, ServiceConfig(search_config=SEARCH_CONFIG)) as service:
                submit = service.submit

                async def recording(frame):
                    response = await submit(frame)
                    exchanged.append((frame, response))
                    return response

                service.submit = recording  # what both the TCP handler and ServiceClient call
                if transport is TcpServiceClient:
                    client = await TcpServiceClient().connect(*await service.serve_tcp())
                else:
                    client = ServiceClient(service)
                try:
                    results = [
                        await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=5),
                        await client.query_top_k(query, 2, DISTANCE_THRESHOLD, rng=6),
                        await client.add_graph(arrivals[0]),
                        await client.update_graph(0, arrivals[1]),
                        await client.remove_graph(1),
                        await client.compact(),
                        await client.health(),
                        await client.stats(),
                    ]
                finally:
                    if transport is TcpServiceClient:
                        await client.close()
            expected_frames = [
                {
                    "op": "query",
                    "query": labeled_graph_to_dict(query),
                    "probability_threshold": PROBABILITY_THRESHOLD,
                    "distance_threshold": DISTANCE_THRESHOLD,
                    "rng": 5,
                },
                {
                    "op": "query_top_k",
                    "query": labeled_graph_to_dict(query),
                    "k": 2,
                    "distance_threshold": DISTANCE_THRESHOLD,
                    "rng": 6,
                },
                {"op": "add_graph", "graph": probabilistic_graph_to_dict(arrivals[0])},
                {
                    "op": "update_graph",
                    "external_id": 0,
                    "graph": probabilistic_graph_to_dict(arrivals[1]),
                },
                {"op": "remove_graph", "external_id": 1},
                {"op": "compact"},
                {"op": "health"},
                {"op": "stats"},
            ]
            wire = lambda value: json.loads(json.dumps(value))
            assert [wire(frame) for frame, _ in exchanged] == [
                wire({"id": number, **frame}) for number, frame in enumerate(expected_frames, 1)
            ]
            replies = [response["result"] for _, response in exchanged]
            for result, reply in zip(results[:2], replies):
                assert_result_parity(result, QueryResult.from_dict(reply), transport.__name__)
            assert results[2:] == replies[2:]

            assert_result_parity(
                results[0],
                twin.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=5),
                "query",
            )
            assert_result_parity(
                results[1],
                twin.query_top_k(query, 2, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=6),
                "top-k",
            )
            added = twin.add_graph(arrivals[0])
            assert results[2] == {
                "op": "add_graph", "external_id": added, "generation": twin.mutation_generation
            }
            twin.update_graph(0, arrivals[1])
            assert results[3] == {
                "op": "update_graph", "external_id": 0, "generation": twin.mutation_generation
            }
            twin.remove_graph(1)
            assert results[4] == {
                "op": "remove_graph", "external_id": 1, "generation": twin.mutation_generation
            }
            twin.compact()
            live = {"live_graphs": twin.num_live, "generation": twin.mutation_generation}
            assert results[5] == {"op": "compact", **live}
            assert results[6] == {"status": "ok", "queue_depth": 0, **live}
            assert results[7]["generation"] == twin.mutation_generation
            assert results[7]["counters"]["mutations"] == 4
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


def test_wide_support_requests_over_tcp_take_both_routes(wide_support_corpus):
    """Requests that verify some candidates exactly and sample the others,
    batched and shipped over the wire: answers and counters — ``sampled``
    among them — equal the sequential twin's."""

    async def scenario():
        graphs, queries = wide_support_corpus
        kwargs = dict(feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=9008)
        served = GraphCatalog.build(graphs, **kwargs)
        twin = GraphCatalog.build(graphs, **kwargs)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(served, config) as service:
                host, port = await service.serve_tcp()
                tcp = await TcpServiceClient().connect(host, port)
                try:
                    threshold = await asyncio.gather(
                        *[
                            tcp.query(query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, rng=81)
                            for query in queries
                        ]
                    )
                    top = await tcp.query_top_k(queries[0], 3, WIDE_SUPPORT_DISTANCE, rng=82)
                finally:
                    await tcp.close()
            for query, actual in zip(queries, threshold):
                expected = twin.query(
                    query, PROBABILITY_THRESHOLD, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=81
                )
                assert 0 < actual.statistics.sampled < actual.statistics.verified
                assert_result_parity(actual, expected, "wide support over tcp")
            assert 0 < top.statistics.sampled < top.statistics.verified
            assert answer_tuples(top) == answer_tuples(
                twin.query_top_k(
                    queries[0], 3, WIDE_SUPPORT_DISTANCE, config=SEARCH_CONFIG, rng=82
                )
            )
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())


def test_cached_answers_are_byte_identical():
    """A cache hit returns the exact payload of the original computation."""

    async def scenario():
        database, served, twin = build_twins(seed=9007)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        query = extract_query(database.graphs[1].skeleton, 3, rng=88)
        try:
            async with QueryService(served, config) as service:
                client = ServiceClient(service)
                first = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=42
                )
                assert client.last_response["cached"] is False
                second = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=42
                )
                assert client.last_response["cached"] is True
                assert answer_tuples(first) == answer_tuples(second)
                assert counter_dict(first.statistics) == counter_dict(second.statistics)
                expected = twin.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=42,
                )
                assert_result_parity(second, expected, "cached answer")
        finally:
            served.close()
            twin.close()

    asyncio.run(scenario())
