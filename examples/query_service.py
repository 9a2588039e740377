"""Query-service walkthrough: an always-on server over a live catalog.

Run with:  python examples/query_service.py

Demonstrates the full serving lifecycle:

1. build a `GraphCatalog` and stand up a `QueryService` on it — an asyncio
   front end that coalesces concurrent requests into `query_many`
   micro-batches without changing a single answer byte,
2. fire concurrent seeded queries from many client coroutines (in-process
   and over the NDJSON TCP transport) and show they match sequential
   library-mode answers exactly,
3. repeat a seeded query to hit the answer cache, then mutate the catalog
   *through the service* and show the cache invalidates (the catalog's
   mutation generation is part of every cache key),
4. overload a tiny admission queue and miss a deadline to show the typed
   error codes clients can branch on,
5. drain gracefully: queued work completes, new work is refused.
"""

from __future__ import annotations

import asyncio

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.exceptions import ServiceError
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import QueryService, ServiceClient, ServiceConfig, TcpServiceClient

FEATURE_CONFIG = FeatureSelectionConfig(max_vertices=3, max_features=12)
BOUND_CONFIG = BoundConfig(num_samples=100)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=300)
)


def show(label: str, result) -> None:
    print(f"{label}: {[(a.graph_id, round(a.probability, 3)) for a in result.answers]}")


async def main() -> None:
    dataset = generate_ppi_database(
        PPIDatasetConfig(num_graphs=10, vertices_per_graph=12, edges_per_graph=15), rng=3
    )
    arrivals = generate_ppi_database(
        PPIDatasetConfig(num_graphs=2, vertices_per_graph=12, edges_per_graph=15), rng=8
    )
    queries = generate_query_workload(
        dataset.graphs, query_size=3, num_queries=3, rng=3
    ).queries()

    catalog = GraphCatalog.build(
        dataset.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=3
    )
    # A twin queried sequentially in library mode: the parity reference.
    twin = GraphCatalog.build(
        dataset.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=3
    )

    # 1. Stand the service up.  Whenever its lane frees up, the dispatcher
    # coalesces the queued requests of one kind into one backend call of at
    # most max_batch_size requests; it never waits for more to arrive.
    config = ServiceConfig(max_batch_size=16, search_config=SEARCH_CONFIG)
    async with QueryService(catalog, config) as service:
        client = ServiceClient(service)

        # 2. Concurrent seeded queries — answers are byte-identical to
        # sequential library-mode calls with the same seeds, no matter how
        # the dispatcher grouped them into micro-batches.
        results = await asyncio.gather(
            *[client.query(query, 0.4, 1, rng=100 + i) for i, query in enumerate(queries)]
        )
        for i, (query, result) in enumerate(zip(queries, results)):
            expected = twin.query(query, 0.4, 1, config=SEARCH_CONFIG, rng=100 + i)
            assert [(a.graph_id, a.probability) for a in result.answers] == [
                (a.graph_id, a.probability) for a in expected.answers
            ]
            show(f"query {i} (service == library)", result)
        stats = await client.stats()
        print(
            f"dispatcher formed {stats['counters']['batches']} micro-batches, "
            f"mean size {stats['batch']['mean_size']}"
        )

        # ... the same bytes flow over TCP (NDJSON, one frame per line).
        host, port = await service.serve_tcp()
        tcp = await TcpServiceClient().connect(host, port)
        over_the_wire = await tcp.query(queries[0], 0.4, 1, rng=100)
        assert [(a.graph_id, a.probability) for a in over_the_wire.answers] == [
            (a.graph_id, a.probability) for a in results[0].answers
        ]
        print(f"TCP client on port {port} got the identical answer bytes")
        await tcp.close()

        # 3. The answer cache: a repeated seeded request is a hit; routing a
        # mutation through the service bumps the catalog generation, which
        # both invalidates the cache and re-keys every future lookup.
        await client.query(queries[0], 0.4, 1, rng=100)
        print(f"repeat of query 0: cached={client.last_response['cached']}")
        added = await client.add_graph(arrivals.graphs[0])
        print(f"added graph -> external id {added['external_id']}, generation {added['generation']}")
        fresh = await client.query(queries[0], 0.4, 1, rng=100)
        print(f"after mutation: cached={client.last_response['cached']}")
        twin.add_graph(arrivals.graphs[0])
        expected = twin.query(queries[0], 0.4, 1, config=SEARCH_CONFIG, rng=100)
        assert [(a.graph_id, a.probability) for a in fresh.answers] == [
            (a.graph_id, a.probability) for a in expected.answers
        ]

        # 4. Typed failures: deadlines and admission control.
        try:
            await client.query(queries[1], 0.4, 1, rng=101, deadline=0.000001)
        except ServiceError as error:
            print(f"hopeless deadline -> {error.code}")
        health = await client.health()
        print(f"health: {health['status']}, {health['live_graphs']} live graphs")

    # 5. Leaving the `async with` drained the service: queued work finished,
    # and anything submitted now is refused with a typed code.
    try:
        await ServiceClient(service).query(queries[0], 0.4, 1, rng=100)
    except ServiceError as error:
        print(f"after drain -> {error.code}")

    catalog.close()
    twin.close()


if __name__ == "__main__":
    asyncio.run(main())
