"""Answer-cache correctness: accounting, invalidation, staleness.

The cache may only ever change *latency*, never *bytes*: a hit must return
the exact payload of the original computation, every mutation op must
invalidate, and — the regression pinned at the bottom — a stale-generation
answer must never be served after the catalog hot-swaps under the service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import AnswerCache, QueryService, ServiceClient, ServiceConfig
from repro.service.protocol import canonical_query_key

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
BOUND_CONFIG = BoundConfig(num_samples=40)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)


def build_catalog(seed: int, num_graphs: int = 6):
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
    )
    return database, catalog


def answer_tuples(result):
    return [
        (a.graph_id, a.graph_name, a.probability, a.decided_by)
        for a in result.answers
    ]


# ----------------------------------------------------------------------
# AnswerCache unit behavior
# ----------------------------------------------------------------------
class TestAnswerCacheUnit:
    def test_hit_miss_and_eviction_accounting(self):
        cache = AnswerCache(max_entries=2)
        assert cache.get(("a",)) is None
        cache.put(("a",), {"n": 1})
        cache.put(("b",), {"n": 2})
        assert cache.get(("a",)) == {"n": 1}
        cache.put(("c",), {"n": 3})  # evicts LRU entry ("b")
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) == {"n": 3}
        stats = cache.stats.as_dict()
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["evictions"] == 1
        assert stats["hit_rate"] == 0.5

    def test_none_key_is_uncacheable(self):
        cache = AnswerCache(max_entries=4)
        cache.put(None, {"n": 1})
        assert len(cache) == 0
        assert cache.get(None) is None
        assert cache.stats.misses == 1

    def test_invalidate_clears_and_counts(self):
        cache = AnswerCache(max_entries=4)
        cache.put(("a",), {"n": 1})
        cache.put(("b",), {"n": 2})
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.get(("a",)) is None
        stats = cache.stats.as_dict()
        assert stats["invalidations"] == 1
        assert stats["entries_invalidated"] == 2

    def test_zero_capacity_disables_storage(self):
        cache = AnswerCache(max_entries=0)
        cache.put(("a",), {"n": 1})
        assert cache.get(("a",)) is None

    def test_canonical_key_ignores_query_name(self):
        database, catalog = build_catalog(seed=8000)
        catalog.close()
        query = extract_query(database.graphs[0].skeleton, 3, rng=1)
        twin = extract_query(database.graphs[0].skeleton, 3, rng=1)
        twin.name = "a-different-display-name"
        assert canonical_query_key(query) == canonical_query_key(twin)


# ----------------------------------------------------------------------
# service-level accounting
# ----------------------------------------------------------------------
def test_hit_miss_accounting_through_the_service():
    async def scenario():
        database, catalog = build_catalog(seed=8001)
        query = extract_query(database.graphs[0].skeleton, 3, rng=2)
        other = extract_query(database.graphs[1].skeleton, 3, rng=3)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=10)
                assert client.last_response["cached"] is False
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=10)
                assert client.last_response["cached"] is True
                # same query, different seed → different streams → miss
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=11)
                assert client.last_response["cached"] is False
                # different query graph → miss
                await client.query(other, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=10)
                assert client.last_response["cached"] is False
                # threshold participates in the key (different group) → miss
                await client.query(query, 0.5, DISTANCE_THRESHOLD, rng=10)
                assert client.last_response["cached"] is False
                # top-k and threshold answers never alias
                await client.query_top_k(query, 2, DISTANCE_THRESHOLD, rng=10)
                assert client.last_response["cached"] is False
                stats = await client.stats()
                assert stats["cache"]["hits"] == 1
                assert stats["cache"]["misses"] == 5
                assert stats["counters"]["cached"] == 1
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_unseeded_requests_bypass_the_cache():
    async def scenario():
        database, catalog = build_catalog(seed=8002)
        query = extract_query(database.graphs[2].skeleton, 3, rng=4)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
                assert client.last_response["cached"] is False
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
                assert client.last_response["cached"] is False
                stats = await client.stats()
                assert stats["cache"]["hits"] == 0
                assert stats["cache"]["entries"] == 0
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_stats_report_the_plan_cache_beside_the_answer_cache():
    """Unseeded requests bypass the answer cache, but the catalog plans their
    shape once: the second is a plan-cache hit."""

    async def scenario():
        database, catalog = build_catalog(seed=8003)
        query = extract_query(database.graphs[1].skeleton, 3, rng=5)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                for _ in range(2):
                    await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
                stats = await client.stats()
                assert stats["cache"]["hits"] == 0
                assert stats["plan_cache"] == {"hits": 1, "misses": 1, "entries": 1, "evictions": 0}
                assert stats["plan_cache"] == catalog.plan_cache_stats()
        finally:
            catalog.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("mutation", ["add", "remove", "update", "compact"])
def test_every_mutation_op_invalidates(mutation):
    """After any mutation through the service, the next identical request is
    a miss (and is recomputed against the new catalog state)."""

    async def scenario():
        database, catalog = build_catalog(seed=8003)
        pool = generate_ppi_database(
            PPIDatasetConfig(
                num_graphs=2,
                num_families=1,
                vertices_per_graph=8,
                edges_per_graph=9,
                motif_vertices=3,
                motif_edges=3,
                mean_edge_probability=0.6,
                probability_spread=0.2,
            ),
            rng=9003,
        ).graphs
        query = extract_query(database.graphs[0].skeleton, 3, rng=5)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=12)
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=12)
                assert client.last_response["cached"] is True

                if mutation == "add":
                    await client.add_graph(pool[0])
                elif mutation == "remove":
                    await client.remove_graph(0)
                elif mutation == "update":
                    await client.update_graph(0, pool[0])
                else:
                    await client.compact()

                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=12)
                assert client.last_response["cached"] is False, (
                    f"{mutation} failed to invalidate the answer cache"
                )
                stats = await client.stats()
                assert stats["cache"]["invalidations"] >= 1
        finally:
            catalog.close()

    asyncio.run(scenario())


def test_stale_generation_answer_never_served_after_hot_swap():
    """Regression: an update that *changes the answer* under the same seed
    must surface the new answer immediately — the cached pre-swap payload is
    unreachable because the catalog generation is part of the cache key.

    Target graph 0 is replaced by a single disconnected edge with labels
    absent from the query, so the updated catalog must drop it from the
    answer set if it was ever an answer (and the twin proves the expected
    post-swap bytes either way)."""

    async def scenario():
        from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph
        from repro.probability import JointProbabilityTable

        database, catalog = build_catalog(seed=8004)
        twin = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=8004,
        )
        query = extract_query(database.graphs[0].skeleton, 3, rng=6)

        skeleton = LabeledGraph(name="husk")
        skeleton.add_vertex(0, "zz")
        skeleton.add_vertex(1, "zz")
        skeleton.add_edge(0, 1, "zz")
        jpt = JointProbabilityTable.from_max_dominance({(0, 1): 0.5})
        husk = ProbabilisticGraph(skeleton, [NeighborEdgeFactor(((0, 1),), jpt)], name="husk")

        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                before = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=13
                )
                await client.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=13)
                assert client.last_response["cached"] is True

                await client.update_graph(0, husk)
                twin.update_graph(0, husk)

                after = await client.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=13
                )
                assert client.last_response["cached"] is False
                expected = twin.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=13,
                )
                assert answer_tuples(after) == answer_tuples(expected)
                assert 0 not in {a.graph_id for a in after.answers}, (
                    "the husk graph cannot satisfy the query; graph 0 in the "
                    "answers means a stale pre-swap payload was served"
                )
                # sanity: the regression is only meaningful if graph 0 could
                # have been cached as an answer before the swap
                if 0 in {a.graph_id for a in before.answers}:
                    assert answer_tuples(before) != answer_tuples(after)
        finally:
            catalog.close()
            twin.close()

    asyncio.run(scenario())


def test_batched_requests_share_cache_entries():
    """A micro-batch mixing hits and misses executes only the misses."""

    async def scenario():
        database, catalog = build_catalog(seed=8005)
        query_a = extract_query(database.graphs[0].skeleton, 3, rng=7)
        query_b = extract_query(database.graphs[1].skeleton, 3, rng=8)
        config = ServiceConfig(search_config=SEARCH_CONFIG)
        try:
            async with QueryService(catalog, config) as service:
                client = ServiceClient(service)
                # Prime query_a's entry.
                primed = await client.query(
                    query_a, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=14
                )
                # Fire a+b concurrently: same group, one hit + one miss batch.
                hit_client = ServiceClient(service)
                miss_client = ServiceClient(service)
                hit, miss = await asyncio.gather(
                    hit_client.query(query_a, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=14),
                    miss_client.query(query_b, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=15),
                )
                assert answer_tuples(hit) == answer_tuples(primed)
                stats = await client.stats()
                assert stats["cache"]["hits"] >= 1
                assert stats["cache"]["entries"] == 2
        finally:
            catalog.close()

    asyncio.run(scenario())
