"""The plan cache: a query shape is planned once per catalog.

What a plan derives from the query alone (relaxed set, containment, count
profile, variant family) is cached per catalog, keyed on the query as given.
Under test here: a hit answers exactly as a miss and as a fresh dense planner;
a query mutated after planning is a new shape; entries survive every mutation
and compaction, and a reopened catalog starts empty; a query that cannot be
keyed plans uncached; threads planning one shape share one; the capacity
evicts; a bad ``config`` is a :class:`ConfigurationError`; and answers do not
depend on the order a query's vertices, edges and endpoints were inserted in.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys
import threading

import pytest

from test_catalog_parity import (
    BOUND_CONFIG,
    DISTANCE_THRESHOLD,
    FEATURE_CONFIG,
    PROBABILITY_THRESHOLD,
    SEARCH_CONFIG,
    answer_tuples,
    counter_dict,
    random_database,
    rebuild_from_scratch,
)
from test_sharding_parity import random_workload

from repro.core import (
    GraphCatalog,
    PruningConfig,
    QueryPlanner,
    RelaxationConfig,
    SearchConfig,
    VerificationConfig,
    planner as planner_module,
)
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.exceptions import ConfigurationError, GraphError
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, FeatureSelectionConfig

from tests.conftest import build_index

SEED = 4409
MUTATIONS = ("add", "remove", "update", "compact")
# what LabeledGraph.__init__ puts in a graph's __dict__: no memo slot
BARE_GRAPH_SLOTS = {"name", "_vertex_labels", "_adjacency", "_edge_labels", "_version"}


@pytest.fixture(scope="module")
def database():
    return random_database(SEED, num_graphs=9)


@pytest.fixture(scope="module")
def indexed(database):
    return build_index(database.graphs, FEATURE_CONFIG, BOUND_CONFIG, rng=SEED)


@pytest.fixture(scope="module")
def queries(database):
    return random_workload(database, seed=SEED + 1, num_queries=3)


def catalog_over(indexed) -> GraphCatalog:
    """A catalog over the module's indexes with a plan cache of its own."""
    return GraphCatalog.from_index(indexed.graphs, indexed.pmi, indexed.structural_index)


def result_of(target, query, k=None, config=SEARCH_CONFIG):
    """One threshold (``k`` None) or top-k request to a catalog or a planner."""
    if k is None:
        return target.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config, rng=SEED)
    return target.query_top_k(query, k, DISTANCE_THRESHOLD, config, rng=SEED)


def as_bytes(result) -> bytes:
    """Answers and counters (no ``*_seconds``), pickled."""
    return pickle.dumps((answer_tuples(result), counter_dict(result.statistics)))


def outcome(target, query, k=None, config=SEARCH_CONFIG) -> bytes:
    return as_bytes(result_of(target, query, k, config))


def stats(**counts) -> dict:
    return {"hits": 0, "misses": 0, "entries": 0, "evictions": 0, **counts}


class TestHitsAndMisses:
    @pytest.mark.parametrize("k", [None, 1, 2, 4])
    def test_a_hit_and_a_miss_answer_as_a_fresh_planner(self, indexed, queries, k):
        catalog = catalog_over(indexed)
        for query in queries:
            fresh = outcome(indexed.planner(), query, k)
            assert outcome(catalog, query, k) == fresh  # a miss
            assert outcome(catalog, query, k) == fresh  # a hit
        count = len(queries)
        assert catalog.plan_cache_stats() == stats(hits=count, misses=count, entries=count)

    def test_a_shape_is_shared_by_thresholds_modes_and_configs(self, indexed, queries):
        """The key is the query, δ and the relaxation config: a new threshold,
        ``k``, mode, pruning or verification config plans on the same shape."""
        planner = catalog_over(indexed).planner()
        query = queries[0]
        plan = planner.plan(query, 0.3, 1, SEARCH_CONFIG)
        others = [
            planner.plan(query, 0.7, 1),
            planner.plan_top_k(query, 3, 1, SEARCH_CONFIG),
            planner.plan(query, 0.3, 1, SearchConfig(pruning=PruningConfig(optimal_usim=False))),
            planner.plan(
                query, 0.3, 1, SearchConfig(verification=VerificationConfig(num_samples=5))
            ),
        ]
        for other in others:
            assert (other.query, other.relaxed_queries, other.family) == (
                plan.query,
                plan.relaxed_queries,
                plan.family,
            )
            assert other.containment is plan.containment and other.profile is plan.profile
        assert planner.plan_cache.stats() == stats(hits=4, misses=1, entries=1)
        # a narrower relaxed set is another shape
        capped = planner.plan(query, 0.3, 1, SearchConfig(relaxation=RelaxationConfig(1)))
        assert len(capped.relaxed_queries) == 1 and capped.query is not plan.query
        assert planner.plan_cache.stats()["entries"] == 2

    def test_a_query_mutated_after_planning_misses(self, indexed, queries):
        """The cache holds a copy: the caller's graph is neither held nor
        memoised on, and once mutated it is a new shape."""
        catalog = catalog_over(indexed)
        query = queries[0].copy()
        plan = catalog.planner().plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
        outcome(catalog, query)
        assert plan.query == query and plan.query is not query
        assert set(query.__dict__) == BARE_GRAPH_SLOTS
        u, v = next(query.edge_keys())
        query.add_edge(u, v, "relabelled")
        assert outcome(catalog, query) == outcome(indexed.planner(), query)
        assert catalog.plan_cache_stats() == stats(hits=1, misses=2, entries=2)
        assert plan.query != query and plan.query.edge_label(u, v) != "relabelled"
        assert set(query.__dict__) == BARE_GRAPH_SLOTS
        # the copy every request of the shape shares refuses to be edited ...
        with pytest.raises(GraphError, match="copy"):
            plan.query.add_edge(u, v, "relabelled")
        # ... and gives an editable graph when copied
        edited = plan.query.copy()
        edited.add_edge(u, v, "relabelled")
        assert edited == query

    def test_queries_differing_only_in_name_share_a_shape(self, indexed, queries):
        planner = catalog_over(indexed).planner()
        renamed = queries[1].copy(name="renamed")
        plan = planner.plan(queries[1], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
        again = planner.plan(renamed, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
        assert again.query is plan.query and plan.query.name is None

    def test_labels_that_compare_equal_across_types_are_other_shapes(self, indexed):
        """``1``, ``1.0`` and ``True`` are equal dict keys but print, and so
        canonicalise and sign, differently: each is its own shape."""
        planner = catalog_over(indexed).planner()
        plans = []
        for label in (1, 1.0, True):
            query = LabeledGraph.from_edges({0: label, 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "y")])
            plans.append(planner.plan(query, PROBABILITY_THRESHOLD, 1))
        assert [plan.query.vertex_label(0) for plan in plans] == [1, 1.0, True]
        assert [type(plan.query.vertex_label(0)) for plan in plans] == [int, float, bool]
        assert planner.plan_cache.stats() == stats(misses=3, entries=3)

    def test_an_unhashable_label_plans_uncached(self, indexed, queries):
        catalog = catalog_over(indexed)
        query = queries[0].copy()
        vertex = next(query.vertices())
        query.add_vertex(vertex, ["unhashable"])
        first = catalog.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=SEED)
        assert first.answers == []
        assert outcome(catalog, query) == outcome(indexed.planner(), query)
        assert catalog.plan_cache_stats() == stats(misses=2)
        assert set(query.__dict__) == BARE_GRAPH_SLOTS

    def test_the_capacity_evicts_the_least_recently_used(self, indexed, queries, monkeypatch):
        monkeypatch.setattr(planner_module, "PLAN_CACHE_CAPACITY", 2)
        catalog = catalog_over(indexed)
        expected = [outcome(indexed.planner(), query) for query in queries]
        assert [outcome(catalog, query) for query in queries] == expected
        assert catalog.plan_cache_stats() == stats(misses=3, entries=2, evictions=1)
        assert outcome(catalog, queries[2]) == expected[2]  # still held
        assert outcome(catalog, queries[0]) == expected[0]  # evicted: planned again
        assert catalog.plan_cache_stats() == stats(hits=1, misses=4, entries=2, evictions=2)

    def test_threads_planning_one_shape_get_identical_plans(self, indexed, queries):
        planner = catalog_over(indexed).planner()
        query, count = queries[2], 8
        start = threading.Barrier(count)
        plans = [None] * count

        def plan(slot):
            start.wait(timeout=60)
            plans[slot] = planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan, args=(slot,)) for slot in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(plan.query is plans[0].query for plan in plans)
        assert all(plan.family is plans[0].family for plan in plans)
        assert len({pickle.dumps(plan) for plan in plans}) == 1
        counts = planner.plan_cache.stats()
        assert counts["entries"] == 1 and counts["hits"] + counts["misses"] == count
        fresh = indexed.planner().plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD)
        assert pickle.dumps(fresh) == pickle.dumps(plans[0])


class TestCatalogLifetime:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_entries_survive_a_mutation(self, database, queries, mutation):
        spare = random_database(SEED + 2, num_graphs=2).graphs
        catalog = GraphCatalog.build(
            database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED
        )
        for query in queries:
            outcome(catalog, query)
        if mutation == "add":
            catalog.add_graph(spare[0])
        elif mutation == "remove":
            catalog.remove_graph(3)
        elif mutation == "update":
            catalog.update_graph(5, spare[1])
        else:
            catalog.remove_graph(1)
            catalog.compact()
        reference = rebuild_from_scratch(catalog)
        for k in (None, 2):
            for query in queries:
                assert outcome(catalog, query, k) == outcome(reference, query, k), mutation
        count = len(queries)
        assert catalog.plan_cache_stats() == stats(hits=2 * count, misses=count, entries=count)
        catalog.close()

    def test_a_reopened_catalog_starts_with_an_empty_cache(self, database, queries, tmp_path):
        catalog = GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=SEED,
            directory=tmp_path / "catalog",
        )
        before = [outcome(catalog, query) for query in queries]
        catalog.close()
        assert catalog.plan_cache_stats()["entries"] == len(queries)  # close keeps it
        with GraphCatalog.open(tmp_path / "catalog") as reopened:
            assert reopened.plan_cache_stats() == stats()
            assert [outcome(reopened, query) for query in queries] == before


class TestConfigType:
    @pytest.mark.parametrize("config", ["x", {}, RelaxationConfig(), 0])
    def test_a_config_that_is_no_search_config_is_refused(self, indexed, queries, config):
        catalog = catalog_over(indexed)
        query = queries[0]
        with pytest.raises(ConfigurationError, match="SearchConfig"):
            catalog.query(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=config)
        with pytest.raises(ConfigurationError, match="SearchConfig"):
            catalog.query_top_k_many([query], 2, DISTANCE_THRESHOLD, config=config)
        with pytest.raises(ConfigurationError, match="SearchConfig"):
            QueryPlanner(indexed.graphs, indexed.pmi, indexed.structural_index).plan(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config
            )
        assert catalog.plan_cache_stats() == stats()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("relaxation", None),
            ("relaxation", {"max_variants": 4}),
            ("pruning", "optimal"),
            ("verification", RelaxationConfig()),
        ],
    )
    def test_a_search_config_field_of_another_type_is_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=f"SearchConfig.{field}"):
            SearchConfig(**{field: value})
        # ... and no field can be swapped for one after construction
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(SearchConfig(), field, value)


# ----------------------------------------------------------------------
# insertion order: answers depend on the query's graph, not on how it was built
# ----------------------------------------------------------------------
ORDER_K = 4
SHUFFLES_PER_QUERY = 4


@pytest.fixture(scope="module")
def sampling_corpus():
    """``(catalog, queries, config)``: 80 graphs over 3 vertex labels, dense
    enough that some candidates' supports are too wide for the exact sum and
    verification samples."""
    config = PPIDatasetConfig(
        num_graphs=80,
        num_families=3,
        vertices_per_graph=12,
        edges_per_graph=40,
        num_vertex_labels=3,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.8,
        probability_spread=0.15,
    )
    graphs = generate_ppi_database(config, rng=3).graphs
    catalog = GraphCatalog.build(
        graphs,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=10),
        bound_config=BoundConfig(num_samples=20),
        rng=5,
    )
    queries = generate_query_workload(graphs, query_size=6, num_queries=6, rng=2).queries()
    search = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=60))
    yield catalog, queries, search
    catalog.close()


def shuffled(query: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """``query`` rebuilt with its vertices, its edges and each edge's two
    endpoints inserted in a random order."""
    vertices = list(query.vertices())
    edges = [(edge.u, edge.v, edge.label) for edge in query.edges()]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    rebuilt = LabeledGraph(name=query.name)
    for vertex in vertices:
        rebuilt.add_vertex(vertex, query.vertex_label(vertex))
    for u, v, label in edges:
        rebuilt.add_edge(*((v, u) if rng.random() < 0.5 else (u, v)), label)
    return rebuilt


def test_answers_do_not_depend_on_the_query_insertion_order(sampling_corpus):
    """Threshold (ε = 0.3) and top-k answers and counters of a shuffled query
    are the original's, pickle for pickle, at δ = 1.  The service's answer
    cache keys on the sorted form and relies on this; the plan cache keys on
    the order as given, so every shuffle is planned afresh."""
    catalog, queries, search = sampling_corpus
    rng = random.Random(SEED)
    sampled = 0
    for query in queries:
        results = [result_of(catalog, query, k, search) for k in (None, ORDER_K)]
        sampled += sum(result.statistics.sampled for result in results)
        expected = [as_bytes(result) for result in results]
        for _ in range(SHUFFLES_PER_QUERY):
            other = shuffled(query, rng)
            assert other == query
            got = [outcome(catalog, other, k, search) for k in (None, ORDER_K)]
            assert got == expected, query.name
    assert sampled > 0  # the corpus exercises the sampler, not only the exact sum
    assert catalog.plan_cache_stats()["entries"] > len(queries)
