"""What planning and verifying a query costs, in counts (CI cannot assert
timings): edge tables built, joins issued, canonical forms computed and graphs
copied or built per query shape — the first plan of a shape pays them, a repeat
pays none — bytes a plan pickles to, feature enumerations per shape on a
catalog, matching passes per candidate block — one for the whole relaxed set,
the plan's variant family — and worlds drawn: none where every candidate's
support is narrow."""

from __future__ import annotations

import pickle
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from repro.core import (
    GraphCatalog,
    QueryPlanner,
    QueryStatistics,
    SearchConfig,
    VerificationConfig,
    pipeline,
    relaxation,
)
from repro.core.verification import Verifier
from repro.datasets import (
    PPIDatasetConfig,
    extract_query,
    generate_ppi_database,
    generate_query_workload,
)
from repro.graphs import LabeledGraph, VariantRows
from repro.isomorphism import generic_join
from repro.isomorphism.embeddings import (
    enumerate_embeddings_block,
    family_reroute_count,
    reset_family_reroute_count,
    reset_truncation_count,
    truncation_count,
)
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.pmi.features import Feature
from repro.probability import batch_kernel
from repro.structural.feature_index import SignaturePostings, StructuralFeatureIndex


CONFIG = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=40))
NUM_FEATURES = 16


@pytest.fixture(scope="module")
def graphs():
    config = PPIDatasetConfig(
        num_graphs=12,
        num_families=2,
        vertices_per_graph=10,
        edges_per_graph=13,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=31).graphs


def _build(graphs, num_shards=1):
    return GraphCatalog.build(
        graphs,
        num_shards=num_shards,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=NUM_FEATURES),
        bound_config=BoundConfig(num_samples=20),
        rng=17,
        max_workers=0,
    )


@pytest.fixture(scope="module")
def catalog(graphs):
    built = _build(graphs)
    assert len(built.features) == NUM_FEATURES
    yield built
    built.close()


@pytest.fixture
def six_edge_queries(graphs):
    """Fresh objects every test: nothing is memoised on them yet."""
    return generate_query_workload(graphs, query_size=6, num_queries=3, rng=5).queries()


@pytest.fixture(scope="module")
def larger_features(graphs, catalog):
    """Two- and three-edge features (cut out of the database, so they occur in
    its queries) beside the catalog's sixteen single edges."""
    first = len(catalog.features)
    return [
        Feature(first + offset, extract_query(graphs[offset].skeleton, size, rng=offset))
        for offset, size in enumerate((2, 2, 3, 3))
    ]


@pytest.fixture
def mixed_planner(catalog, larger_features):
    """A planner over no graphs: planning reads the features only."""
    features = [*catalog.features, *larger_features]
    structural = StructuralFeatureIndex.from_counts(
        features, np.zeros((0, len(features)), dtype=np.int32), SignaturePostings.build(())
    )
    return QueryPlanner([], ProbabilisticMatrixIndex().build([], features=features), structural)


def _cold(planner: QueryPlanner) -> QueryPlanner:
    """``planner``'s rows behind a plan cache of its own, still empty."""
    return QueryPlanner(
        planner.graphs,
        planner.pmi,
        planner.structural_index,
        graph_ids=planner.global_ids,
        active_mask=planner.active_mask,
    )


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestPlanCosts:
    def test_plan_builds_one_edge_table(
        self, catalog, mixed_planner, six_edge_queries, monkeypatch
    ):
        """At most one per query shape, the plan's copy of the query's: none
        while every feature is a single edge (its embeddings are read off the
        query's edge list), none when the shape was planned before, and no
        variant is built into a graph, let alone compiled.  The caller's
        query never carries one."""
        planner = _cold(catalog.planner())
        planner.plan(six_edge_queries[0], 0.5, 1, CONFIG)  # features and their plans warm
        built = _count_calls(monkeypatch, generic_join, "_build_edge_table")
        for query in six_edge_queries[1:]:
            plan = planner.plan(query, 0.5, 1, CONFIG)
            assert not built and "_generic_join_table" not in plan.query.__dict__
            assert plan.relaxed_queries.materialized_count() == 0
        for query in six_edge_queries[1:]:  # a feature with more edges is joined into the query
            del built[:]
            plan = mixed_planner.plan(query, 0.5, 1, CONFIG)
            assert [args[0] for args in built] == [query]
            assert built[0][0] is plan.query is not query
            assert "_generic_join_table" in plan.query.__dict__
            assert "_generic_join_table" not in query.__dict__
            del built[:]
            assert mixed_planner.plan_top_k(query, 2, 1, CONFIG).query is plan.query
            assert not built

    def test_plan_joins_each_feature_once(
        self, catalog, mixed_planner, larger_features, graphs, six_edge_queries, monkeypatch
    ):
        """... if it has more than one edge; a single-edge feature never."""
        planner = _cold(catalog.planner())
        joins = _count_calls(monkeypatch, generic_join, "_join")
        for query in six_edge_queries:
            plan = planner.plan(query, 0.5, 1, CONFIG)
            # five-edge variants: too large for any feature to contain
            assert len(plan.relaxed_queries) > 1 and not joins
        # single-edge variants fit a feature: one join each, over the stacked
        # features, of a variant built for it
        small = extract_query(graphs[0].skeleton, 2, rng=3)
        plan = planner.plan_top_k(small, 2, 1, CONFIG)
        assert 1 <= len(plan.relaxed_queries) <= 2
        assert len(joins) == plan.relaxed_queries.materialized_count() == len(plan.relaxed_queries)
        for query in six_edge_queries:
            del joins[:]
            mixed_planner.plan(query, 0.5, 1, CONFIG)
            assert [args[0] for args in joins] == [
                generic_join.compile_join_plan(feature.graph) for feature in larger_features
            ]

    def test_single_edge_embeddings_equal_the_join(
        self, catalog, larger_features, six_edge_queries
    ):
        """Read off the edge list or joined: the same enumeration (ids, edge
        sets, order, ``truncated``), a binding ``embedding_limit`` included."""
        features = [*catalog.features, *larger_features]
        empty = np.zeros((0, len(features)), dtype=np.int32)
        star = LabeledGraph.from_edges(  # five equal edges: a limit of 2 or 4 cuts them
            dict(enumerate("abbbbb")), [(0, leaf, "x") for leaf in range(1, 6)]
        )
        hub = Feature(len(features), LabeledGraph.from_edges({0: "a", 1: "b"}, [(0, 1, "x")]))
        for limit in (2, 4, 64, None):
            index = StructuralFeatureIndex.from_counts(
                features, empty, SignaturePostings.build(()), embedding_limit=limit
            )
            for query in six_edge_queries:
                found = index.query_embeddings(query)
                assert list(found) == [feature.feature_id for feature in features]
                for feature in features:
                    assert [found[feature.feature_id]] == enumerate_embeddings_block(
                        feature.graph, (query,), limit=limit
                    )
            index = StructuralFeatureIndex.from_counts(
                [hub], empty[:, :1], SignaturePostings.build(()), embedding_limit=limit
            )
            (found,) = index.query_embeddings(star).values()
            assert [found] == enumerate_embeddings_block(hub.graph, (star,), limit=limit)
            assert found.truncated == (limit in (2, 4))

    def test_pickled_plan_batch_is_small(self, catalog, six_edge_queries):
        planner = catalog.planner()
        for query in six_edge_queries:
            plan = planner.plan(query, 0.5, 1, CONFIG)
            assert plan.query.num_edges == 6 and plan.distance_threshold == 1
            batch = pickle.dumps(([plan], [12345]), protocol=pickle.HIGHEST_PROTOCOL)
            assert len(batch) <= 2560  # the relaxed set travels as masks (was <= 4096 as graphs)
            shipped = pickle.loads(batch)[0][0]
            # the query travels without the edge table planning hung on it
            assert shipped.query == plan.query
            assert "_generic_join_table" not in shipped.query.__dict__
            assert (shipped.profile, shipped.containment) == (plan.profile, plan.containment)
            # the relaxed set's rows go over the one pickled copy of the query; no graph
            # of a variant travels, and each is still there when it is indexed
            assert shipped.relaxed_queries.base is shipped.query
            assert shipped.relaxed_queries.materialized_count() == 0
            assert list(shipped.relaxed_queries) == list(plan.relaxed_queries)
            # ... and with the compiled relaxed set, so that nothing derives it again
            assert shipped.family.levels == plan.family.levels
            for name in ("edge_ends", "required", "degree", "seed"):
                assert np.array_equal(getattr(shipped.family, name), getattr(plan.family, name))

    def test_catalog_enumerates_once_per_query_shape(self, graphs, six_edge_queries, monkeypatch):
        """Once per (query, δ) a catalog has not planned before; a repeat —
        threshold or top-k, any threshold, any k — enumerates nothing."""
        enumerations = _count_calls(monkeypatch, StructuralFeatureIndex, "query_embeddings")
        with _build(graphs) as catalog:
            results = catalog.query_many(six_edge_queries, 0.3, 1, CONFIG, rng=7)
            assert len(enumerations) == len(six_edge_queries)
            assert [result.statistics.database_size for result in results] == [12] * 3
            del enumerations[:]
            catalog.query_many(six_edge_queries, 0.5, 1, CONFIG, rng=8)
            catalog.query_top_k(six_edge_queries[0], 2, 1, CONFIG, rng=7)
            assert not enumerations
            catalog.query_top_k(six_edge_queries[0], 2, 2, CONFIG, rng=7)
            assert len(enumerations) == 1


class TestVerificationCosts:
    """One family pass per candidate block; the CI gate for that gain."""

    @pytest.fixture
    def spies(self, monkeypatch):
        names = ("execute_variant_family", "compile_variant_family", "_build_join_plan", "_join")
        spies = {name: _count_calls(monkeypatch, generic_join, name) for name in names}
        # the planner and the verifier imported the compiler by name
        for module in ("repro.core.planner", "repro.core.verification"):
            monkeypatch.setattr(
                f"{module}.compile_variant_family", generic_join.compile_variant_family
            )
        spies["verify_block"] = _count_calls(monkeypatch, Verifier, "verify_block")
        return spies

    def test_threshold_query_runs_one_pass_per_candidate_block(
        self, catalog, six_edge_queries, spies
    ):
        planner = _cold(catalog.planner())
        for query in six_edge_queries:
            plan = planner.plan(query, 0.3, 1, CONFIG)
            assert len(spies["compile_variant_family"]) == 1  # once per query shape
            del spies["compile_variant_family"][:]
            assert planner.plan(query, 0.4, 1, CONFIG).family is plan.family
            assert not spies["compile_variant_family"]  # ... and not on a repeat
            for calls in spies.values():
                del calls[:]
            result = planner.execute_plan(plan, 7)
            blocks = len(spies["verify_block"])
            assert result.statistics.verified >= blocks >= 1
            assert len(spies["execute_variant_family"]) == blocks
            assert not spies["compile_variant_family"]  # and not at all in execute_plan
            # no relaxed variant is compiled or joined on its own
            assert not spies["_join"] and not spies["_build_join_plan"]

    def test_top_k_query_runs_one_pass_per_verified_candidate(
        self, graphs, six_edge_queries, spies
    ):
        """In-process: the top-k loop verifies a candidate when it reaches it."""
        with _build(graphs) as catalog:
            planner = catalog.planner()
            verified = 0
            for query in six_edge_queries:
                plan = planner.plan_top_k(query, 2, 2, CONFIG)
                for calls in spies.values():
                    del calls[:]
                result = planner.execute_plan(plan, 7)
                verified += result.statistics.verified
                assert len(spies["execute_variant_family"]) == result.statistics.verified
                assert all(len(args[2]) == 1 for args in spies["verify_block"])  # blocks of one
                assert not spies["compile_variant_family"]
        assert verified > len(six_edge_queries)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_top_k_runs_the_one_loop_once_per_plan(
        self, graphs, six_edge_queries, spies, monkeypatch, num_shards
    ):
        """``replay_top_k`` walks each top-k plan once over its candidates,
        and verifies each candidate it reaches as a block of one, whatever
        ``num_shards`` the catalog was given."""
        loops = _count_calls(monkeypatch, pipeline, "replay_top_k")
        with _build(graphs, num_shards) as catalog:
            planner = catalog.planner()
            plans = [planner.plan_top_k(query, 2, 2, CONFIG) for query in six_edge_queries]
            threshold = planner.plan(six_edge_queries[0], 0.3, 2, CONFIG)
            for plan in (threshold, *plans):
                planner.execute_plan(plan, 7)
            assert len(loops) == len(plans)
            del spies["verify_block"][:]
            for plan in plans:
                planner.execute_plan(plan, 7)
        widest = max(len(args[2]) for args in spies["verify_block"])
        assert widest == 1

    def test_hand_made_plan_derives_its_family(self, catalog, six_edge_queries, spies):
        planner = catalog.planner()
        plan = planner.plan(six_edge_queries[0], 0.3, 1, CONFIG)
        expected = planner.execute_plan(plan, 7)
        plan.family = None
        for calls in spies.values():
            del calls[:]
        derived = planner.execute_plan(plan, 7)
        assert derived.answers == expected.answers
        assert len(spies["compile_variant_family"]) == len(spies["verify_block"]) >= 1


E2E_WORKLOADS = ["verify_heavy", "filter_heavy", "service_mixed", "catalog_churn"]


def _e2e_smoke_catalog(workload):
    """The e2e corpus and request stream themselves (importable under the tier-1
    command, run from the root), on an in-process catalog."""
    from benchmarks.e2e import corpus as e2e

    corpus = e2e.build_corpus(workload, smoke=True)
    catalog = GraphCatalog.build(
        corpus.graphs,
        feature_config=e2e.FEATURE_CONFIG,
        bound_config=e2e.BOUND_CONFIG,
        rng=e2e.BUILD_SEED,
    )
    return corpus, catalog, e2e.build_requests(corpus, seed=7)


@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_no_block_rerun_on_the_e2e_smoke_corpora(workload, monkeypatch):
    from benchmarks.e2e.workloads import call

    corpus, catalog, requests = _e2e_smoke_catalog(workload)
    profile = corpus.profile
    with catalog as built:
        reset_family_reroute_count()
        reset_truncation_count()
        draws = _count_calls(monkeypatch, batch_kernel, "_draw_worlds")  # the build is over
        variants = _count_calls(monkeypatch, VariantRows, "__getitem__")
        counted = _count_calls(monkeypatch, LabeledGraph, "edge_signature_counts")
        stored = {id(graph.skeleton) for _, graph in built.live_items()}
        verified = sampled = 0
        for request in requests:
            result = call(built, request, profile.delta, profile.search_config)
            verified += result.statistics.verified
            sampled += result.statistics.sampled
    assert verified > 0
    # the signature bound is read off the index: no stored graph asked for its
    # signature counts (queries are); the scalar bound lives in repro.reference,
    # which no production module imports (test_reference_boundary)
    assert counted
    assert not [graph for (graph,) in counted if id(graph) in stored]
    assert family_reroute_count() == 0 and truncation_count() == 0
    # ... so nothing indexes the relaxed set: a pass builds no graph of a variant
    assert not variants
    # every support of these corpora fits the kernel's exact enumeration
    assert sampled == 0 and not draws


def _colliding_subsets(query: LabeledGraph, delta: int) -> int:
    """How many δ-deletions of ``query`` share their invariant — the deleted
    edge signatures and the (label, degree) pairs of the vertices left with an
    edge — with another one: the members ``relax_query`` must canonicalise."""
    edges = list(query.edge_keys())
    groups = Counter()
    for deleted in combinations(edges, delta):
        degrees = Counter(vertex for key in edges if key not in deleted for vertex in key)
        groups[
            frozenset(Counter(map(query.edge_signature, deleted)).items()),
            frozenset(Counter((query.vertex_label(v), d) for v, d in degrees.items()).items()),
        ] += 1
    return sum(size for size in groups.values() if size > 1)


@pytest.mark.parametrize("workload", E2E_WORKLOADS)
def test_plan_canonicalises_only_colliding_variants(workload, monkeypatch):
    """``canonical_form`` runs inside invariant collisions only — never for a
    query whose edge signatures are all distinct, never for a shape planned
    before — and no δ-subset copies a graph (the plan cache's frozen copy of
    the query is built without ``copy()``)."""
    corpus, catalog, requests = _e2e_smoke_catalog(workload)
    delta, config = corpus.profile.delta, corpus.profile.search_config
    with catalog as built:
        planner = built.planner()
        forms = _count_calls(monkeypatch, relaxation, "canonical_form")
        copies = _count_calls(monkeypatch, LabeledGraph, "copy")
        per_template, planned = {}, set()
        for request in (*requests, *requests):  # the second pass repeats every shape
            del forms[:]
            if request.kind == "query":
                plan = planner.plan(request.query, request.param, delta, config)
            else:
                plan = planner.plan_top_k(request.query, int(request.param), delta, config)
            repeat = id(plan.query) in planned
            planned.add(id(plan.query))
            assert len(forms) == (0 if repeat else _colliding_subsets(request.query, delta))
            assert plan.relaxed_queries.materialized_count() == 0
            per_template.setdefault(request.query.name, len(forms))
        stats = built.plan_cache_stats()
    assert stats["entries"] == len(planned) == stats["misses"] <= len(requests)
    assert stats["hits"] == 2 * len(requests) - len(planned)
    assert not copies
    if workload == "verify_heavy":  # four edges, four signatures: nothing to tell apart
        query = next(q for _, q, _ in corpus.templates if q.name == "q4-001")
        assert len(set(map(query.edge_signature, query.edge_keys()))) == query.num_edges == 4
        assert per_template["q4-001"] == 0 and max(per_template.values()) > 0


def test_statistics_without_the_sampled_key_still_parse():
    """A peer that predates the counter sends no ``sampled``: it reads 0."""
    payload = QueryStatistics(verified=3, sampled=2).as_dict()
    assert QueryStatistics.from_dict(payload).sampled == 2
    del payload["sampled"]
    parsed = QueryStatistics.from_dict(payload)
    assert (parsed.verified, parsed.sampled) == (3, 0)
