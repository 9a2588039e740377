"""What planning and verifying a query costs, in counts (CI cannot assert
timings): edge tables built, joins issued, bytes a fan-out ships per plan,
feature enumerations per query on a sharded catalog, matching passes per
candidate block — one for the whole relaxed set, the plan's variant family —
and worlds drawn: none where every candidate's support is narrow."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import GraphCatalog, QueryStatistics, SearchConfig, VerificationConfig
from repro.core.verification import Verifier
from repro.datasets import (
    PPIDatasetConfig,
    extract_query,
    generate_ppi_database,
    generate_query_workload,
)
from repro.isomorphism import generic_join
from repro.isomorphism.embeddings import (
    family_reroute_count,
    reset_family_reroute_count,
    reset_truncation_count,
    truncation_count,
)
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.probability import batch_kernel
from repro.structural.feature_index import StructuralFeatureIndex

from tests.conftest import WIDE_SUPPORT_DISTANCE

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


@pytest.fixture(scope="module")
def catalog(graphs):
    built = GraphCatalog.build(
        graphs,
        num_shards=2,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=NUM_FEATURES),
        bound_config=BoundConfig(num_samples=20),
        rng=17,
        max_workers=0,
    )
    assert len(built.features) == NUM_FEATURES
    yield built
    built.close()


@pytest.fixture
def six_edge_queries(graphs):
    """Fresh objects every test: nothing is memoised on them yet."""
    return generate_query_workload(graphs, query_size=6, num_queries=3, rng=5).queries()


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestPlanCosts:
    def test_plan_builds_one_edge_table(self, catalog, six_edge_queries, monkeypatch):
        planner = catalog.planner()
        planner.plan(six_edge_queries[0], 0.5, 1, CONFIG)  # features and their plans warm
        built = _count_calls(monkeypatch, generic_join, "_build_edge_table")
        for query in six_edge_queries[1:]:
            del built[:]
            plan = planner.plan(query, 0.5, 1, CONFIG)
            assert [args[0] for args in built] == [query]
            assert "_generic_join_table" in query.__dict__
            for relaxed in plan.relaxed_queries:
                assert "_generic_join_table" not in relaxed.__dict__

    def test_plan_joins_each_feature_once(self, catalog, graphs, six_edge_queries, monkeypatch):
        planner = catalog.planner()
        joins = _count_calls(monkeypatch, generic_join, "_join")
        for query in six_edge_queries:
            del joins[:]
            plan = planner.plan(query, 0.5, 1, CONFIG)
            # five-edge variants: too large for any feature to contain
            assert len(plan.relaxed_queries) > 1 and len(joins) == NUM_FEATURES
        # single-edge variants fit a feature: one more join each, over the
        # stacked features
        small = extract_query(graphs[0].skeleton, 2, rng=3)
        del joins[:]
        plan = planner.plan_top_k(small, 2, 1, CONFIG)
        assert 1 <= len(plan.relaxed_queries) <= 2
        assert len(joins) == NUM_FEATURES + len(plan.relaxed_queries)

    def test_pickled_plan_batch_is_small(self, catalog, six_edge_queries):
        planner = catalog.planner()
        for query in six_edge_queries:
            plan = planner.plan(query, 0.5, 1, CONFIG)
            assert plan.query.num_edges == 6 and plan.distance_threshold == 1
            batch = pickle.dumps(([plan], [12345]), protocol=pickle.HIGHEST_PROTOCOL)
            assert len(batch) <= 4096
            shipped = pickle.loads(batch)[0][0]
            # the query travels without the edge table planning hung on it
            assert shipped.query == plan.query
            assert "_generic_join_table" not in shipped.query.__dict__
            assert (shipped.profile, shipped.containment) == (plan.profile, plan.containment)
            # ... and with the compiled relaxed set, so that no shard derives it
            assert (shipped.family.levels, shipped.family.loners) == (
                plan.family.levels,
                plan.family.loners,
            )
            for name in ("edge_ends", "required", "degree", "seed"):
                assert np.array_equal(getattr(shipped.family, name), getattr(plan.family, name))

    def test_sharded_catalog_enumerates_once_per_query(
        self, catalog, six_edge_queries, monkeypatch
    ):
        assert catalog.num_shards == 2
        enumerations = _count_calls(monkeypatch, StructuralFeatureIndex, "query_embeddings")
        results = catalog.query_many(six_edge_queries, 0.3, 1, CONFIG, rng=7)
        assert len(enumerations) == len(six_edge_queries)
        assert [result.statistics.database_size for result in results] == [12] * 3
        del enumerations[:]
        catalog.query_top_k(six_edge_queries[0], 2, 1, CONFIG, rng=7)
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
        planner = catalog.planner()
        for query in six_edge_queries:
            plan = planner.plan(query, 0.3, 1, CONFIG)
            assert len(spies["compile_variant_family"]) == 1  # once per plan()
            assert not plan.family.loners  # plan() relaxes without an alphabet: no relabeling
            for calls in spies.values():
                del calls[:]
            (result,) = planner.execute_plans([plan], [7])
            blocks = len(spies["verify_block"])
            assert result.statistics.verified >= blocks >= 1
            assert len(spies["execute_variant_family"]) == blocks
            assert not spies["compile_variant_family"]  # and not at all in execute_plan
            # no relaxed variant is compiled or joined on its own
            assert not spies["_join"] and not spies["_build_join_plan"]

    def test_top_k_query_runs_one_pass_per_verified_candidate(
        self, catalog, six_edge_queries, spies
    ):
        planner = catalog.planner()
        verified = 0
        for query in six_edge_queries:
            plan = planner.plan_top_k(query, 2, 2, CONFIG)
            for calls in spies.values():
                del calls[:]
            (result,) = planner.execute_plans([plan], [7])
            verified += result.statistics.verified
            assert len(spies["execute_variant_family"]) == result.statistics.verified
            assert all(len(args[2]) == 1 for args in spies["verify_block"])  # blocks of one
            assert not spies["compile_variant_family"]
        assert verified > len(six_edge_queries)

    def test_hand_made_plan_derives_its_family(self, catalog, six_edge_queries, spies):
        planner = catalog.planner()
        plan = planner.plan(six_edge_queries[0], 0.3, 1, CONFIG)
        (expected,) = planner.execute_plans([plan], [7])
        plan.family = None
        for calls in spies.values():
            del calls[:]
        (derived,) = planner.execute_plans([plan], [7])
        assert derived.answers == expected.answers
        assert len(spies["compile_variant_family"]) == len(spies["verify_block"]) >= 1


@pytest.mark.parametrize(
    "workload", ["verify_heavy", "filter_heavy", "service_mixed", "catalog_churn"]
)
def test_no_block_rerun_on_the_e2e_smoke_corpora(workload, monkeypatch):
    # the e2e request stream itself (importable under the tier-1 command, run from the root)
    from benchmarks.e2e import corpus as e2e
    from benchmarks.e2e.workloads import call

    corpus = e2e.build_corpus(workload, smoke=True)
    profile = corpus.profile
    with GraphCatalog.build(
        corpus.graphs,
        num_shards=2,
        feature_config=e2e.FEATURE_CONFIG,
        bound_config=e2e.BOUND_CONFIG,
        rng=e2e.BUILD_SEED,
        max_workers=0,
    ) as built:
        reset_family_reroute_count()
        reset_truncation_count()
        draws = _count_calls(monkeypatch, batch_kernel, "_draw_worlds")  # the build is over
        verified = sampled = 0
        for request in e2e.build_requests(corpus, seed=7):
            result = call(built, request, profile.delta, profile.search_config)
            verified += result.statistics.verified
            sampled += result.statistics.sampled
    assert verified > 0
    assert family_reroute_count() == (0, 0) and truncation_count() == 0
    # every support of these corpora fits the kernel's exact enumeration
    assert sampled == 0 and not draws


def test_sampled_sums_across_shards_to_the_dense_count(wide_support_corpus):
    """Threshold mode verifies the same candidates however they are sharded,
    so the route counter merges like ``verified`` (a top-k shard partial may
    legitimately verify, and sample, more than the sequential loop)."""
    graphs, queries = wide_support_corpus
    build = dict(
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=NUM_FEATURES),
        bound_config=BoundConfig(num_samples=20),
        rng=17,
        max_workers=0,
    )
    with GraphCatalog.build(graphs, **build) as dense, GraphCatalog.build(
        graphs, num_shards=2, **build
    ) as sharded:
        for query in queries:
            expected, actual = (
                catalog.query(query, 0.3, WIDE_SUPPORT_DISTANCE, CONFIG, rng=7).statistics
                for catalog in (dense, sharded)
            )
            assert 0 < expected.sampled < expected.verified
            assert (actual.sampled, actual.verified) == (expected.sampled, expected.verified)


def test_statistics_without_the_sampled_key_still_parse():
    """A peer that predates the counter sends no ``sampled``: it reads 0."""
    payload = QueryStatistics(verified=3, sampled=2).as_dict()
    assert QueryStatistics.from_dict(payload).sampled == 2
    del payload["sampled"]
    parsed = QueryStatistics.from_dict(payload)
    assert (parsed.verified, parsed.sampled) == (3, 0)
