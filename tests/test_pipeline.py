"""Unit tests for the query cascade (``core.pipeline``): the top-k heap,
per-stage statistics, the planner's lifetime, and the mask-honoring
structural filter entry point."""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphCatalog,
    QueryAnswer,
    QueryStatistics,
    SearchConfig,
    VerificationConfig,
    validate_top_k_query,
)
from repro.core.pipeline import TopKHeap, replay_top_k
from repro.core.pruning import FeatureContainment, ProbabilisticPruner
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import QueryError
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.structural.similarity_filter import StructuralFilter
from tests.conftest import build_index, replay_top_k_one_at_a_time

EXACT_CONFIG = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))


@pytest.fixture(scope="module")
def pipeline_database():
    config = PPIDatasetConfig(
        num_graphs=6,
        num_families=2,
        vertices_per_graph=9,
        edges_per_graph=11,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=31)


@pytest.fixture(scope="module")
def indexed(pipeline_database):
    return build_index(
        pipeline_database.graphs,
        feature_config=FeatureSelectionConfig(
            alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
        ),
        bound_config=BoundConfig(method="exact"),
        rng=17,
    )


class TestTopKHeap:
    def test_top_k_heap_fills_then_tightens(self):
        heap = TopKHeap(2)
        assert heap.admits(0.01)  # floor starts at zero
        assert heap.offer(QueryAnswer(0, None, 0.5, "verification"))
        assert heap.floor == 0.0  # heap not yet full
        assert heap.offer(QueryAnswer(1, None, 0.3, "verification"))
        assert heap.floor == 0.3  # k-th best verified probability
        assert not heap.admits(0.29)
        assert heap.offer(QueryAnswer(2, None, 0.9, "verification"))
        assert heap.floor == 0.5
        assert [a.graph_id for a in heap.ranked()] == [2, 0]

    def test_top_k_tie_breaks_by_smaller_graph_id(self):
        heap = TopKHeap(2)
        heap.offer(QueryAnswer(5, None, 0.5, "verification"))
        heap.offer(QueryAnswer(9, None, 0.5, "verification"))
        # equal probability, smaller id than the k-th place: displaces it
        assert heap.offer(QueryAnswer(7, None, 0.5, "verification"))
        # equal probability, larger id than the k-th place: rejected
        assert not heap.offer(QueryAnswer(10, None, 0.5, "verification"))
        assert [a.graph_id for a in heap.ranked()] == [5, 7]

    def test_zero_probability_is_never_an_answer(self):
        heap = TopKHeap(3)
        assert not heap.offer(QueryAnswer(0, None, 0.0, "verification"))
        assert heap.ranked() == []

    def test_seed_floor_uses_kth_largest_lower_bound(self):
        heap = TopKHeap(2)
        heap.seed_floor(np.array([0.1, 0.7, 0.4]))
        assert heap.floor == 0.4
        heap.seed_floor(np.array([0.05]))  # fewer than k values: no-op
        assert heap.floor == 0.4


@st.composite
def top_k_tables(draw):
    """A candidate table as a top-k plan hands it over: distinct ids, Usim
    with ties at 1 and below it, ``lsim ≤ usim``, an SSP estimate per id
    (0 included), and a k from 1 to past the table."""
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    unit = st.floats(0.0, 1.0)
    bound = st.one_of(st.just(1.0), st.sampled_from((0.25, 0.5)), unit)
    usim = draw(st.lists(bound, min_size=n, max_size=n))
    lsim = [upper * draw(unit) for upper in usim]
    probability = {graph_id: draw(st.one_of(st.just(0.0), unit)) for graph_id in ids}
    k = draw(st.integers(1, n + 2))
    return np.array(ids, dtype=np.int64), np.array(usim), np.array(lsim), probability, k


class TestReplayTopK:
    @settings(max_examples=300, deadline=None)
    @given(top_k_tables())
    def test_equals_the_one_at_a_time_walk(self, table):
        """Handing the Usim-1 run over in one call changes nothing the walk
        returns or asks for, and every estimate asked for reaches the heap."""
        ids, usim, lsim, probability, k = table

        def answer(graph_id):
            return QueryAnswer(graph_id, None, probability[graph_id], "verification")

        asked_alone = []

        def alone(graph_id):
            asked_alone.append(graph_id)
            return answer(graph_id)

        calls = []

        def in_runs(graph_ids):
            calls.append(graph_ids)
            return [answer(graph_id) for graph_id in graph_ids]

        expected = replay_top_k_one_at_a_time(ids, usim, lsim, alone, k)
        with mock.patch.object(
            TopKHeap, "offer", autospec=True, side_effect=TopKHeap.offer
        ) as offer:
            got = replay_top_k(ids, usim, lsim, in_runs, k)
        assert got == expected
        asked = [graph_id for call in calls for graph_id in call]
        assert Counter(asked) == Counter(asked_alone)
        assert [c.args[1].graph_id for c in offer.call_args_list] == asked
        # only the leading run at Usim 1 shares a call
        assert all(len(call) == 1 for call in calls[1:])
        if calls and len(calls[0]) > 1:
            assert all(usim[ids == graph_id][0] == 1.0 for graph_id in calls[0])


class TestStageStatistics:
    def test_threshold_query_records_three_stages(self, indexed, pipeline_database):
        query = extract_query(pipeline_database.graphs[0].skeleton, 3, rng=5)
        result = indexed.catalog.query(query, 0.3, 1, config=EXACT_CONFIG, rng=3)
        stats = result.statistics
        assert [s.stage for s in stats.stages] == [
            "structural_filter",
            "pmi_pruning",
            "verification",
        ]
        structural, pmi, verification = stats.stages
        assert structural.examined == len(indexed.graphs)
        assert structural.passed == stats.structural_candidates
        assert pmi.examined == structural.passed
        assert pmi.pruned == stats.pruned_by_upper_bound
        assert pmi.accepted == stats.accepted_by_lower_bound
        assert verification.examined == pmi.passed
        assert verification.examined == stats.verified
        assert all(s.seconds >= 0.0 for s in stats.stages)
        counters = stats.as_dict()["stage_counters"]
        assert [c["stage"] for c in counters] == [s.stage for s in stats.stages]

    @pytest.mark.parametrize("top_k", [False, True])
    @pytest.mark.parametrize("route", ["catalog", "execute_plan"])
    def test_stage_accounting_is_conserved(self, indexed, pipeline_database, route, top_k):
        query = extract_query(pipeline_database.graphs[1].skeleton, 3, rng=9)
        if route == "catalog":
            run = indexed.catalog.query_top_k if top_k else indexed.catalog.query
            result = run(query, 2 if top_k else 0.3, 1, config=EXACT_CONFIG, rng=3)
        else:
            planner = indexed.planner()
            plan_for = planner.plan_top_k if top_k else planner.plan
            plan = plan_for(query, 2 if top_k else 0.3, 1, EXACT_CONFIG)
            result = planner.execute_plan(plan, rng=3)
        for stage in result.statistics.stages[:-1]:  # filters: examined splits up
            assert stage.examined == stage.pruned + stage.accepted + stage.passed


class TestPlannerLifetime:
    def test_a_dropped_planner_is_freed_by_reference_counting(
        self, indexed, pipeline_database
    ):
        """No reference cycle runs through a planner: a pool slot's drop
        list watches graph weakrefs, so a planner a mutation drops must let
        go of its graphs at once, without waiting for the cycle collector."""
        query = extract_query(pipeline_database.graphs[0].skeleton, 3, rng=5)
        planner = indexed.planner()
        gc.disable()
        try:
            planner.execute(query, 0.3, 1, config=EXACT_CONFIG, rng=3)
            planner.execute_top_k(query, 2, 1, config=EXACT_CONFIG, rng=3)
            dropped = weakref.ref(planner)
            del planner
            assert dropped() is None
        finally:
            gc.enable()


class TestVacuousPmiStage:
    """A plan with no containment relation skips the per-candidate bound
    loop; answers and statistics are the loop's."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("top_k", [False, True])
    def test_skip_equals_loop(self, pipeline_database, monkeypatch, num_shards, top_k):
        catalog = GraphCatalog.build(
            pipeline_database.graphs,
            num_shards=num_shards,
            feature_config=FeatureSelectionConfig(
                alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=3
            ),
            bound_config=BoundConfig(method="exact"),
            rng=17,
            max_workers=0,
        )
        planner = catalog.planner()
        bounded = []
        original = ProbabilisticPruner.compute_bounds

        def spy(self, relaxed_queries, row, containment, rng=None):
            bounded.append(row.graph_id)
            return original(self, relaxed_queries, row, containment, rng=rng)

        monkeypatch.setattr(ProbabilisticPruner, "compute_bounds", spy)
        for graph_index in (1, 3, 5):
            query = extract_query(pipeline_database.graphs[graph_index].skeleton, 3, rng=7)
            if top_k:
                plan = planner.plan_top_k(query, 2, 1, EXACT_CONFIG)
            else:
                plan = planner.plan(query, 0.1, 1, EXACT_CONFIG)
            assert plan.containment == {}
            skipped = planner.execute_plan(plan, 3)
            assert bounded == [] and skipped.statistics.structural_candidates == 3
            # a feature related to no relaxed query: the loop runs and finds
            # nothing to bound with
            unrelated = {0: FeatureContainment(sub_of=frozenset(), super_of=frozenset())}
            looped = planner.execute_plan(replace(plan, containment=unrelated), 3)
            assert len(bounded) == 3
            del bounded[:]
            assert skipped.answers == looped.answers and skipped.answers
            assert _counters(skipped.statistics) == _counters(looped.statistics)
        catalog.close()


def _counters(statistics: QueryStatistics) -> dict:
    counters = {k: v for k, v in statistics.as_dict().items() if not k.endswith("_seconds")}
    assert counters["stage_counters"] and "probabilistic_candidates" in counters
    return counters


class TestTopKValidation:
    def test_bad_k_rejected(self, indexed, pipeline_database):
        query = extract_query(pipeline_database.graphs[0].skeleton, 3, rng=5)
        for bad_k in (0, -2, True, 1.5, "3"):
            with pytest.raises(QueryError):
                indexed.catalog.query_top_k(query, bad_k, 1)

    def test_structure_checks_still_apply(self, indexed):
        disconnected = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")]
        )
        with pytest.raises(QueryError):
            validate_top_k_query(disconnected, 2, 1)


class TestFilterMask:
    def test_mask_honors_incoming_active_set(self, indexed, pipeline_database):
        query = extract_query(pipeline_database.graphs[0].skeleton, 3, rng=5)
        structural_filter = StructuralFilter(indexed.structural_index)
        full = structural_filter.filter_mask(query, 1)
        assert full.dtype == bool and full.shape == (len(indexed.graphs),)
        active = np.zeros(len(indexed.graphs), dtype=bool)
        active[:2] = True
        restricted = structural_filter.filter_mask(query, 1, active=active)
        assert not restricted[2:].any()
        assert np.array_equal(restricted, full & active)

    def test_filter_still_returns_id_lists(self, indexed, pipeline_database):
        query = extract_query(pipeline_database.graphs[0].skeleton, 3, rng=5)
        structural_filter = StructuralFilter(indexed.structural_index)
        outcome = structural_filter.filter(query, 1)
        mask = structural_filter.filter_mask(query, 1)
        assert outcome.candidate_ids == [int(g) for g in np.flatnonzero(mask)]
        assert sorted(outcome.candidate_ids + outcome.pruned_ids) == list(
            range(len(indexed.graphs))
        )
