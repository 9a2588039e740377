"""Tests for the reusable query planner, the batch ``query_many`` API, the
vectorized pruner parity with the per-graph loop, and PMI persistence."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core import (
    GraphCatalog,
    ProbabilisticPruner,
    QueryPlanner,
    SearchConfig,
    ShardedPlanner,
    VerificationConfig,
    aggregate_statistics,
    relax_query,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError, IndexError_, QueryError
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from tests.conftest import assert_same_cells, build_index


@pytest.fixture(scope="module")
def planner_database():
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


FEATURES = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
)


BUILD = dict(feature_config=FEATURES, bound_config=BoundConfig(method="exact"), rng=17)


def _engine(graphs, num_shards):
    """The adopted-index route: both indexes built directly, then handed to
    ``GraphCatalog.from_index``."""
    built = build_index(graphs, **BUILD)
    return GraphCatalog.from_index(
        graphs, built.pmi, built.structural_index, num_shards=num_shards, max_workers=0
    )


def _catalog(graphs, num_shards):
    return GraphCatalog.build(graphs, num_shards=num_shards, max_workers=0, **BUILD)


@pytest.fixture(scope="module")
def indexed(planner_database):
    return build_index(planner_database.graphs, **BUILD)


@pytest.fixture(scope="module")
def workload(planner_database):
    return [
        extract_query(planner_database.graphs[i].skeleton, 3, rng=5 + i)
        for i in range(4)
    ]


def answers_as_tuples(result):
    return [(a.graph_id, a.probability, a.decided_by) for a in result.answers]


class TestQueryMany:
    def test_batch_matches_sequential_queries(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        batch = indexed.catalog.query_many(workload, 0.3, 1, config=config, rng=3)
        sequential = [indexed.catalog.query(q, 0.3, 1, config=config, rng=3) for q in workload]
        assert len(batch) == len(sequential) == len(workload)
        for batch_result, sequential_result in zip(batch, sequential):
            assert answers_as_tuples(batch_result) == answers_as_tuples(sequential_result)

    def test_batch_validates_every_query(self, indexed, workload):
        from repro.graphs import LabeledGraph

        disconnected = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")]
        )
        with pytest.raises(QueryError):
            indexed.catalog.query_many([*workload, disconnected], 0.3, 1)

    def test_aggregate_statistics(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        batch = indexed.catalog.query_many(workload, 0.3, 1, config=config, rng=3)
        totals = aggregate_statistics(batch)
        assert totals["num_queries"] == len(workload)
        assert totals["answers"] == sum(len(r.answers) for r in batch)
        assert totals["database_size"] == len(indexed.graphs)
        assert totals["mean_seconds_per_query"] >= 0.0


class TestMalformedBatchDoesNoWork:
    """A malformed query anywhere in a batch is refused before any query of
    the batch executes and before a shared ``random.Random`` is drawn from."""

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize(
        "build,num_shards",
        [(_engine, 1), (_engine, 3), (_catalog, 1), (_catalog, 3)],
    )
    def test_batch_is_refused_whole(
        self, planner_database, workload, monkeypatch, build, num_shards, position
    ):
        from repro.graphs import LabeledGraph

        disconnected = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")]
        )
        batch = list(workload)
        batch.insert(position, disconnected)
        target = build(planner_database.graphs, num_shards)

        executed = []
        for name in ("execute_plan", "filter_plan"):
            original = getattr(QueryPlanner, name)

            def spy(self, plan, rng=None, _original=original):
                executed.append(plan)
                return _original(self, plan, rng=rng)

            monkeypatch.setattr(QueryPlanner, name, spy)

        shared, twin = random.Random(99), random.Random(99)
        with pytest.raises(QueryError):
            target.query_many(batch, 0.3, 1, rng=shared)
        with pytest.raises(QueryError):
            target.query_top_k_many(batch, 2, 1, rng=shared)
        assert executed == []
        assert shared.getstate() == twin.getstate()

        # the well-formed rest of the batch runs, one draw per query in order
        results = target.query_many(workload, 0.3, 1, rng=shared)
        assert len(results) == len(workload) and len(executed) >= len(workload)
        for _ in workload:
            twin.getrandbits(64)
        assert shared.getstate() == twin.getstate()
        target.close()


class TestPlanner:
    def test_k1_build_equals_the_dense_build_cell_for_cell(self, planner_database):
        """``GraphCatalog.build(rng=s)`` holds exactly the arrays of a dense ``ProbabilisticMatrixIndex.build(graphs, rng=s)`` and of the
        structural index counted over its features (sampled bounds, so the
        per-graph build streams are in play)."""
        bounds = BoundConfig(num_samples=40)
        view = GraphCatalog.build(
            planner_database.graphs, feature_config=FEATURES, bound_config=bounds, rng=23
        ).planner().query_planner
        pmi, structural_index = view.pmi, view.structural_index
        dense = ProbabilisticMatrixIndex(
            feature_config=FEATURES, bound_config=bounds
        ).build(planner_database.graphs, rng=23)
        structural = StructuralFeatureIndex(embedding_limit=FEATURES.embedding_limit).build(
            [graph.skeleton for graph in planner_database.graphs], dense.features
        )
        assert [f.canonical for f in pmi.features] == [f.canonical for f in dense.features]
        assert pmi.build_root == dense.build_root == 23
        for name in ("_lower", "_upper", "_present"):
            assert np.array_equal(getattr(pmi, name), getattr(dense, name)), name
        assert np.count_nonzero(dense._present) > 0
        assert np.array_equal(structural_index.counts_matrix(), structural.counts_matrix())

    def test_build_index_constructs_planner(self, indexed):
        """A catalog's planner — a sharded planner over its one query planner
        — reads the very indexes the catalog's store holds (no copy between
        them)."""
        planner = indexed.catalog.planner()
        assert isinstance(planner, ShardedPlanner) and planner.num_shards == 1
        view = planner.query_planner
        store = indexed.catalog._store
        assert isinstance(view.pmi, ProbabilisticMatrixIndex) and view.pmi is store.pmi
        row = view.pmi.row(0)
        assert np.shares_memory(row.lower, store.pmi._lower)
        assert np.shares_memory(row.upper, store.pmi._upper)
        assert np.shares_memory(row.present, store.pmi._present)
        assert isinstance(view.structural_index, StructuralFeatureIndex)
        assert view.structural_index is store.structural
        assert view.structural_index.num_graphs == len(indexed.graphs)

    def test_plan_is_reusable(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        planner = indexed.catalog.planner()
        plan = planner.plan(workload[0], 0.3, 1, config)
        first, second = planner.execute_plans([plan, plan], [3, 3])
        assert answers_as_tuples(first) == answers_as_tuples(second)

    def test_a_plan_pickles_the_same_after_its_query_was_matched(self, indexed, workload):
        """A plan ships to a pool worker as its pickle: executing it in this
        process (edge tables, event bits and signature counts memoised on the
        query, relaxed members built) leaves those bytes as they were."""
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        planner = indexed.catalog.planner()
        plan = planner.plan(workload[0], 0.3, 1, config)
        before = pickle.dumps(plan)
        planner.execute_plans([plan], [3])
        list(plan.relaxed_queries)
        assert plan.relaxed_queries.materialized_count()
        assert pickle.dumps(plan) == before
        shipped = pickle.loads(before)
        assert shipped.relaxed_queries.base is shipped.query  # the query goes over once

    def test_row_views_share_index_memory(self, indexed):
        row = indexed.pmi.row(0)
        assert np.shares_memory(row.lower, indexed.pmi._lower)
        assert np.shares_memory(row.upper, indexed.pmi._upper)
        assert np.shares_memory(row.present, indexed.pmi._present)


class TestVectorizedPrunerParity:
    def test_partition_matches_per_graph_loop(self, indexed, workload):
        """The batched pruner must reproduce a sequential per-graph partition
        (pruned / accepted / remaining) exactly: Pruning 1 first, then 2."""
        pmi = indexed.pmi
        for query_index, query in enumerate(workload):
            relaxed = relax_query(query, 1)
            candidate_ids = list(range(len(indexed.graphs)))

            # loop: containment recomputed per graph, the two conditions
            # applied one graph at a time
            loop_pruner = ProbabilisticPruner(pmi.features, rng=random.Random(5))
            loop_partition = []
            for graph_id in candidate_ids:
                bounds = loop_pruner.compute_bounds(
                    relaxed, pmi.row(graph_id), loop_pruner.prepare(relaxed)
                )
                if bounds.usim_covered and bounds.usim < 0.4:
                    loop_partition.append("pruned")
                elif bounds.lsim_covered and bounds.lsim >= 0.4:
                    loop_partition.append("accepted")
                else:
                    loop_partition.append("candidate")

            # planner-style batch: shared containment, one pass over the rows,
            # vectorized decision masks
            batch_pruner = ProbabilisticPruner(pmi.features)
            containment = batch_pruner.prepare(relaxed)
            generator = random.Random(5)
            bounds_list = [
                batch_pruner.compute_bounds(relaxed, row, containment, rng=generator)
                for row in pmi.rows(candidate_ids)
            ]
            pruned_mask, accepted_mask = batch_pruner.decide_batch(bounds_list, 0.4)

            for position, decision in enumerate(loop_partition):
                assert (decision == "pruned") == bool(
                    pruned_mask[position]
                ), f"query {query_index}, graph {candidate_ids[position]}"
                assert (decision == "accepted") == bool(
                    accepted_mask[position]
                ), f"query {query_index}, graph {candidate_ids[position]}"

    def test_decide_batch_empty(self):
        pruner = ProbabilisticPruner([])
        pruned, accepted = pruner.decide_batch([], 0.5)
        assert pruned.size == 0 and accepted.size == 0


class TestPmiPersistenceRoundTrip:
    def test_save_load_preserves_cells_and_answers(self, indexed, workload, tmp_path):
        target = tmp_path / "pmi"
        indexed.pmi.save(target)
        loaded = ProbabilisticMatrixIndex.load(target)

        assert loaded.summary() == indexed.pmi.summary()
        assert_same_cells(loaded, indexed.pmi)
        assert [f.canonical for f in loaded.features] == [
            f.canonical for f in indexed.pmi.features
        ]

        reloaded = GraphCatalog.from_index(indexed.graphs, loaded, indexed.structural_index)
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        for query in workload:
            before = indexed.catalog.query(query, 0.3, 1, config=config, rng=3)
            after = reloaded.query(query, 0.3, 1, config=config, rng=3)
            assert answers_as_tuples(before) == answers_as_tuples(after)

    def test_prebuilt_pmi_size_mismatch_rejected(self, indexed, planner_database, tmp_path):
        target = tmp_path / "pmi"
        indexed.pmi.save(target)
        loaded = ProbabilisticMatrixIndex.load(target)
        smaller = planner_database.graphs[:3]
        with pytest.raises(CatalogError, match="covers"):
            GraphCatalog.from_index(smaller, loaded, indexed.structural_index.subset([0, 1, 2]))

    def test_load_missing_path_rejected(self, tmp_path):
        with pytest.raises(IndexError_):
            ProbabilisticMatrixIndex.load(tmp_path / "nowhere")


class TestDistanceThreshold:
    """δ is normalised the way k is: ``operator.index``, bools refused."""

    @pytest.mark.parametrize("bad", [1.5, True, "1", None])
    def test_a_non_integer_delta_is_a_query_error(self, indexed, workload, bad):
        with pytest.raises(QueryError, match="integer"):
            indexed.catalog.query(workload[0], 0.3, bad)
        with pytest.raises(QueryError, match="integer"):
            indexed.catalog.query_top_k(workload[0], 2, bad)
        with pytest.raises(QueryError, match="integer"):
            indexed.planner().plan(workload[0], 0.3, bad)

    def test_an_integer_like_delta_answers_as_its_int(self, indexed, workload):
        planner = indexed.planner()
        plan = planner.plan(workload[0], 0.3, np.int64(1))
        assert type(plan.distance_threshold) is int
        assert type(planner.plan_top_k(workload[0], np.int32(2), np.int64(1)).k) is int
        assert answers_as_tuples(
            indexed.catalog.query(workload[0], 0.3, np.int64(1), rng=3)
        ) == answers_as_tuples(indexed.catalog.query(workload[0], 0.3, 1, rng=3))


class TestProbabilityThreshold:
    """ε is any real number in (0, 1], never a bool: the library refuses
    what the wire protocol refuses, with a ``QueryError``."""

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, 0.5j])
    def test_a_non_real_epsilon_is_a_query_error(self, indexed, workload, bad):
        with pytest.raises(QueryError, match="real number"):
            indexed.catalog.query(workload[0], bad, 1)
        with pytest.raises(QueryError, match="real number"):
            indexed.planner().plan(workload[0], bad, 1)

    @pytest.mark.parametrize("epsilon", [np.float32(0.5), np.float64(0.5), 1, np.int64(1)])
    def test_a_real_epsilon_is_accepted(self, indexed, workload, epsilon):
        assert indexed.planner().plan(workload[0], epsilon, 1).probability_threshold == epsilon
        assert answers_as_tuples(
            indexed.catalog.query(workload[0], epsilon, 1, rng=3)
        ) == answers_as_tuples(indexed.catalog.query(workload[0], float(epsilon), 1, rng=3))


# each catalog entry point a query reaches, asking it once
ENTRY_POINTS = {
    "query": lambda catalog, query: catalog.query(query, 0.3, 1),
    "query_top_k": lambda catalog, query: catalog.query_top_k(query, 2, 1),
    "query_many": lambda catalog, query: catalog.query_many([query], 0.3, 1),
}


class TestQueryType:
    """A query that is not a ``LabeledGraph`` is a ``QueryError`` naming the
    type it got, from every entry point; a database graph is pointed to its
    ``.skeleton`` but never taken in its place."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "kind, name",
        [
            ("none", "NoneType"),
            ("database graph", "ProbabilisticGraph"),
            ("dict", "dict"),
            ("string", "str"),
        ],
    )
    def test_a_non_graph_query_is_a_query_error(self, indexed, kind, name, entry):
        query = {
            "none": None,
            "database graph": indexed.graphs[0],
            "dict": {},
            "string": "abc",
        }[kind]
        with pytest.raises(QueryError, match=f"must be a LabeledGraph, got {name}") as raised:
            ENTRY_POINTS[entry](indexed.catalog, query)
        assert (".skeleton" in str(raised.value)) == (kind == "database graph")


class TestExecutePlansArity:
    """One root per plan: a ``roots`` list of another length is refused, not
    truncated to the shorter list."""

    @pytest.mark.parametrize("plans, roots", [(2, [3]), (1, [3, 4]), (0, [3])])
    def test_a_length_mismatch_is_a_query_error(self, indexed, workload, plans, roots):
        planner = indexed.catalog.planner()
        plan = planner.plan(workload[0], 0.3, 1)
        with pytest.raises(QueryError, match="roots"):
            planner.execute_plans([plan] * plans, roots)
