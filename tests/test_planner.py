"""Tests for the reusable query planner, the batch ``query_many`` API, the
vectorized pruner parity with the per-graph loop, and PMI persistence."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import (
    GraphCatalog,
    ProbabilisticGraphDatabase,
    ProbabilisticPruner,
    PruningDecision,
    QueryPlanner,
    SearchConfig,
    ShardedPlanner,
    VerificationConfig,
    aggregate_statistics,
    relax_query,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import IndexError_, QueryError
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex


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


BUILD = dict(
    feature_config=FEATURES, bound_config=BoundConfig(method="exact"), rng=17, max_workers=0
)


def _engine(graphs, num_shards):
    return ProbabilisticGraphDatabase(graphs).build_index(num_shards=num_shards, **BUILD)


def _catalog(graphs, num_shards):
    return GraphCatalog.build(graphs, num_shards=num_shards, **BUILD)


@pytest.fixture(scope="module")
def indexed(planner_database):
    return _engine(planner_database.graphs, num_shards=1)


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
        batch = indexed.query_many(workload, 0.3, 1, config=config, rng=3)
        sequential = [indexed.query(q, 0.3, 1, config=config, rng=3) for q in workload]
        assert len(batch) == len(sequential) == len(workload)
        for batch_result, sequential_result in zip(batch, sequential):
            assert answers_as_tuples(batch_result) == answers_as_tuples(sequential_result)

    def test_batch_validates_every_query(self, indexed, workload):
        from repro.graphs import LabeledGraph

        disconnected = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")]
        )
        with pytest.raises(QueryError):
            indexed.query_many([*workload, disconnected], 0.3, 1)

    def test_batch_requires_index(self, planner_database, workload):
        database = ProbabilisticGraphDatabase(planner_database.graphs)
        with pytest.raises(IndexError_):
            database.query_many(workload, 0.3, 1)

    def test_aggregate_statistics(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        batch = indexed.query_many(workload, 0.3, 1, config=config, rng=3)
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
        for name in ("execute_plan", "execute_top_k_partial"):
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
        """``build_index(rng=s)`` on one shard holds exactly the arrays of a
        dense ``ProbabilisticMatrixIndex.build(graphs, rng=s)`` and of the
        structural index counted over its features (sampled bounds, so the
        per-graph build streams are in play)."""
        from repro.structural.feature_index import StructuralFeatureIndex

        bounds = BoundConfig(num_samples=40)
        engine = ProbabilisticGraphDatabase(planner_database.graphs).build_index(
            feature_config=FEATURES, bound_config=bounds, rng=23
        )
        dense = ProbabilisticMatrixIndex(
            feature_config=FEATURES, bound_config=bounds
        ).build(planner_database.graphs, rng=23)
        structural = StructuralFeatureIndex(embedding_limit=FEATURES.embedding_limit).build(
            [graph.skeleton for graph in planner_database.graphs], dense.features
        )
        assert [f.canonical for f in engine.pmi.features] == [
            f.canonical for f in dense.features
        ]
        assert engine.pmi.build_root == dense.build_root == 23
        for name in ("_lower", "_upper", "_present"):
            assert np.array_equal(getattr(engine.pmi, name), getattr(dense, name)), name
        assert np.count_nonzero(dense._present) > 0
        assert np.array_equal(
            engine.structural_index.counts_matrix(), structural.counts_matrix()
        )

    def test_build_index_constructs_planner(self, indexed):
        """The engine's planner — a sharded planner over one shard — reads
        the very arrays ``engine.pmi`` and ``engine.structural_index`` expose
        (no copy between them)."""
        planner = indexed.planner
        assert isinstance(planner, ShardedPlanner) and planner.num_shards == 1
        assert isinstance(indexed.pmi, ProbabilisticMatrixIndex)
        (shard,) = planner.shards
        row = shard.pmi.row(0)
        assert np.shares_memory(row.lower, indexed.pmi._lower)
        assert np.shares_memory(row.upper, indexed.pmi._upper)
        assert np.shares_memory(row.present, indexed.pmi._present)
        assert shard.structural_index.base is indexed.structural_index
        assert shard.structural_index.num_graphs == len(indexed.graphs)

    def test_plan_is_reusable(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        plan = indexed.planner.plan(workload[0], 0.3, 1, config)
        first, second = indexed.planner.execute_plans([plan, plan], [3, 3])
        assert answers_as_tuples(first) == answers_as_tuples(second)

    def test_row_views_share_index_memory(self, indexed):
        row = indexed.pmi.row(0)
        assert np.shares_memory(row.lower, indexed.pmi._lower)
        assert np.shares_memory(row.upper, indexed.pmi._upper)
        assert np.shares_memory(row.present, indexed.pmi._present)


class TestVectorizedPrunerParity:
    def test_partition_matches_per_graph_loop(self, indexed, workload):
        """The batched row-view pruner must reproduce the seed's sequential
        per-graph partition (pruned / accepted / remaining) exactly."""
        pmi = indexed.pmi
        for query_index, query in enumerate(workload):
            relaxed = relax_query(query, 1)
            candidate_ids = list(range(len(indexed.graphs)))

            # seed-style loop: per-graph dict rows, containment recomputed per
            # graph, sequential decisions
            loop_pruner = ProbabilisticPruner(pmi.features, rng=random.Random(5))
            loop_partition = []
            for graph_id in candidate_ids:
                bounds = loop_pruner.compute_bounds(relaxed, pmi.bounds_for_graph(graph_id))
                loop_partition.append(loop_pruner.decide(bounds, 0.4))

            # planner-style batch: shared containment, columnar row views,
            # vectorized decision masks
            batch_pruner = ProbabilisticPruner(pmi.features)
            containment = batch_pruner.prepare(relaxed)
            generator = random.Random(5)
            bounds_list = [
                batch_pruner.compute_bounds_from_row(
                    relaxed, pmi.row(graph_id), containment, rng=generator
                )
                for graph_id in candidate_ids
            ]
            pruned_mask, accepted_mask = batch_pruner.decide_batch(bounds_list, 0.4)

            for position, decision in enumerate(loop_partition):
                assert (decision is PruningDecision.PRUNED) == bool(
                    pruned_mask[position]
                ), f"query {query_index}, graph {candidate_ids[position]}"
                assert (decision is PruningDecision.ACCEPTED) == bool(
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
        assert loaded.entries() == indexed.pmi.entries()
        assert [f.canonical for f in loaded.features] == [
            f.canonical for f in indexed.pmi.features
        ]

        reloaded_db = ProbabilisticGraphDatabase(indexed.graphs)
        reloaded_db.build_index(pmi=loaded)
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        for query in workload:
            before = indexed.query(query, 0.3, 1, config=config, rng=3)
            after = reloaded_db.query(query, 0.3, 1, config=config, rng=3)
            assert answers_as_tuples(before) == answers_as_tuples(after)

    def test_prebuilt_pmi_size_mismatch_rejected(self, indexed, planner_database, tmp_path):
        target = tmp_path / "pmi"
        indexed.pmi.save(target)
        loaded = ProbabilisticMatrixIndex.load(target)
        smaller = ProbabilisticGraphDatabase(planner_database.graphs[:3])
        with pytest.raises(IndexError_):
            smaller.build_index(pmi=loaded)

    def test_load_missing_path_rejected(self, tmp_path):
        with pytest.raises(IndexError_):
            ProbabilisticMatrixIndex.load(tmp_path / "nowhere")
