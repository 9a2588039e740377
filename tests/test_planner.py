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
    VerificationConfig,
    relax_query,
)
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError, IndexError_, QueryError
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from tests.conftest import WIDE_SUPPORT_DISTANCE, assert_same_cells, build_index


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


def _engine(graphs, num_shards=1):
    """The adopted-index route: both indexes built directly, then handed to
    ``GraphCatalog.from_index``."""
    built = build_index(graphs, **BUILD)
    return GraphCatalog.from_index(
        graphs, built.pmi, built.structural_index, num_shards=num_shards, max_workers=0
    )


def _catalog(graphs, num_shards=1):
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
        """Whatever ``num_shards`` the harness still passes (it is checked,
        then ignored), the refusal happens before any work."""
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
        ).planner()
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
        """A catalog's planner — its one query planner — reads the very
        indexes the catalog's store holds (no copy between them)."""
        view = indexed.catalog.planner()
        assert type(view) is QueryPlanner
        store = indexed.catalog._store
        assert isinstance(view.pmi, ProbabilisticMatrixIndex) and view.pmi is store.pmi
        row = view.pmi.row(0)
        assert np.shares_memory(row.lower, store.pmi._lower)
        assert np.shares_memory(row.upper, store.pmi._upper)
        assert np.shares_memory(row.present, store.pmi._present)
        assert isinstance(view.structural_index, StructuralFeatureIndex)
        assert view.structural_index is store.structural
        assert view.structural_index.num_graphs == len(indexed.graphs)

    def test_pruner_for_returns_the_pruner_it_built(self, indexed, workload):
        """A planner is shared by the threads querying one catalog: when
        another thread swaps ``planner.pruner`` right after this call stored
        the one it built, this call still filters with its own config's."""
        from repro.core import PruningConfig

        mine, theirs = PruningConfig(optimal_usim=False), PruningConfig(optimal_lsim=False)

        class Racing(QueryPlanner):
            @property
            def pruner(self):
                return self.__dict__["_pruner"]

            @pruner.setter
            def pruner(self, value):
                self.__dict__["_pruner"] = value
                if value.config == mine:  # the other thread lands here
                    self.__dict__["_pruner"] = ProbabilisticPruner(self.pmi.features, config=theirs)

        planner = Racing(indexed.graphs, indexed.pmi, indexed.structural_index)
        plan = planner.plan(workload[0], 0.3, 1, SearchConfig(pruning=mine))
        assert planner._pruner_for(plan).config == mine
        assert planner.pruner.config == theirs

    def test_plan_is_reusable(self, indexed, workload):
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        planner = indexed.catalog.planner()
        plan = planner.plan(workload[0], 0.3, 1, config)
        first, second = planner.execute_plan(plan, 3), planner.execute_plan(plan, 3)
        assert answers_as_tuples(first) == answers_as_tuples(second)

    def test_a_plan_pickles_the_same_after_its_query_was_matched(self, indexed, workload):
        """Executing a plan (edge tables, event bits and signature counts
        memoised on the query, relaxed members built) leaves its pickle as it
        was: the memo slots never travel."""
        config = SearchConfig(verification=VerificationConfig(method="inclusion_exclusion"))
        planner = indexed.catalog.planner()
        plan = planner.plan(workload[0], 0.3, 1, config)
        before = pickle.dumps(plan)
        planner.execute_plan(plan, 3)
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
            loop_pruner = ProbabilisticPruner(pmi.features)
            loop_stream = random.Random(5)
            loop_partition = []
            for graph_id in candidate_ids:
                bounds = loop_pruner.compute_bounds(
                    relaxed, pmi.row(graph_id), loop_pruner.prepare(relaxed), rng=loop_stream
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


class TestRngsArity:
    """One generator per query: an ``rngs`` list of another length is
    refused, not truncated to the shorter list."""

    @pytest.mark.parametrize("queries, rngs", [(2, [3]), (1, [3, 4]), (0, [3])])
    def test_a_length_mismatch_is_a_query_error(self, indexed, workload, queries, rngs):
        batch = [workload[0]] * queries
        with pytest.raises(QueryError, match="rngs"):
            indexed.catalog.query_many(batch, 0.3, 1, rngs=rngs)
        with pytest.raises(QueryError, match="rngs"):
            indexed.catalog.query_top_k_many(batch, 2, 1, rngs=rngs)



@pytest.fixture(scope="module")
def sampling_corpus(wide_support_corpus):
    """A catalog over the wide-support corpus, where verification samples
    (so the roots show in every estimate), and four queries."""
    graphs, queries = wide_support_corpus
    catalog = GraphCatalog.build(graphs, **{**BUILD, "bound_config": BoundConfig(num_samples=40)})
    yield catalog, [*queries, *queries[::-1]]
    catalog.close()


class TestPerQueryRngs:
    """The micro-batching contract of ``rngs``: a batch answers as one call
    per query under that query's generator, so what else a batch holds never
    shows in an answer."""

    SAMPLING = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=40))

    @staticmethod
    def run(catalog, kind, queries, **rng_arguments):
        config, distance = TestPerQueryRngs.SAMPLING, WIDE_SUPPORT_DISTANCE
        if kind == "threshold":
            return catalog.query_many(queries, 0.3, distance, config, **rng_arguments)
        return catalog.query_top_k_many(queries, 2, distance, config, **rng_arguments)

    @staticmethod
    def fingerprint(results):
        return pickle.dumps([answers_as_tuples(result) for result in results])

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_rngs_equal_one_call_per_query(self, sampling_corpus, kind):
        catalog, queries = sampling_corpus
        seeds = [11, 12, 11, 13]
        batched = self.run(catalog, kind, queries, rngs=seeds)
        assert all(result.statistics.sampled for result in batched)
        # the roots reach the estimates: other seeds, other bytes
        assert self.fingerprint(batched) != self.fingerprint(
            self.run(catalog, kind, queries, rngs=[14] * len(queries))
        )
        alone = [
            self.run(catalog, kind, [query], rng=seed)[0] for query, seed in zip(queries, seeds)
        ]
        assert self.fingerprint(batched) == self.fingerprint(alone)
        # a query keeps its answer when the batch around it changes
        reordered = self.run(catalog, kind, queries[::-1], rngs=seeds[::-1])
        assert self.fingerprint(reordered[::-1]) == self.fingerprint(batched)

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_rng_and_rngs_together_are_refused(self, sampling_corpus, kind):
        catalog, queries = sampling_corpus
        shared, twin = random.Random(5), random.Random(5)
        with pytest.raises(QueryError, match="either rng or rngs"):
            self.run(catalog, kind, queries, rng=shared, rngs=[1] * len(queries))
        assert shared.getstate() == twin.getstate()

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_an_int_seed_is_renormalised_per_query(self, sampling_corpus, kind):
        catalog, queries = sampling_corpus
        batched = self.run(catalog, kind, queries, rng=7)
        alone = [self.run(catalog, kind, [query], rng=7)[0] for query in queries]
        assert self.fingerprint(batched) == self.fingerprint(alone)

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_a_shared_random_is_drawn_once_per_query_in_order(self, sampling_corpus, kind):
        catalog, queries = sampling_corpus
        batched = self.run(catalog, kind, queries, rng=random.Random(5))
        shared = random.Random(5)
        alone = [self.run(catalog, kind, [query], rng=shared)[0] for query in queries]
        assert self.fingerprint(batched) == self.fingerprint(alone)
        # and not as one root for every query
        assert self.fingerprint(batched) != self.fingerprint(
            self.run(catalog, kind, queries, rng=random.Random(5).getrandbits(64))
        )
