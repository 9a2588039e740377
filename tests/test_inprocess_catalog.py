"""A catalog verifies in-process through its one :class:`QueryPlanner`.

What that design rests on, under test here:

* **Snapshots.**  A mutation or a compaction replaces the catalog's planner
  instead of editing it: a planner read before the mutation keeps answering
  the state it was read from, its columns untouched, and once nothing holds
  it, it is freed.  A catalog that was never queried builds no planner.
* **Threads.**  Threads share one planner with no lock: threads that filter
  with different pruning configs, or sample different candidates, each get
  the answers and counters they get alone.
* **No process, no segment.**  Whatever ``num_shards`` / ``max_workers`` a
  caller passes (they are checked, then ignored), a catalog's whole
  lifecycle forks nothing and publishes nothing to ``/dev/shm``.
* **Lifecycle parity.**  build → mutations → close → open → compact, with
  the pool arguments the end-to-end harness passes, answers as a
  from-scratch rebuild at every step, threshold and top-k.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from test_catalog_parity import (
    BOUND_CONFIG,
    DISTANCE_THRESHOLD,
    FEATURE_CONFIG,
    PROBABILITY_THRESHOLD,
    SEARCH_CONFIG,
    answer_tuples,
    assert_result_parity,
    counter_dict,
    random_database,
    rebuild_from_scratch,
)
from test_sharding_parity import random_workload

from repro.core import GraphCatalog, PruningConfig, QueryPlanner, SearchConfig
from repro.core.catalog import _Store

from tests.conftest import WIDE_SUPPORT_DISTANCE, resident_segment_names

SEED = 9301
MUTATIONS = ("add", "remove", "update", "compact")
# every combination of the paper's SSPBound / OPT-SSPBound choices
PRUNING_CONFIGS = tuple(
    PruningConfig(optimal_usim=usim, optimal_lsim=lsim)
    for usim in (True, False)
    for lsim in (True, False)
)


def build(graphs, **extra) -> GraphCatalog:
    return GraphCatalog.build(
        graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED, **extra
    )


@pytest.fixture(scope="module")
def corpus():
    """``(graphs, spare graphs, queries)``: a small database, graphs to add
    or update with, and queries extracted from the database."""
    database = random_database(SEED, num_graphs=7)
    spare = random_database(SEED + 1, num_graphs=3).graphs
    return database.graphs, spare, random_workload(database, seed=SEED + 2, num_queries=3)


def mutate(catalog: GraphCatalog, mutation: str, spare) -> None:
    """One mutation of each kind; ``compact`` after a removal, so that it
    moves rows."""
    if mutation == "add":
        catalog.add_graph(spare[0])
    elif mutation == "remove":
        catalog.remove_graph(2)
    elif mutation == "update":
        catalog.update_graph(4, spare[1])
    else:
        catalog.remove_graph(1)
        catalog.compact()


def ask(planner_like, query, rng=SEED):
    """Threshold answers of a catalog or a planner, as bytes."""
    if isinstance(planner_like, QueryPlanner):
        result = planner_like.execute(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=rng
        )
    else:
        result = planner_like.query(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=rng
        )
    return pickle.dumps((answer_tuples(result), counter_dict(result.statistics)))


class TestPlannerSnapshots:
    """A mutation replaces the planner; the replaced one is a whole state."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_planner_read_before_a_mutation_answers_the_state_it_was_read_from(
        self, corpus, mutation
    ):
        graphs, spare, queries = corpus
        catalog = build(graphs)
        held = catalog.planner()
        rows, pmi, structural = len(held.graphs), held.pmi, held.structural_index
        before = [ask(held, query) for query in queries]
        mutate(catalog, mutation, spare)
        assert catalog.planner() is not held
        # the held planner's columns are the objects it was built over, unedited
        assert (len(held.graphs), held.pmi, held.structural_index) == (rows, pmi, structural)
        assert held.pmi.num_graphs == rows
        assert [ask(held, query) for query in queries] == before, mutation
        reference = rebuild_from_scratch(catalog)
        for query in queries:
            assert ask(catalog, query) == ask(reference, query), mutation
        catalog.close()

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_batch_spanning_a_mutation_answers_from_one_state(
        self, corpus, monkeypatch, mutation
    ):
        """``query_many`` reads the planner once: a mutation that lands
        between two plans of a batch changes none of the batch's answers."""
        graphs, spare, queries = corpus
        catalog = build(graphs)
        before = [ask(catalog, query) for query in queries]
        first_done, mutated = threading.Event(), threading.Event()
        original = QueryPlanner.execute_plan

        def pausing(planner, plan, rng=None):
            result = original(planner, plan, rng)
            if not first_done.is_set():
                first_done.set()
                assert mutated.wait(timeout=60), "the mutation never landed"
            return result

        monkeypatch.setattr(QueryPlanner, "execute_plan", pausing)
        outcome: list = []
        batch = threading.Thread(
            target=lambda: outcome.extend(
                catalog.query_many(
                    queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
                )
            )
        )
        batch.start()
        try:
            assert first_done.wait(timeout=60)
            mutate(catalog, mutation, spare)
        finally:
            mutated.set()
            batch.join(timeout=60)
        assert not batch.is_alive()
        got = [
            pickle.dumps((answer_tuples(result), counter_dict(result.statistics)))
            for result in outcome
        ]
        assert got == before, mutation
        monkeypatch.undo()
        reference = rebuild_from_scratch(catalog)
        assert [ask(catalog, query) for query in queries] == [
            ask(reference, query) for query in queries
        ]
        catalog.close()

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_replaced_planner_is_freed(self, corpus, mutation):
        """The catalog holds its current planner only: once a mutation has
        replaced one and no query holds it, it is garbage."""
        graphs, spare, queries = corpus
        catalog = build(graphs)
        catalog.query(queries[0], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        replaced = weakref.ref(catalog.planner())
        mutate(catalog, mutation, spare)
        catalog.query(queries[0], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        gc.collect()
        assert replaced() is None, mutation
        catalog.close()

    def test_close_frees_the_planner_and_the_next_query_builds_one(self, corpus):
        graphs, _, queries = corpus
        catalog = build(graphs)
        before = ask(catalog, queries[0])
        closed = weakref.ref(catalog.planner())
        catalog.close()
        gc.collect()
        assert closed() is None
        assert ask(catalog, queries[0]) == before
        assert type(catalog.planner()) is QueryPlanner
        catalog.close()

    def test_a_catalog_never_queried_builds_no_planner(self, corpus, monkeypatch):
        """Mutations of a catalog nobody queries build no planner; the first
        query builds one, over the mutated state, planning through the
        catalog's plan cache."""
        graphs, spare, queries = corpus
        made = []
        original = _Store.make_planner

        def counting(store, plan_cache):
            made.append(plan_cache)
            return original(store, plan_cache)

        monkeypatch.setattr(_Store, "make_planner", counting)
        catalog = build(graphs)
        for mutation in MUTATIONS:
            mutate(catalog, mutation, spare)
        assert made == []
        got = ask(catalog, queries[0])
        assert made == [catalog._plan_cache]
        assert got == ask(rebuild_from_scratch(catalog), queries[0])
        catalog.close()

    def test_each_mutation_of_a_queried_catalog_builds_one_planner(
        self, corpus, monkeypatch
    ):
        graphs, spare, queries = corpus
        catalog = build(graphs)
        catalog.planner()
        made = []
        original = _Store.make_planner

        def counting(store, plan_cache):
            made.append(plan_cache)
            return original(store, plan_cache)

        monkeypatch.setattr(_Store, "make_planner", counting)
        catalog.add_graph(spare[0])
        catalog.remove_graph(0)
        catalog.update_graph(3, spare[1])
        catalog.compact()
        # one planner per mutation, each over the catalog's one plan cache
        assert made == [catalog._plan_cache] * 4
        ask(catalog, queries[0])
        assert len(made) == 4  # the query reads the planner the compaction built
        catalog.close()

    def test_compaction_keeps_every_surviving_graph_object(self, corpus):
        """Compaction is pure row movement: the graphs it keeps are the very
        objects the catalog held, not copies."""
        graphs, spare, _ = corpus
        catalog = build(graphs)
        catalog.update_graph(5, spare[2])
        catalog.remove_graph(3)
        held = {external_id: graph for external_id, graph in catalog.live_items()}
        catalog.compact()
        assert {eid: graph for eid, graph in catalog.live_items()}.keys() == held.keys()
        for external_id, graph in catalog.live_items():
            assert graph is held[external_id], external_id
        planner_graphs = catalog.planner().graphs
        assert all(
            any(graph is kept for kept in held.values()) for graph in planner_graphs
        )
        catalog.close()

    def test_a_mutation_keeps_the_other_graphs_objects(self, corpus):
        """An add or an update appends one row; every other row's graph is
        the object the previous planner verified."""
        graphs, spare, _ = corpus
        catalog = build(graphs)
        before = list(catalog.planner().graphs)
        catalog.add_graph(spare[0])
        catalog.update_graph(6, spare[1])
        after = catalog.planner().graphs
        assert len(after) == len(before) + 2
        assert all(new is old for new, old in zip(after, before))
        assert after[-2] is spare[0] and after[-1] is spare[1]
        catalog.close()

    def test_two_catalogs_never_share_a_planner(self, corpus):
        graphs, spare, queries = corpus
        first, second = build(graphs), build(graphs)
        assert first.planner() is not second.planner()
        before = [ask(second, query) for query in queries]
        mutate(first, "compact", spare)
        mutate(first, "update", spare)
        assert [ask(second, query) for query in queries] == before
        first.close()
        second.close()


class TestThreadsShareOnePlanner:
    """Threads querying one catalog share its planner with no lock."""

    @staticmethod
    def race(work, threads: int):
        """Run ``work(slot)`` on ``threads`` threads at once, switching
        between them as often as the interpreter allows; returns the slots'
        results in slot order."""
        results: list = [None] * threads
        errors: list = []
        start = threading.Barrier(threads)

        def run(slot):
            try:
                start.wait()
                results[slot] = work(slot)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive(), "a query hung"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        return results

    def test_threads_with_different_pruning_configs_answer_as_alone(self, corpus):
        """Each thread filters with its own config's pruner, never with the
        one another thread just made the planner's: the end-to-end check
        (the one-bytecode interleaving itself is pinned, deterministically,
        by ``test_planner``'s ``test_pruner_for_returns_the_pruner_it_built``)."""
        graphs, _, queries = corpus

        def run(catalog, config):
            search = SearchConfig(verification=SEARCH_CONFIG.verification, pruning=config)
            # at δ = 0 and p = 0.5 the bound variants decide differently here
            results = [
                *catalog.query_many(queries, 0.5, 0, search, rng=SEED),
                *catalog.query_top_k_many(queries, 2, 0, search, rng=SEED),
            ]
            return pickle.dumps(
                [(answer_tuples(r), counter_dict(r.statistics)) for r in results]
            )

        alone = [run(build(graphs), config) for config in PRUNING_CONFIGS]
        assert len(set(alone)) > 1  # a pruner mix-up would show
        shared = build(graphs)
        rounds = 3
        raced = self.race(
            lambda slot: [
                run(shared, PRUNING_CONFIGS[slot % len(PRUNING_CONFIGS)])
                for _ in range(rounds)
            ],
            threads=2 * len(PRUNING_CONFIGS),
        )
        for slot, answers in enumerate(raced):
            assert answers == [alone[slot % len(PRUNING_CONFIGS)]] * rounds, slot
        shared.close()

    @pytest.mark.parametrize("kind", ["threshold", "top_k"])
    def test_threads_sampling_wide_supports_keep_their_own_counts(
        self, wide_support_corpus, kind
    ):
        """Requests that sample some candidates and sum others exactly, on
        four threads under four roots: each thread's ``sampled`` and
        ``verified`` are its own, as are its estimates."""
        graphs, queries = wide_support_corpus
        catalog = build(graphs)

        def run(slot):
            if kind == "threshold":
                results = catalog.query_many(
                    queries,
                    PROBABILITY_THRESHOLD,
                    WIDE_SUPPORT_DISTANCE,
                    SEARCH_CONFIG,
                    rng=40 + slot,
                )
            else:
                results = catalog.query_top_k_many(
                    queries, 3, WIDE_SUPPORT_DISTANCE, SEARCH_CONFIG, rng=40 + slot
                )
            return [(answer_tuples(r), counter_dict(r.statistics)) for r in results]

        alone = [run(slot) for slot in range(4)]
        for per_query in alone:
            for _, counters in per_query:
                assert 0 < counters["sampled"] < counters["verified"]
        assert self.race(run, threads=4) == alone
        catalog.close()


class TestNoProcessNoSegment:
    """A catalog forks no process and maps no shared memory."""

    @pytest.mark.parametrize(
        "pool_arguments",
        [{}, {"max_workers": 0}, {"num_shards": 4, "max_workers": 2}],
        ids=["none", "max_workers=0", "num_shards=4,max_workers=2"],
    )
    def test_a_whole_lifecycle_forks_nothing_and_maps_no_segment(
        self, corpus, tmp_path, monkeypatch, pool_arguments
    ):
        graphs, spare, queries = corpus
        segments = resident_segment_names()
        children = multiprocessing.active_children()

        def refuse(*args, **kwargs):  # pragma: no cover - the regression
            raise AssertionError("a catalog started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        catalog = build(graphs, directory=tmp_path, **pool_arguments)
        catalog.query_many(queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        catalog.query_top_k_many(queries, 2, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        for mutation in MUTATIONS:
            mutate(catalog, mutation, spare)
            assert catalog.active_shm_segments() == []
        catalog.close()
        reopened = GraphCatalog.open(tmp_path, **pool_arguments_for_open(pool_arguments))
        reopened.query(queries[1], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        reopened.compact()
        assert reopened.active_shm_segments() == []
        reopened.close()
        assert multiprocessing.active_children() == children
        assert resident_segment_names() == segments


def pool_arguments_for_open(pool_arguments: dict) -> dict:
    """``open`` takes ``max_workers`` only."""
    return {key: value for key, value in pool_arguments.items() if key == "max_workers"}


class TestPoolArgumentsAreTaken:
    """The smallest and the integer-like values of the pool arguments pass
    the check, then change nothing."""

    @pytest.mark.parametrize(
        "num_shards, max_workers",
        [(1, None), (1, 0), (np.int64(16), np.int32(16))],
        ids=["1-None", "1-0", "int64-int32"],
    )
    @pytest.mark.parametrize("entry", ["build", "from_index"])
    def test_accepted_values_answer_as_a_plain_build(
        self, corpus, entry, num_shards, max_workers
    ):
        graphs, _, queries = corpus
        plain = build(graphs)
        arguments = dict(num_shards=num_shards, max_workers=max_workers)
        if entry == "build":
            catalog = build(graphs, **arguments)
        else:
            store = plain._store
            catalog = GraphCatalog.from_index(
                store.graphs, store.pmi, store.structural, **arguments
            )
        assert type(catalog.planner()) is QueryPlanner
        for query in queries:
            assert ask(catalog, query) == ask(plain, query)
        catalog.close()
        plain.close()

    @pytest.mark.parametrize(
        "max_workers", [None, 0, np.int64(16)], ids=["None", "0", "int64"]
    )
    def test_accepted_values_open_and_answer_as_the_writer(
        self, corpus, tmp_path, max_workers
    ):
        graphs, spare, queries = corpus
        writer = build(graphs, directory=tmp_path)
        writer.add_graph(spare[0])
        want = [ask(writer, query) for query in queries]
        writer.close()
        reopened = GraphCatalog.open(tmp_path, max_workers=max_workers)
        assert [ask(reopened, query) for query in queries] == want
        reopened.close()


@pytest.mark.parametrize("k", [None, 1, 2, 4], ids=["threshold", "k=1", "k=2", "k=4"])
def test_lifecycle_answers_as_a_rebuild_at_every_step(corpus, tmp_path, k):
    """build → mutations → close → open → compact, with the pool arguments
    the end-to-end harness passes: after each step the catalog answers as a
    from-scratch rebuild of its live graphs — answers, ranks and counters."""
    graphs, spare, queries = corpus
    catalog = build(graphs, directory=tmp_path, num_shards=2, max_workers=2)

    def assert_parity(target, step):
        reference = rebuild_from_scratch(target)
        for position, query in enumerate(queries):
            if k is None:
                actual = target.query(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
                )
                expected = reference.execute(
                    query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
                )
            else:
                actual = target.query_top_k(query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED)
                expected = reference.execute_top_k(
                    query, k, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
                )
            assert_result_parity(actual, expected, f"{step}, query {position}")

    assert_parity(catalog, "build")
    catalog.add_graph(spare[0])
    catalog.remove_graph(1)
    catalog.update_graph(3, spare[1])
    assert_parity(catalog, "mutations")
    catalog.close()
    reopened = GraphCatalog.open(tmp_path, max_workers=2)
    assert_parity(reopened, "open")
    reopened.compact()
    assert_parity(reopened, "compact")
    reopened.add_graph(spare[2])
    assert_parity(reopened, "add after compact")
    reopened.close()
