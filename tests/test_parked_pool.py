"""Parked worker pools: a closed planner's workers serve the next planner.

``ShardedPlanner.close()`` runs one release task per slot — each worker
drops every shard view, planner and descriptor, unmaps every segment and
keeps only the graphs it had deserialized, keyed by pickle digest — then
unlinks the plane and parks the slot list for the next planner of the same
width.  Under test: a reopened catalog keeps its worker pids and finds its
graphs already deserialized; answers and counters equal a fresh pool's; a
parked worker maps nothing and ``/dev/shm`` is empty; two live planners
never share a worker; at most one list per width waits; a failed
materialization leaves neither a mapping nor a lost view behind; and a
release that raises shuts every worker of the list down.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from test_shm_parity import _mark_held_graphs
from test_sharding_parity import (
    FEATURE_CONFIG,
    SEARCH_CONFIG,
    answer_tuples,
    counter_dict,
    random_database,
    random_workload,
)

from repro.core import GraphCatalog, ShardPlane, Verifier, sharding
from repro.core.pipeline import verify_rows
from repro.exceptions import ShmError
from repro.pmi import BoundConfig
from repro.utils import shm
from repro.utils.shm import resident_segment_names

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>")


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


def durable_catalog(database, directory, num_shards: int = 2) -> GraphCatalog:
    """A durable catalog behind a two-worker pool, closed and reopened once:
    a graph built in this process carries build-time memos in its pickle, a
    graph read off the snapshot does not, so only from the first reopen on
    does a closed catalog's graph have the digest its successor publishes."""
    GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=num_shards,
        max_workers=2,
        directory=directory,
    ).close()
    sharding.shutdown_parked_pools()
    return GraphCatalog.open(directory, max_workers=2)


def run(catalog, queries) -> list:
    """Threshold and top-k answers of ``queries``, one root each."""
    roots = list(range(len(queries)))
    return catalog.query_many(
        queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=roots
    ) + catalog.query_top_k_many(queries, 2, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=7)


def outcome(results) -> list:
    """Answers and counters (timings excluded), value for value."""
    return [(answer_tuples(result), counter_dict(result.statistics)) for result in results]


def mapped_segments(pid: int) -> list[str]:
    with open(f"/proc/{pid}/maps") as maps:
        return [line.split()[-1] for line in maps if "tpsshm_" in line]


def _held_graphs() -> tuple[int, int]:
    """Runs in a pool worker: (graphs it holds deserialized, how many of them
    carry :func:`test_shm_parity._mark_held_graphs`' tag)."""
    held = [
        graph
        for shard in sharding._WORKER_SHARDS.values()
        for part in (shard.graphs.base, shard.graphs.delta)
        for graph in part.by_digest().values()
    ]
    return len(held), sum("_held_before" in graph.__dict__ for graph in held)


def test_a_reopened_catalog_keeps_its_workers_and_their_graphs(tmp_path):
    database = random_database(9101, 12)
    queries = random_workload(database, seed=9102, num_queries=4)
    catalog = durable_catalog(database, tmp_path)
    try:
        run(catalog, queries)
        pids = catalog.planner().map_slots(os.getpid)
        held = catalog.planner().map_slots(_mark_held_graphs)
        assert all(held)
        catalog.close()
        catalog = GraphCatalog.open(tmp_path, max_workers=2)
        run(catalog, queries)
        assert catalog.planner().map_slots(os.getpid) == pids
        # the same queries: every graph a slot holds is one it held before
        assert catalog.planner().map_slots(_held_graphs) == [(count, count) for count in held]
    finally:
        catalog.close()


@pytest.mark.parametrize("num_shards", [2, 4])
def test_answers_on_a_parked_pool_equal_a_fresh_pool(tmp_path, num_shards):
    """close -> open -> query, twice, with a mutation and a compaction in
    between: the same answers and counters as the same sequence on freshly
    forked workers and on the in-process catalog."""
    database = random_database(9201, 12)
    spare = random_database(9202, 2).graphs
    queries = random_workload(database, seed=9203, num_queries=3)
    outcomes = {}
    for mode in ("parked", "fresh", "in-process"):
        directory = tmp_path / mode
        catalog = durable_catalog(database, directory, num_shards)
        pids = catalog.planner().map_slots(os.getpid)
        seen = []
        try:
            for step in range(3):
                seen.append(run(catalog, queries))
                if step == 1:
                    catalog.update_graph(3, spare[0])
                    catalog.add_graph(spare[1])
                    seen.append(run(catalog, queries))
                    catalog.compact()
                catalog.close()
                if mode == "fresh":
                    sharding.shutdown_parked_pools()
                catalog = GraphCatalog.open(directory, max_workers=0 if mode == "in-process" else 2)
            seen.append(run(catalog, queries))
            reopened = catalog.planner().map_slots(os.getpid)
            assert (reopened == pids) == (mode == "parked"), mode
        finally:
            catalog.close()
        outcomes[mode] = outcome(result for results in seen for result in results)
    assert outcomes["parked"] == outcomes["fresh"] == outcomes["in-process"]


def test_a_parked_worker_maps_nothing_and_dev_shm_is_empty(tmp_path):
    database = random_database(9301, 10)
    # a query from every graph: each shard has survivors, so each worker is
    # sent a frame and maps its shard's base
    queries = random_workload(database, seed=9302, num_queries=len(database.graphs))
    before = set(resident_segment_names())
    catalog = durable_catalog(database, tmp_path)
    try:
        run(catalog, queries)
        pids = catalog.planner().map_slots(os.getpid)
        assert all(mapped_segments(pid) for pid in pids)
    finally:
        catalog.close()
    assert set(resident_segment_names()) == before
    for pid in pids:
        assert os.path.isdir(f"/proc/{pid}"), "the worker was parked, not shut down"
        assert mapped_segments(pid) == []


def test_two_live_catalogs_never_share_a_worker(tmp_path):
    database = random_database(9401, 10)
    queries = random_workload(database, seed=9402)
    first = durable_catalog(database, tmp_path / "first")
    second = durable_catalog(database, tmp_path / "second")
    try:
        run(first, queries)
        run(second, queries)
        first_pids = first.planner().map_slots(os.getpid)
        second_pids = second.planner().map_slots(os.getpid)
        assert not set(first_pids) & set(second_pids)
        second.close()
        third = GraphCatalog.open(tmp_path / "second", max_workers=2)
        try:
            assert third.planner().map_slots(os.getpid) == second_pids
            assert first.planner().map_slots(os.getpid) == first_pids
        finally:
            third.close()
    finally:
        first.close()
        second.close()


def test_at_most_one_parked_list_per_width(tmp_path):
    """Two catalogs of one width close: the list parked last waits, the
    other's workers are shut down (joined, so gone from /proc)."""
    database = random_database(9501, 10)
    queries = random_workload(database, seed=9502)
    first = durable_catalog(database, tmp_path / "first")
    second = durable_catalog(database, tmp_path / "second")
    run(first, queries)
    run(second, queries)
    first_pids = first.planner().map_slots(os.getpid)
    second_pids = second.planner().map_slots(os.getpid)
    first.close()
    second.close()
    assert [key for key in sharding._PARKED if key[0] == os.getpid()] == [(os.getpid(), 2)]
    assert not any(os.path.isdir(f"/proc/{pid}") for pid in first_pids)
    assert all(os.path.isdir(f"/proc/{pid}") for pid in second_pids)
    sharding.shutdown_parked_pools()
    assert not any(os.path.isdir(f"/proc/{pid}") for pid in second_pids)


def test_a_failed_materialization_keeps_the_previous_view_and_maps_nothing():
    """A task naming a delta that cannot be read raises before anything is
    attached, and the worker's previous view of the shard stays; the next
    good task over a new generation adopts that view's graphs."""
    database = random_database(9601, 8)
    queries = random_workload(database, seed=9602, num_queries=2)
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=2,
        max_workers=0,
    )
    planner = catalog.planner()
    first, second = ShardPlane(planner.shards), ShardPlane(planner.shards)
    try:
        descriptor, delta = first.descriptors[0], first.delta_segment_names()[0]
        worker = sharding._worker_shard(descriptor, delta)
        rows = np.flatnonzero(worker.active_mask)
        for query in queries:
            plan = planner.plan(query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
            verify_rows(
                Verifier(plan.config.verification), worker.graphs, worker.graph_ids, plan, rows, 1
            )
        previous = sharding._WORKER_SHARDS[0]
        held = previous.graphs.base.by_digest()
        assert held
        attached, maps = len(shm._ATTACHED), mapped_segments(os.getpid())

        for target in (first.descriptors[0], second.descriptors[0]):  # same base, new base
            with pytest.raises(ShmError):
                sharding.materialize_shard(target, "tpsshm_0_missing", previous=previous)
            with pytest.raises(ShmError):
                sharding._worker_shard(target, "tpsshm_0_missing")
            assert (len(shm._ATTACHED), mapped_segments(os.getpid())) == (attached, maps)
            assert sharding._WORKER_SHARDS[0] is previous is worker

        del previous, worker  # a live view would keep the old base mapped
        sharding._worker_shard(second.descriptors[0], second.delta_segment_names()[0])
        swapped = sharding._WORKER_SHARDS[0]
        assert swapped.arena.descriptor.segment == second.base_segment_names()[0]
        adopted = swapped.graphs.base.by_digest()
        assert adopted.keys() == held.keys()
        assert all(adopted[digest] is graph for digest, graph in held.items())
        assert len(shm._ATTACHED) == attached  # the old base was detached
    finally:
        sharding._release_worker()
        sharding._WORKER_PARKED.clear()
        first.close()
        second.close()
        catalog.close()


def _refuse_release() -> int:
    """Stands in for ``sharding._release_worker`` in a worker: a release
    that fails for a reason other than a dead worker."""
    raise ShmError("release refused")


def test_a_release_that_raises_shuts_every_slot_down(monkeypatch):
    """``close()`` raises the release's error, and no worker is left behind:
    the slots were taken from the planner before the release ran, so a list
    that is neither parked nor shut down would be reaped only at exit."""
    database = random_database(9701, 10)
    queries = random_workload(database, seed=9702, num_queries=2)
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=2,
        max_workers=2,
    )
    sharding.shutdown_parked_pools()  # the patch must reach freshly forked workers
    monkeypatch.setattr(sharding, "_release_worker", _refuse_release)
    try:
        run(catalog, queries)
        planner = catalog.planner()
        pids = planner.map_slots(os.getpid)
        with pytest.raises(ShmError, match="release refused"):
            catalog.close()
        assert planner._slots == []
        assert (os.getpid(), 2) not in sharding._PARKED
        assert not any(os.path.isdir(f"/proc/{pid}") for pid in pids), "orphaned slot workers"
    finally:
        catalog.close()
