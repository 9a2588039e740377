"""Parked worker pools: a closed planner's workers serve the next planner.

``ShardedPlanner.close()`` runs one release task per slot — each worker
keeps only the graphs it verified since its previous park, keyed by pickle
digest, and that list of digests becomes its slot's record — then parks the
slot list for the next planner of the same width.  Under test: a reopened
catalog keeps its worker pids and finds its graphs already held, so its
first query ships none of them; answers and counters equal a fresh pool's;
no worker ever maps a shared-memory segment and a whole pooled lifecycle
leaves ``/dev/shm`` as it was; two live planners never share a worker; at
most one list per width waits; and a release that raises shuts every worker
of the list down.
"""

from __future__ import annotations

import gc
import os

import pytest

from test_pool_parity import _mark_held_graphs
from test_sharding_parity import (
    FEATURE_CONFIG,
    SEARCH_CONFIG,
    answer_tuples,
    counter_dict,
    random_database,
    random_workload,
)

from repro.core import GraphCatalog, sharding
from repro.exceptions import SlotError
from repro.pmi import BoundConfig

from tests.conftest import resident_segment_names

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1

# every test here drives a real two-slot pool, on a one-CPU host too
pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>"),
    pytest.mark.usefixtures("two_usable_cpus"),
]


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


def durable_catalog(database, directory, num_shards: int = 2) -> GraphCatalog:
    """A durable catalog behind a two-worker pool, closed and reopened once,
    so that it and every successor hold graphs read off the same snapshot."""
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
    """Runs in a pool worker: (graphs it holds, how many of them carry
    :func:`test_pool_parity._mark_held_graphs`' tag)."""
    held = list(sharding._WORKER_GRAPHS.values())
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
        shipped = [slot.graph_bytes for slot in catalog.planner()._slots]
        catalog.close()
        catalog = GraphCatalog.open(tmp_path, max_workers=2)
        slots = catalog.planner()._slots or sharding._PARKED[os.getpid(), 2]
        assert [len(slot.held) for slot in slots] == held  # the record came along
        run(catalog, queries)
        assert catalog.planner().map_slots(os.getpid) == pids
        # the same queries: every graph a slot holds is one it held before,
        # and not one graph byte went out again
        assert catalog.planner().map_slots(_held_graphs) == [(count, count) for count in held]
        assert [slot.graph_bytes for slot in catalog.planner()._slots] == shipped
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
    # a query from every graph: the survivors are dealt to both slots, so each worker is
    # sent a frame with graphs in it
    queries = random_workload(database, seed=9302, num_queries=len(database.graphs))
    before = set(resident_segment_names())
    catalog = durable_catalog(database, tmp_path)
    try:
        run(catalog, queries)
        pids = catalog.planner().map_slots(os.getpid)
        assert all(count for count, _ in catalog.planner().map_slots(_held_graphs))
        assert not any(mapped_segments(pid) for pid in pids)
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


def test_a_pooled_catalog_lifecycle_leaves_dev_shm_unchanged(tmp_path):
    """build -> query -> mutate -> query -> compact -> query -> close ->
    open -> query on a pooled durable catalog: nothing ever appears in
    /dev/shm, and the reopened catalog answers as an in-process one."""
    database = random_database(9651, 10)
    spare = random_database(9652, 2).graphs
    queries = random_workload(database, seed=9653, num_queries=3)
    shm_dir = "/dev/shm"
    before = sorted(os.listdir(shm_dir))
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=2,
        max_workers=2,
        directory=tmp_path,
    )
    try:
        run(catalog, queries)
        assert catalog.planner()._slots  # the pool ran
        catalog.update_graph(3, spare[0])
        catalog.add_graph(spare[1])
        catalog.remove_graph(4)
        run(catalog, queries)
        assert sorted(os.listdir(shm_dir)) == before
        catalog.compact()
        run(catalog, queries)
        catalog.close()
        assert sorted(os.listdir(shm_dir)) == before
        catalog = GraphCatalog.open(tmp_path, max_workers=2)
        reopened = outcome(run(catalog, queries))
        catalog.close()
        catalog = GraphCatalog.open(tmp_path, max_workers=0)
        assert reopened == outcome(run(catalog, queries))
    finally:
        catalog.close()
    assert sorted(os.listdir(shm_dir)) == before


def _refuse_release() -> int:
    """Stands in for ``sharding._release_worker`` in a worker: a release
    that fails for a reason other than a dead worker."""
    raise SlotError("release refused")


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
        with pytest.raises(SlotError, match="release refused"):
            catalog.close()
        assert planner._slots == []
        assert (os.getpid(), 2) not in sharding._PARKED
        assert not any(os.path.isdir(f"/proc/{pid}") for pid in pids), "orphaned slot workers"
    finally:
        catalog.close()
