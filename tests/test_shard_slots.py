"""The pool slot: one forked worker on a duplex pipe.

A pooled planner drives each worker over its own pipe: one task frame in,
one reply frame out, in order.  Under test: replies reach their own callers
when several threads fan out through one planner at once; a worker's
exception comes back as itself and a reply that cannot cross the pipe as a
typed error, both leaving the slot usable; and no worker outlives the
process that forked it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

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

PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
ROOT = Path(__file__).resolve().parent.parent


def build(database, max_workers: int) -> GraphCatalog:
    return GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=2,
        max_workers=max_workers,
    )


def outcome_bytes(results) -> list[bytes]:
    """Every answer and every counter (timings excluded), pickled one by one:
    whether two results share a string object never shows in the bytes."""
    return [
        pickle.dumps(item)
        for result in results
        for item in (*answer_tuples(result), *sorted(counter_dict(result.statistics).items()))
    ]


@pytest.mark.usefixtures("two_usable_cpus")
def test_concurrent_callers_each_get_their_own_answers():
    """Four threads send interleaved batches through one two-slot
    planner; each batch's answers and counters are pickle-identical to the
    in-process planner's for the same batch."""
    database = random_database(9801, 12)
    queries = random_workload(database, seed=9802, num_queries=6)
    # thread t asks batch (t, round): a rotation of the queries, its own roots
    batches = {
        (thread, round_): (
            queries[thread:] + queries[:thread],
            [1000 * thread + 10 * round_ + position for position in range(len(queries))],
        )
        for thread in range(4)
        for round_ in range(3)
    }
    pooled, in_process = build(database, 2), build(database, 0)
    got, errors = {}, []

    def caller(thread: int) -> None:
        try:
            for round_ in range(3):
                batch, roots = batches[thread, round_]
                got[thread, round_] = outcome_bytes(
                    pooled.query_many(
                        batch, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=roots
                    )
                )
        except Exception as exc:  # the failure under test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    threads = [threading.Thread(target=caller, args=(thread,)) for thread in range(4)]
    try:
        pooled.query_many(queries[:1], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a caller hung"
        assert not errors, f"a concurrent caller failed: {errors!r}"
        for key, (batch, roots) in batches.items():
            expected = in_process.query_many(
                batch, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=roots
            )
            assert got[key] == outcome_bytes(expected), key
    finally:
        sys.setswitchinterval(interval)
        pooled.close()
        in_process.close()


class _LockedError(Exception):
    """An exception that does not pickle: it carries a lock."""

    def __init__(self) -> None:
        super().__init__("carries a lock")
        self.lock = threading.Lock()


class _TwoPartError(Exception):
    """An exception that pickles but does not unpickle: its one pickled
    argument is the joined message, and ``__init__`` wants two."""

    def __init__(self, first: str, second: str) -> None:
        super().__init__(first + second)


def _return_a_lock():
    return threading.Lock()


def _raise_a_locked_error():
    raise _LockedError()


def _raise_a_two_part_error():
    raise _TwoPartError("two", "parts")


def _divide_by_zero():
    return 1 / 0


@pytest.mark.usefixtures("two_usable_cpus")
@pytest.mark.parametrize(
    "fn, error, message",
    [
        (_divide_by_zero, ZeroDivisionError, "division by zero"),
        (_return_a_lock, SlotError, "lock result does not pickle"),
        (_raise_a_locked_error, SlotError, "_LockedError exception does not pickle"),
        (_raise_a_two_part_error, SlotError, "reply does not unpickle"),
    ],
)
def test_a_worker_error_crosses_back_typed_and_the_slot_lives(fn, error, message):
    """A worker-side exception comes back as itself; a reply that cannot
    cross the pipe comes back as a ``SlotError``.  Either way the slot's
    worker lives on and the next query answers as the in-process one."""
    database = random_database(9901, 10)
    queries = random_workload(database, seed=9902, num_queries=2)
    pooled, in_process = build(database, 2), build(database, 0)

    def ask(catalog):
        return outcome_bytes(
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=[3, 4]
            )
        )

    try:
        ask(pooled)
        pids = pooled.planner().map_slots(os.getpid)
        with pytest.raises(error, match=message):
            pooled.planner().map_slots(fn)
        assert pooled.planner().map_slots(os.getpid) == pids
        assert ask(pooled) == ask(in_process)
    finally:
        pooled.close()
        in_process.close()


def _store_digests() -> list[bytes]:
    """Runs in a pool worker: the digests of the graphs it holds."""
    return sorted(sharding._WORKER_GRAPHS)


@pytest.mark.usefixtures("two_usable_cpus")
def test_a_frame_naming_an_unknown_digest_is_a_typed_error_and_the_slot_lives():
    """A verify frame that names a graph its worker does not hold raises a
    ``SlotError`` before anything is verified; the worker keeps its store as
    it was and the next query answers as the in-process one."""
    database = random_database(9951, 10)
    queries = random_workload(database, seed=9952, num_queries=2)
    pooled, in_process = build(database, 2), build(database, 0)

    def ask(catalog):
        return outcome_bytes(
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=[3, 4]
            )
        )

    try:
        ask(pooled)
        planner = pooled.planner()
        pids = planner.map_slots(os.getpid)
        held = planner.map_slots(_store_digests)
        assert any(held)
        plan = planner.plan(queries[0], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG)
        unknown = bytes(16)
        frame = [(pickle.dumps((plan, 3)), np.array([0]), [unknown])]
        with pytest.raises(SlotError, match=f"holds no graph with digest {unknown.hex()}"):
            planner.map_slots(sharding._verify_slot, [], {}, frame)
        assert planner.map_slots(os.getpid) == pids
        assert planner.map_slots(_store_digests) == held
        assert ask(pooled) == ask(in_process)
    finally:
        pooled.close()
        in_process.close()


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    sys.path[:0] = [{root!r}, {src!r}, {tests!r}]
    from test_sharding_parity import FEATURE_CONFIG, SEARCH_CONFIG, random_database, random_workload
    from repro.core import GraphCatalog, sharding
    from repro.pmi import BoundConfig

    sharding.usable_cores = lambda: 2  # fork the pool under test on any host
    database = random_database(9921, 10)
    catalog = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40), rng=5, num_shards=2, max_workers=2,
    )
    catalog.query_many(random_workload(database, seed=9922), 0.3, 1, SEARCH_CONFIG)
    print(json.dumps(catalog.planner().map_slots(os.getpid)))
    """
)


@pytest.mark.usefixtures("two_usable_cpus")
def test_no_slot_worker_outlives_its_process():
    """A process that exits without closing its pooled catalog leaves no
    worker behind; in this process, once every catalog is closed and the
    parked pools are shut down, no child is left."""
    script = ORPHAN_SCRIPT.format(root=str(ROOT), src=str(ROOT / "src"), tests=str(ROOT / "tests"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    pids = json.loads(done.stdout.splitlines()[-1])
    assert len(pids) == 2
    assert not any(os.path.isdir(f"/proc/{pid}") for pid in pids), "an orphaned slot worker"

    database = random_database(9931, 8)
    catalog = build(database, 2)
    pids = catalog.planner().map_slots(os.getpid)
    catalog.close()
    assert all(os.path.isdir(f"/proc/{pid}") for pid in pids), "close() parks its workers"
    sharding.shutdown_parked_pools()
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("max_workers", [None, 2])
def test_default_width_counts_usable_cpus_not_the_machine(monkeypatch, max_workers):
    """The pool is never wider than the CPUs this process may run on: pinned
    to one CPU, a catalog capped at two slots runs width 1 and forks
    nothing, whatever ``os.cpu_count()`` says — with ``max_workers=None``
    (the usable CPUs) and with an explicit ``max_workers=2`` alike."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sharding.usable_cores() == 1
    database = random_database(9941, 8)
    catalog = build(database, max_workers)
    try:
        planner = catalog.planner()
        assert planner.width == 1
        results = catalog.query_many(
            random_workload(database, seed=9942), PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
            SEARCH_CONFIG, rng=3,
        )
        assert any(result.statistics.verified for result in results)
        assert planner.map_slots(os.getpid) == []
        assert planner._slots == []
        assert multiprocessing.active_children() == []
    finally:
        catalog.close()


@pytest.mark.usefixtures("two_usable_cpus")
def test_the_width_is_capped_by_the_usable_cpus():
    """``max_workers`` is a ceiling like ``num_shards``: on two usable CPUs
    a catalog of four shards and four workers forks two, and answers as the
    in-process one."""
    database = random_database(9961, 10)
    queries = random_workload(database, seed=9962, num_queries=2)
    pooled = GraphCatalog.build(
        database.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(num_samples=40),
        rng=5,
        num_shards=4,
        max_workers=4,
    )
    in_process = build(database, 0)

    def ask(catalog):
        return outcome_bytes(
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rngs=[3, 4]
            )
        )

    try:
        planner = pooled.planner()
        assert planner.width == 2
        pids = planner.map_slots(os.getpid)
        assert len(set(pids)) == 2
        assert ask(pooled) == ask(in_process)
        assert planner.map_slots(os.getpid) == pids
    finally:
        pooled.close()
        in_process.close()
