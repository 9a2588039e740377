"""Pooled fan-out: throughput, pool spin-up, and the graphs frames ship.

The catalog's planner filters in the parent and deals the verification of
threshold survivors to a process pool; this benchmark measures what that
costs and what it buys:

* **throughput** — ``query_many`` through W workers (``num_shards`` and
  the usable CPUs cap the pool) against the sequential planner, with answer-for-answer parity
  checked along the way (the pool must be a pure speedup, never a
  different answer);
* **graph bytes shipped** — the graph pickles each slot's frames carry on
  the first pass of the request list (``graph_bytes_shipped_per_slot``: each
  survivor graph once per worker) and on a second pass of the same list
  (``second_pass_graph_bytes``, which must be 0: the workers hold them);
* **pool spin-up** — wall-clock from no pool to every slot's worker
  answering a no-op (parked pools are shut down first, so this is the fork;
  a worker receives its graphs with the frames that verify them);
* **fan-out round trip** (``fanout_roundtrip_ms``) — the median of 200
  no-op ``map_slots`` calls at width 2: what one fan-out costs the transport
  alone, with no verification in it;
* **reopen** — wall-clock of ``GraphCatalog.open`` plus the first query
  after a ``close()``, on the workers that close parked;
* **per-worker memory** — each worker's private bytes at spin-up (no graph
  yet) and the graphs each slot's worker holds after the workload
  (``post_query_held_graphs_per_slot``), against the catalog's live graphs;
* **what a worker holds** — a gc scan in every worker after a threshold and
  a top-k query must find no index or planner object it did not inherit at
  fork (``worker_index_objects``: a verifier holds graphs only).

The speedup assertion (>= 1.5x at 4 workers) only fires on a full run when
the hardware can express it: with fewer than 4 usable cores (or under
xdist) the benchmark still runs, verifies parity, and records the ratio.
The pool is never wider than the CPUs the process may run on, so with fewer
than 2 usable CPUs there is no pool to measure: the benchmark exits non-zero
before it builds anything.

Run as a script::

    python benchmarks/bench_sharded_throughput.py            # full run
    python benchmarks/bench_sharded_throughput.py --smoke    # CI mode

Each run appends one trajectory point to ``BENCH_sharding.json`` (``--out``
to relocate), so the perf history accumulates across commits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

# allow `python benchmarks/bench_sharded_throughput.py` from the repo root
# (CI) as well as pytest collection, where the root is already importable
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import GraphCatalog, QueryPlanner, SearchConfig, VerificationConfig
from repro.core.sharding import shutdown_parked_pools, usable_cores
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.atomic_io import atomic_write_text
from repro.utils.timer import Timer

from benchmarks.conftest import (
    BENCH_BOUND_CONFIG,
    BENCH_DATASET_CONFIG,
    BENCH_FEATURE_CONFIG,
    BENCH_SEED,
    print_table,
)

PROBABILITY_THRESHOLD = 0.4
DISTANCE_THRESHOLD = 1
QUERY_SIZE = 4
NUM_SHARDS = 4
SPEEDUP_FLOOR = 1.5
FANOUT_CALLS = 200
FANOUT_WIDTH = 2

SHARDED_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=400)
)

FULL = {
    "dataset": BENCH_DATASET_CONFIG,
    "num_queries": 8,
    "num_workers": 4,
}

SMOKE = {
    "dataset": PPIDatasetConfig(
        num_graphs=12,
        num_families=2,
        vertices_per_graph=12,
        edges_per_graph=16,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "num_queries": 4,
    "num_workers": 2,
}


def _worker_probe() -> dict:
    """Runs inside a slot's worker: memory and the graphs it holds."""
    from repro.core import sharding

    held = list(sharding._WORKER_GRAPHS.values())
    private_dirty_kb = None
    try:
        with open("/proc/self/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith("Private_Dirty:"):
                    private_dirty_kb = int(line.split()[1])
    except OSError:
        pass
    gc.collect()
    kinds = (ProbabilisticMatrixIndex, StructuralFeatureIndex, QueryPlanner)
    return {
        "pid": os.getpid(),
        # ids of the index and planner objects alive here; those inherited at
        # fork keep their ids, so a new id is one this worker built
        "index_object_ids": [id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)],
        "held_graph_bytes": sum(len(pickle.dumps(graph)) for graph in held),
        "held_graphs": len(held),
        "private_dirty_kb": private_dirty_kb,
    }


def _noop() -> None:
    """A slot task that does nothing: a fan-out of it costs the transport only."""


def measure_fanout_roundtrip(database) -> float:
    """Median milliseconds of one no-op ``map_slots`` call at width 2 — a
    round trip to every slot's worker and back — over ``FANOUT_CALLS``
    calls on warm workers."""
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=BENCH_FEATURE_CONFIG,
        bound_config=BENCH_BOUND_CONFIG,
        rng=BENCH_SEED,
        num_shards=NUM_SHARDS,
        max_workers=FANOUT_WIDTH,
    )
    try:
        planner = catalog.planner()
        planner.map_slots(_noop)  # fork or adopt the workers outside the timing
        samples = []
        for _ in range(FANOUT_CALLS):
            started = time.perf_counter()
            planner.map_slots(_noop)
            samples.append(time.perf_counter() - started)
    finally:
        catalog.close()
    return statistics.median(samples) * 1e3


def measure_spinup(database, queries, workers: int) -> dict:
    """Pool spin-up cost, what a worker builds, and the graph bytes each
    slot is shipped on two passes of the request list."""
    catalog = GraphCatalog.build(
        database.graphs,
        feature_config=BENCH_FEATURE_CONFIG,
        bound_config=BENCH_BOUND_CONFIG,
        rng=BENCH_SEED,
        num_shards=NUM_SHARDS,
        max_workers=workers,
    )
    try:
        planner = catalog.planner()
        spinup_timer = Timer()
        with spinup_timer:
            planner.map_slots(_noop)
        # outside the timing: the probe's gc scan is not spin-up
        probes = planner.map_slots(_worker_probe)

        def threshold_pass():
            catalog.query_many(
                queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD,
                config=SHARDED_SEARCH_CONFIG, rng=BENCH_SEED,
            )
            return [slot.graph_bytes for slot in planner._slots]

        first_pass = threshold_pass()
        catalog.query_top_k_many(
            queries, 2, DISTANCE_THRESHOLD, config=SHARDED_SEARCH_CONFIG, rng=BENCH_SEED
        )
        inherited = {probe["pid"]: set(probe["index_object_ids"]) for probe in probes}
        built = [
            len(set(probe["index_object_ids"]) - inherited[probe["pid"]])
            for probe in planner.map_slots(_worker_probe)
        ]
        second_pass = sum(threshold_pass()) - sum(first_pass)
    finally:
        catalog.close()
    return {
        "graph_bytes_shipped_per_slot": first_pass,
        "second_pass_graph_bytes": second_pass,
        "worker_index_objects": built,
        "spinup_seconds": spinup_timer.elapsed,
        "workers_probed": len(probes),
        "probes": probes,
    }


def measure_reopen(database, queries, workers: int) -> dict:
    """Seconds from a closed durable catalog to its first answer again —
    ``GraphCatalog.open`` plus one query — on the workers the close parked
    (the catalog was opened once before, so its graphs are the snapshot's)."""

    def ask(catalog):
        catalog.query_many(
            queries[:1],
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=SHARDED_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )

    with tempfile.TemporaryDirectory() as directory:
        GraphCatalog.build(
            database.graphs,
            feature_config=BENCH_FEATURE_CONFIG,
            bound_config=BENCH_BOUND_CONFIG,
            rng=BENCH_SEED,
            num_shards=NUM_SHARDS,
            max_workers=workers,
            directory=directory,
        ).close()
        catalog = GraphCatalog.open(directory, max_workers=workers)
        ask(catalog)
        pids = catalog.planner().map_slots(os.getpid)
        catalog.close()
        reopen_timer = Timer()
        with reopen_timer:
            catalog = GraphCatalog.open(directory, max_workers=workers)
            ask(catalog)
        kept = catalog.planner().map_slots(os.getpid) == pids
        catalog.close()
    return {"reopen_seconds": reopen_timer.elapsed, "workers_kept": kept}


def run_sharded_comparison(database, queries, workers: int) -> dict:
    sequential_catalog = GraphCatalog.build(
        database.graphs,
        feature_config=BENCH_FEATURE_CONFIG,
        bound_config=BENCH_BOUND_CONFIG,
        rng=BENCH_SEED,
    )
    sharded_catalog = GraphCatalog.build(
        database.graphs,
        feature_config=BENCH_FEATURE_CONFIG,
        bound_config=BENCH_BOUND_CONFIG,
        rng=BENCH_SEED,
        num_shards=NUM_SHARDS,
        max_workers=workers,
    )

    sequential_timer = Timer()
    with sequential_timer:
        sequential_results = sequential_catalog.query_many(
            queries,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=SHARDED_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )

    # warm the pool (worker spawn, the first graphs shipped) outside the timed
    # region, the way a serving deployment would run with long-lived workers
    sharded_catalog.query_many(
        queries[:1],
        PROBABILITY_THRESHOLD,
        DISTANCE_THRESHOLD,
        config=SHARDED_SEARCH_CONFIG,
        rng=BENCH_SEED,
    )
    sharded_timer = Timer()
    with sharded_timer:
        sharded_results = sharded_catalog.query_many(
            queries,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=SHARDED_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )
    # after the workload: how many graphs does each slot's worker hold?
    post_query_probes = sharded_catalog.planner().map_slots(_worker_probe)
    live_graphs = sharded_catalog.num_live
    sharded_catalog.close()

    # parity first: a pooled run that answers differently is wrong, not fast
    for sequential, sharded in zip(sequential_results, sharded_results):
        assert [
            (a.graph_id, a.probability, a.decided_by) for a in sequential.answers
        ] == [(a.graph_id, a.probability, a.decided_by) for a in sharded.answers]

    return {
        "num_queries": len(queries),
        "sequential_seconds": sequential_timer.elapsed,
        "sharded_seconds": sharded_timer.elapsed,
        "sequential_qps": len(queries) / max(sequential_timer.elapsed, 1e-9),
        "sharded_qps": len(queries) / max(sharded_timer.elapsed, 1e-9),
        "speedup": sequential_timer.elapsed / max(sharded_timer.elapsed, 1e-9),
        "post_query_probes": post_query_probes,
        "live_graphs": live_graphs,
    }


def run_benchmark(profile: dict) -> dict:
    database = generate_ppi_database(profile["dataset"], rng=BENCH_SEED)
    workload = generate_query_workload(
        database.graphs,
        query_size=QUERY_SIZE,
        num_queries=profile["num_queries"],
        organisms=database.organisms,
        rng=BENCH_SEED,
    )
    queries = [record.query for record in workload]
    workers = profile["num_workers"]

    # a pool parked by an earlier close would make spin-up a no-op
    shutdown_parked_pools()
    spinup = measure_spinup(database, queries, workers)
    throughput = run_sharded_comparison(database, queries, workers)
    reopen = measure_reopen(database, queries, workers)
    fanout_roundtrip_ms = measure_fanout_roundtrip(database)

    return {
        "num_graphs": len(database.graphs),
        "num_shards": NUM_SHARDS,
        "num_workers": workers,
        "usable_cores": usable_cores(),
        **{k: v for k, v in throughput.items() if k != "post_query_probes"},
        "graph_bytes_shipped_per_slot": spinup["graph_bytes_shipped_per_slot"],
        "second_pass_graph_bytes": spinup["second_pass_graph_bytes"],
        "worker_index_objects": spinup["worker_index_objects"],
        "shm_spinup_seconds": spinup["spinup_seconds"],
        "workers_probed": spinup["workers_probed"],
        "reopen_first_query_seconds": reopen["reopen_seconds"],
        "reopen_kept_workers": reopen["workers_kept"],
        "fanout_roundtrip_ms": fanout_roundtrip_ms,
        "spinup_worker_private_dirty_kb": [
            probe["private_dirty_kb"] for probe in spinup["probes"]
        ],
        "post_query_held_graphs_per_slot": [
            probe["held_graphs"] for probe in throughput["post_query_probes"]
        ],
        "post_query_held_graph_bytes": max(
            (probe["held_graph_bytes"] for probe in throughput["post_query_probes"]),
            default=0,
        ),
        "post_query_worker_private_dirty_kb": [
            probe["private_dirty_kb"] for probe in throughput["post_query_probes"]
        ],
    }


def append_trajectory_point(path: Path, point: dict) -> None:
    """Append one run to the JSON trajectory (a list of run records)."""
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(point)
    atomic_write_text(path, json.dumps(history, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small dataset, 2 workers, no speedup floor (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_sharding.json"),
        help="trajectory file to append this run's point to",
    )
    args = parser.parse_args()
    if usable_cores() < FANOUT_WIDTH:
        sys.exit(
            f"bench_sharded_throughput measures a pool and needs {FANOUT_WIDTH} usable "
            f"CPUs to fork one; this process may run on {usable_cores()}"
        )
    profile = SMOKE if args.smoke else FULL

    report = run_benchmark(profile)
    print_table(
        f"Pooled throughput: sequential vs {report['num_workers']} workers, capped at "
        f"{NUM_SHARDS} ({report['usable_cores']} usable cores)",
        ["executor", "queries", "seconds", "queries/s"],
        [
            [
                "sequential planner",
                report["num_queries"],
                f"{report['sequential_seconds']:.3f}",
                f"{report['sequential_qps']:.2f}",
            ],
            [
                f"pooled (W={report['num_workers']})",
                report["num_queries"],
                f"{report['sharded_seconds']:.3f}",
                f"{report['sharded_qps']:.2f}",
            ],
        ],
    )
    print(f"speedup: {report['speedup']:.2f}x")
    print(
        f"fan-out round trip: {report['fanout_roundtrip_ms']:.3f} ms "
        f"(median of {FANOUT_CALLS} no-op map_slots calls at width {FANOUT_WIDTH})"
    )
    print(
        f"pool spin-up: {report['shm_spinup_seconds']:.3f} s, reopen to first "
        f"answer on the parked pool: {report['reopen_first_query_seconds']:.3f} s; "
        f"graph bytes shipped per slot {report['graph_bytes_shipped_per_slot']} on "
        f"the first pass, {report['second_pass_graph_bytes']} B on the second; "
        f"worst worker holds {report['post_query_held_graph_bytes']} B of graphs"
    )

    point = {
        "bench": "sharding",
        "mode": "smoke" if args.smoke else "full",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        **report,
    }
    append_trajectory_point(args.out, point)
    print(f"trajectory point appended to {args.out}")

    # a graph goes to a worker once: the contract holds at any scale, so it
    # is asserted in smoke runs too — a repeated request list ships nothing
    assert any(report["graph_bytes_shipped_per_slot"]), "no graph was shipped"
    assert report["second_pass_graph_bytes"] == 0, (
        f"the second pass of the request list shipped "
        f"{report['second_pass_graph_bytes']} B of graphs its workers held"
    )
    # and frames carry survivors only, each to one worker: workers holding
    # every live graph between them were sent graphs the filters discarded
    held = report["post_query_held_graphs_per_slot"]
    assert 0 < sum(held) < report["live_graphs"], (
        f"graphs held per slot {held} of {report['live_graphs']} live: a frame "
        "ships graphs that are not survivors"
    )
    # a worker verifies graphs: it builds no index and no planner
    assert report["worker_index_objects"] and not any(report["worker_index_objects"]), (
        f"index or planner objects built per worker: {report['worker_index_objects']}"
    )
    # a reopened catalog of the same width runs on the workers close() parked
    assert report["reopen_kept_workers"], "the reopened catalog forked new workers"
    under_xdist = "PYTEST_XDIST_WORKER" in os.environ
    if (
        not args.smoke
        and report["usable_cores"] >= report["num_workers"]
        and not under_xdist
    ):
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x at {report['num_workers']} workers on "
            f"{report['usable_cores']} cores, measured {report['speedup']:.2f}x"
        )


if __name__ == "__main__":
    main()
