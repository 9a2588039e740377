"""Query-service load: micro-batching throughput, latency, mixed traffic.

A closed-loop load generator drives the always-on query service the way a
serving deployment would — N client coroutines, each firing its next
request the moment the previous answer lands — and measures what the
service layer adds and what micro-batching buys:

* **parity under load** — every seeded answer produced under concurrent
  traffic is compared byte-for-byte against a twin catalog queried
  sequentially (the service must never trade correctness for throughput);
* **batching throughput** — the same closed-loop workload through
  ``max_batch_size=1`` (every request its own backend call) vs the real
  micro-batching path, over the same in-process backend; the ratio is the
  price of ignoring coalescing.  The answer cache is disabled for both
  sides so the ratio measures batching, not memoization;
* **mixed traffic with mutation churn** — queries keep flowing while a
  mutator client adds/removes graphs through the service; afterwards a
  twin that received the same mutation sequence must still agree
  byte-for-byte (generation-keyed caching and the mutation barrier at
  work);
* **latency trajectory** — queue/execute/total percentiles from the
  service's own ``/stats`` plus client-observed p50/p95/p99 per phase,
  appended to ``BENCH_service.json``.

The >= 2x batched-vs-unbatched floor (full mode, 64 clients) only fires
on hosts with at least ``FLOOR_CORES`` usable CPUs; smoke runs record the
ratio and always check parity.

Run as a script::

    python benchmarks/bench_service_load.py            # full run
    python benchmarks/bench_service_load.py --smoke    # CI mode
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import time
from pathlib import Path

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.utils.atomic_io import atomic_write_text

from benchmarks.conftest import print_table

PROBABILITY_THRESHOLD = 0.35
DISTANCE_THRESHOLD = 1
QUERY_SIZE = 3
BATCHED_SPEEDUP_FLOOR = 2.0
# the hosts the floor is asserted on: those that ran the four-worker pool the
# floor was set against at full width
FLOOR_CORES = 4

FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
)
BOUND_CONFIG = BoundConfig(num_samples=60)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=120)
)

FULL = {
    "dataset": PPIDatasetConfig(
        num_graphs=24,
        num_families=4,
        vertices_per_graph=12,
        edges_per_graph=16,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "clients": 64,
    "requests": 256,
    "churn_requests": 48,
    "max_batch_size": 32,
}

SMOKE = {
    "dataset": PPIDatasetConfig(
        num_graphs=8,
        num_families=2,
        vertices_per_graph=8,
        edges_per_graph=10,
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    ),
    "clients": 8,
    "requests": 32,
    "churn_requests": 12,
    "max_batch_size": 8,
}

SEED = 20120902


def answer_tuples(result):
    return [
        (a.graph_id, a.graph_name, a.probability, a.decided_by)
        for a in result.answers
    ]


def build_workload(database, count: int, seed: int):
    """Seeded mixed requests: every request carries a unique RNG seed so the
    answer cache (when enabled) cannot short-circuit the measurement."""
    decider = random.Random(seed)
    requests = []
    for index in range(count):
        query = extract_query(
            database.graphs[decider.randrange(len(database.graphs))].skeleton,
            QUERY_SIZE,
            rng=seed * 1000 + index,
        )
        rng_seed = seed * 100_000 + index
        if decider.random() < 0.6:
            requests.append(("query", query, PROBABILITY_THRESHOLD, rng_seed))
        else:
            requests.append(("query_top_k", query, decider.choice([1, 2, 4]), rng_seed))
    return requests


async def closed_loop(service, requests, clients: int):
    """Drive ``requests`` through ``clients`` concurrent closed-loop workers.

    Returns (elapsed_seconds, per-request latencies, responses aligned with
    the request list)."""
    pending = list(enumerate(requests))
    responses: list = [None] * len(requests)
    latencies: list[float] = []
    lock = asyncio.Lock()

    async def worker():
        client = ServiceClient(service)
        while True:
            async with lock:
                if not pending:
                    return
                index, (kind, query, param, seed) = pending.pop(0)
            begin = time.perf_counter()
            if kind == "query":
                result = await client.query(query, param, DISTANCE_THRESHOLD, rng=seed)
            else:
                result = await client.query_top_k(query, param, DISTANCE_THRESHOLD, rng=seed)
            latencies.append(time.perf_counter() - begin)
            responses[index] = result

    started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(clients)])
    return time.perf_counter() - started, latencies, responses


def percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "p50": round(ordered[min(count - 1, int(0.50 * count))], 6),
        "p95": round(ordered[min(count - 1, int(0.95 * count))], 6),
        "p99": round(ordered[min(count - 1, int(0.99 * count))], 6),
    }


def verify_parity(requests, responses, twin, context: str) -> None:
    for index, ((kind, query, param, seed), actual) in enumerate(zip(requests, responses)):
        if kind == "query":
            expected = twin.query(
                query, param, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
        else:
            expected = twin.query_top_k(
                query, param, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=seed
            )
        assert answer_tuples(actual) == answer_tuples(expected), (
            f"{context}: request {index} ({kind}) diverged from the sequential twin"
        )


def build_catalog(database):
    return GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED
    )


async def run_throughput_phase(profile: dict, database, requests, twin) -> dict:
    """The batched-vs-unbatched comparison over identical closed-loop load.

    Both sides run with the answer cache off and the same backend;
    only the coalescing limit differs.  Parity is asserted on the batched
    side (the interesting one) against the sequential twin."""
    measurements = {}
    for label, max_batch in (("unbatched", 1), ("batched", profile["max_batch_size"])):
        catalog = build_catalog(database)
        config = ServiceConfig(
            max_batch_size=max_batch,
            max_queue_depth=max(64, profile["clients"] * 2),
            cache_entries=0,  # measure batching, not memoization
            search_config=SEARCH_CONFIG,
        )
        try:
            async with QueryService(catalog, config) as service:
                # Warm the planner and the graphs' compiled models outside
                # the timed region, the way a long-lived deployment runs.
                warm = ServiceClient(service)
                await warm.query(
                    requests[0][1], PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=1
                )
                elapsed, latencies, responses = await closed_loop(
                    service, requests, profile["clients"]
                )
                stats = await warm.stats()
        finally:
            catalog.close()
        if label == "batched":
            verify_parity(requests, responses, twin, "throughput phase")
        measurements[label] = {
            "seconds": round(elapsed, 4),
            "qps": round(len(requests) / max(elapsed, 1e-9), 2),
            "latency": percentiles(latencies),
            "mean_batch_size": stats["batch"]["mean_size"],
            "max_batch_size": stats["batch"]["max_size"],
            "service_latency": stats["latency"],
        }
    measurements["speedup"] = round(
        measurements["batched"]["qps"] / max(measurements["unbatched"]["qps"], 1e-9), 3
    )
    return measurements


async def run_churn_phase(profile: dict, database, twin) -> dict:
    """Queries under concurrent mutation churn, with a post-churn parity check.

    The mutator client awaits each mutation before the next, so the final
    catalog state is deterministic; the twin replays the same sequence and
    must agree on fresh seeded queries once the storm has passed."""
    pool = generate_ppi_database(profile["dataset"], rng=SEED + 1).graphs[:4]
    catalog = build_catalog(database)
    requests = build_workload(database, profile["churn_requests"], seed=SEED + 2)
    config = ServiceConfig(
        max_batch_size=profile["max_batch_size"],
        max_queue_depth=max(64, profile["clients"] * 2),
        search_config=SEARCH_CONFIG,
    )
    mutation_log = []
    try:
        async with QueryService(catalog, config) as service:
            mutator = ServiceClient(service)

            async def churn():
                for cycle, graph in enumerate(pool):
                    added = await mutator.add_graph(graph)
                    mutation_log.append(("add", added["external_id"], graph))
                    if cycle % 2 == 1:
                        await mutator.remove_graph(added["external_id"])
                        mutation_log.append(("remove", added["external_id"], None))

            churn_task = asyncio.create_task(churn())
            elapsed, latencies, responses = await closed_loop(
                service, requests, max(2, profile["clients"] // 2)
            )
            await churn_task
            completed = sum(1 for response in responses if response is not None)

            # Replay the mutation sequence on the twin, then check parity on
            # fresh post-churn queries through the still-running service.
            for op, external_id, graph in mutation_log:
                if op == "add":
                    twin.add_graph(graph, external_id=external_id)
                else:
                    twin.remove_graph(external_id)
            post = build_workload(database, 4, seed=SEED + 3)
            probe = ServiceClient(service)
            post_responses = []
            for kind, query, param, seed in post:
                if kind == "query":
                    post_responses.append(
                        await probe.query(query, param, DISTANCE_THRESHOLD, rng=seed)
                    )
                else:
                    post_responses.append(
                        await probe.query_top_k(query, param, DISTANCE_THRESHOLD, rng=seed)
                    )
            verify_parity(post, post_responses, twin, "post-churn")
            stats = await probe.stats()
    finally:
        catalog.close()
    return {
        "seconds": round(elapsed, 4),
        "qps": round(len(requests) / max(elapsed, 1e-9), 2),
        "completed": completed,
        "mutations": len(mutation_log),
        "latency": percentiles(latencies),
        "cache": stats["cache"],
    }


async def run_benchmark(profile: dict) -> dict:
    database = generate_ppi_database(profile["dataset"], rng=SEED)
    requests = build_workload(database, profile["requests"], seed=SEED)
    twin = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED
    )
    churn_twin = GraphCatalog.build(
        database.graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED
    )
    try:
        throughput = await run_throughput_phase(profile, database, requests, twin)
        churn = await run_churn_phase(profile, database, churn_twin)
    finally:
        twin.close()
        churn_twin.close()
    return {
        "num_graphs": len(database.graphs),
        "clients": profile["clients"],
        "requests": profile["requests"],
        "usable_cores": len(os.sched_getaffinity(0)),
        "throughput": throughput,
        "churn": churn,
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
        help="small dataset, 8 clients, no speedup floor (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_service.json"),
        help="trajectory file to append this run's point to",
    )
    args = parser.parse_args()
    profile = SMOKE if args.smoke else FULL

    report = asyncio.run(run_benchmark(profile))
    throughput = report["throughput"]
    print_table(
        f"Service load: {report['clients']} closed-loop clients, "
        f"{report['requests']} mixed requests "
        f"({report['usable_cores']} usable cores)",
        ["mode", "seconds", "req/s", "p50 ms", "p95 ms", "p99 ms", "mean batch"],
        [
            [
                mode,
                throughput[mode]["seconds"],
                throughput[mode]["qps"],
                round(throughput[mode]["latency"]["p50"] * 1000, 1),
                round(throughput[mode]["latency"]["p95"] * 1000, 1),
                round(throughput[mode]["latency"]["p99"] * 1000, 1),
                throughput[mode]["mean_batch_size"],
            ]
            for mode in ("unbatched", "batched")
        ],
    )
    print(f"micro-batching speedup: {throughput['speedup']:.2f}x")
    churn = report["churn"]
    print_table(
        "Mixed traffic with mutation churn (post-churn parity verified)",
        ["requests", "mutations", "seconds", "req/s", "p95 ms", "cache invalidations"],
        [
            [
                churn["completed"],
                churn["mutations"],
                churn["seconds"],
                churn["qps"],
                round(churn["latency"]["p95"] * 1000, 1),
                churn["cache"]["invalidations"],
            ]
        ],
    )

    point = {
        "bench": "service",
        "mode": "smoke" if args.smoke else "full",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        **report,
    }
    append_trajectory_point(args.out, point)
    print(f"trajectory point appended to {args.out}")

    under_xdist = "PYTEST_XDIST_WORKER" in os.environ
    if not args.smoke and report["usable_cores"] >= FLOOR_CORES and not under_xdist:
        assert throughput["speedup"] >= BATCHED_SPEEDUP_FLOOR, (
            f"expected micro-batching >= {BATCHED_SPEEDUP_FLOOR}x over "
            f"batch-size-1 at {report['clients']} clients, measured "
            f"{throughput['speedup']:.2f}x"
        )


if __name__ == "__main__":
    main()
