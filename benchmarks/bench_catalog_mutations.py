"""Mutation cost of the catalog layer vs full index rebuilds.

The point of the append/tombstone design: absorbing a mutation costs one
PMI row (for adds/updates) or one mask bit (for removes), while the naive
alternative — rebuild the whole index — pays the full SIP-bound computation
for every graph on *every* mutation.  This benchmark applies a mixed
add/remove/update stream to a `GraphCatalog`, timing each mutation and the
queries in between, against the wall time of equivalent from-scratch
rebuilds; it asserts answer parity with the rebuild at the end (the
catalog's core guarantee) and a sane speedup on the mutation path.

Run directly (``python benchmarks/bench_catalog_mutations.py``) or via
pytest to track the timings.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core import GraphCatalog, QueryPlanner, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.timer import Timer

try:
    from benchmarks.conftest import BENCH_SEED, print_table
except ModuleNotFoundError:  # direct script run: repo root not on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import BENCH_SEED, print_table

BASE_GRAPHS = 18
ARRIVALS = 6
PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1

CATALOG_FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.15, gamma=0.1, max_vertices=3, max_features=12
)
CATALOG_BOUND_CONFIG = BoundConfig(num_samples=120)
CATALOG_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=200)
)


def _dataset(num_graphs: int, seed: int):
    return generate_ppi_database(
        PPIDatasetConfig(
            num_graphs=num_graphs,
            num_families=3,
            vertices_per_graph=10,
            edges_per_graph=13,
            motif_vertices=3,
            motif_edges=3,
            mean_edge_probability=0.55,
            probability_spread=0.2,
        ),
        rng=seed,
    )


def _rebuild_planner(catalog: GraphCatalog) -> QueryPlanner:
    """The from-scratch build the catalog replaces (and must agree with)."""
    items = catalog.live_items()
    graphs = [graph for _, graph in items]
    ids = [external_id for external_id, _ in items]
    pmi = ProbabilisticMatrixIndex(
        feature_config=CATALOG_FEATURE_CONFIG, bound_config=CATALOG_BOUND_CONFIG
    ).build(graphs, features=catalog.features, rng=catalog.build_root, graph_ids=ids)
    structural = StructuralFeatureIndex(
        embedding_limit=CATALOG_FEATURE_CONFIG.embedding_limit
    ).build([graph.skeleton for graph in graphs], catalog.features)
    return QueryPlanner(
        graphs, pmi, structural, graph_ids=np.asarray(ids, dtype=np.int64)
    )


def run_mutation_benchmark() -> dict:
    base = _dataset(BASE_GRAPHS, BENCH_SEED)
    arrivals = _dataset(ARRIVALS, BENCH_SEED + 1).graphs
    query = generate_query_workload(
        base.graphs, query_size=4, num_queries=1, rng=BENCH_SEED
    ).queries()[0]

    build_timer = Timer()
    with build_timer:
        catalog = GraphCatalog.build(
            base.graphs,
            feature_config=CATALOG_FEATURE_CONFIG,
            bound_config=CATALOG_BOUND_CONFIG,
            rng=BENCH_SEED,
        )

    # a mixed mutation stream: arrivals, a churned removal, an in-place update
    mutations: list[tuple] = [("add", graph) for graph in arrivals[:4]]
    mutations += [("remove", 3), ("update", 7, arrivals[4]), ("add", arrivals[5])]

    rows = []
    add_seconds: list[float] = []
    rebuild_each: list[float] = []
    mutation_seconds = 0.0
    for mutation in mutations:
        timer = Timer()
        with timer:
            if mutation[0] == "add":
                catalog.add_graph(mutation[1])
            elif mutation[0] == "remove":
                catalog.remove_graph(mutation[1])
            else:
                catalog.update_graph(mutation[1], mutation[2])
        mutation_seconds += timer.elapsed
        rebuild_timer = Timer()
        with rebuild_timer:
            rebuilt = _rebuild_planner(catalog)
        rebuild_each.append(rebuild_timer.elapsed)
        if mutation[0] == "add":
            add_seconds.append(timer.elapsed)
        rows.append(
            [
                mutation[0],
                catalog.num_live,
                catalog.num_live + catalog.tombstone_count,
                catalog.tombstone_count,
                f"{timer.elapsed * 1e3:.1f}",
                f"{rebuild_timer.elapsed * 1e3:.1f}",
            ]
        )

    query_timer = Timer()
    with query_timer:
        catalog_result = catalog.query(
            query,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=CATALOG_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )
    rebuilt_result = rebuilt.execute(
        query,
        PROBABILITY_THRESHOLD,
        DISTANCE_THRESHOLD,
        config=CATALOG_SEARCH_CONFIG,
        rng=BENCH_SEED,
    )
    assert [(a.graph_id, a.probability) for a in catalog_result.answers] == [
        (a.graph_id, a.probability) for a in rebuilt_result.answers
    ], "catalog answers must match the from-scratch rebuild"

    compact_timer = Timer()
    with compact_timer:
        catalog.compact()

    print_table(
        "catalog mutations vs from-scratch rebuilds",
        ["op", "live", "rows", "tombstones", "mutate_ms", "rebuild_ms"],
        rows,
    )
    rebuild_seconds = sum(rebuild_each)
    speedup = rebuild_seconds / mutation_seconds if mutation_seconds else float("inf")
    summary = {
        "base_build_seconds": round(build_timer.elapsed, 4),
        "mutation_seconds_total": round(mutation_seconds, 4),
        "rebuild_seconds_total": round(rebuild_seconds, 4),
        "mutation_speedup": round(speedup, 1),
        # one row fill (one batched world matrix) against the rebuild it replaces
        "add_ms_median": round(float(np.median(add_seconds)) * 1e3, 2),
        "rebuild_ms_median": round(float(np.median(rebuild_each)) * 1e3, 2),
        "compact_seconds": round(compact_timer.elapsed, 4),
        "query_seconds": round(query_timer.elapsed, 4),
        "answers": len(catalog_result.answers),
    }
    print("\nsummary:", summary)
    # absorbing a mutation must beat rebuilding the whole index decisively;
    # 2x is an extremely loose floor (typical is >10x) to keep CI stable
    assert speedup > 2.0, f"mutation path only {speedup:.1f}x faster than rebuilds"
    catalog.close()
    return summary


def test_catalog_mutation_benchmark(benchmark):
    benchmark.pedantic(run_mutation_benchmark, rounds=1, iterations=1)


if __name__ == "__main__":
    run_mutation_benchmark()
