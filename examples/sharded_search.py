"""Pooled multiprocess search: filter in the parent, deal verification out.

Builds the same synthetic PPI database twice — once in-process, once behind
a pool of up to 4 worker slots — runs an identical workload through both, and
shows that the answers match exactly.  The pool width is ``min(max_workers,
num_shards, usable CPUs)``: ``num_shards`` caps it at four, ``max_workers``
defaults to the usable CPUs, and a process that may run on one CPU forks no
worker at all (its survivors are verified in-process, same answers).  The
parent filters every query and deals the survivors to the slots in blocks.  Also demonstrates the
warm-start path: a durable ``GraphCatalog`` snapshots its index on the first
build, and ``GraphCatalog.open`` loads it instead of rebuilding.

Run with:  python examples/sharded_search.py
"""

from __future__ import annotations

import tempfile

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.utils.timer import Timer

NUM_SHARDS = 4  # caps the pool at four slots
SEED = 7


def main() -> None:
    dataset = generate_ppi_database(
        PPIDatasetConfig(num_graphs=16, vertices_per_graph=12, edges_per_graph=16), rng=SEED
    )
    feature_config = FeatureSelectionConfig(max_vertices=3, max_features=16)
    bound_config = BoundConfig(num_samples=120)
    workload = generate_query_workload(dataset.graphs, query_size=3, num_queries=6, rng=SEED)
    queries = workload.queries()
    search_config = SearchConfig(
        verification=VerificationConfig(method="sampling", num_samples=300)
    )

    # 1. Sequential baseline: one planner, one core.
    sequential = GraphCatalog.build(
        dataset.graphs, feature_config=feature_config, bound_config=bound_config, rng=SEED
    )
    timer = Timer()
    with timer:
        sequential_results = sequential.query_many(
            queries, 0.3, 1, config=search_config, rng=SEED
        )
    print(f"sequential: {len(queries)} queries in {timer.elapsed:.3f}s")

    # 2. Pooled: the same index; the survivors of each query are dealt to
    #    the pool's slots, a graph a worker already holds to that worker.
    build_timer = Timer()
    with build_timer:
        sharded = GraphCatalog.build(
            dataset.graphs,
            feature_config=feature_config,
            bound_config=bound_config,
            rng=SEED,
            num_shards=NUM_SHARDS,
        )
    print(
        f"pooled catalog build (pool capped at {NUM_SHARDS}, width "
        f"{sharded.planner().width} on this host's usable CPUs): {build_timer.elapsed:.3f}s"
    )

    timer = Timer()
    with timer:
        sharded_results = sharded.query_many(
            queries, 0.3, 1, config=search_config, rng=SEED
        )
    # Memory footprint: the parent filters, so a pool worker holds only the
    # graphs it verifies — each one shipped in the frame that first names it
    # and kept for the next query.  close() below parks the workers.
    verified = sum(result.statistics.verified for result in sharded_results)
    print(
        f"{verified} candidates verified over {len(queries)} queries; with a pool, "
        f"each of those graphs was shipped to one worker once, none of the others "
        f"({len(dataset.graphs)} graphs in the database)"
    )
    sharded.close()
    print(f"pooled:     {len(queries)} queries in {timer.elapsed:.3f}s")

    # 3. Determinism: the pooled catalog returns byte-for-byte the
    #    sequential planner's answers — same ids, SSP estimates, order.
    def identical(results) -> bool:
        return all(
            [(a.graph_id, a.probability) for a in sequential_result.answers]
            == [(a.graph_id, a.probability) for a in result.answers]
            for sequential_result, result in zip(sequential_results, results)
        )

    print(f"pooled answers identical to sequential: {identical(sharded_results)}")

    # 4. Warm start: a durable catalog snapshots its graphs, PMI and
    #    structural counts when it is built; a restart opens the snapshot
    #    instead of recomputing any SIP bound.
    with tempfile.TemporaryDirectory() as directory:
        cold_timer = Timer()
        with cold_timer:
            GraphCatalog.build(
                dataset.graphs,
                feature_config=feature_config,
                bound_config=bound_config,
                rng=SEED,
                num_shards=NUM_SHARDS,
                directory=directory,
            ).close()
        print(f"durable catalog build (cold):  {cold_timer.elapsed:.3f}s")
        warm_timer = Timer()
        with warm_timer:
            warm = GraphCatalog.open(directory)
        print(f"durable catalog open (warm):   {warm_timer.elapsed:.3f}s")
        with warm:
            warm_results = warm.query_many(queries, 0.3, 1, config=search_config, rng=SEED)
        print(f"reopened answers identical to sequential: {identical(warm_results)}")

    for sequential_result, query in zip(sequential_results, queries):
        merged = sequential_result.statistics
        print(
            f"  query |E|={query.num_edges}: answers={len(sequential_result.answers)} "
            f"pruned={merged.pruned_by_upper_bound} verified={merged.verified}"
        )


if __name__ == "__main__":
    main()
