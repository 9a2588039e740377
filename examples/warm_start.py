"""Batched search and a warm start.

Builds a catalog over a synthetic PPI database, runs a workload through
``query_many`` (every query planned before any runs, one root per query) and
checks it equals the same queries asked one at a time.  Then the warm-start
path: a durable ``GraphCatalog`` snapshots its index on the first build, and
``GraphCatalog.open`` loads it instead of rebuilding — with the same answers.

Run with:  python examples/warm_start.py
"""

from __future__ import annotations

import tempfile

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.utils.timer import Timer

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

    def answers(results) -> list:
        return [[(a.graph_id, a.probability) for a in result.answers] for result in results]

    # 1. A batch: query_many plans every query first, then runs each under
    #    its own root — the answers of asking one query at a time.
    catalog = GraphCatalog.build(
        dataset.graphs, feature_config=feature_config, bound_config=bound_config, rng=SEED
    )
    timer = Timer()
    with timer:
        batch = catalog.query_many(queries, 0.3, 1, config=search_config, rng=SEED)
    print(f"query_many: {len(queries)} queries in {timer.elapsed:.3f}s")
    one_by_one = [catalog.query(q, 0.3, 1, config=search_config, rng=SEED) for q in queries]
    assert answers(batch) == answers(one_by_one), "the batch diverged from single queries"
    print("batch answers identical to single queries: True")
    catalog.close()

    # 2. Warm start: a durable catalog snapshots its graphs, PMI and
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
                directory=directory,
            ).close()
        print(f"durable catalog build (cold):  {cold_timer.elapsed:.3f}s")
        warm_timer = Timer()
        with warm_timer:
            warm = GraphCatalog.open(directory)
        print(f"durable catalog open (warm):   {warm_timer.elapsed:.3f}s")
        with warm:
            warm_results = warm.query_many(queries, 0.3, 1, config=search_config, rng=SEED)
        assert answers(warm_results) == answers(batch), "the reopened catalog diverged"
        print("reopened answers identical to the built catalog's: True")

    for result, query in zip(batch, queries):
        stats = result.statistics
        print(
            f"  query |E|={query.num_edges}: answers={len(result.answers)} "
            f"pruned={stats.pruned_by_upper_bound} verified={stats.verified}"
        )


if __name__ == "__main__":
    main()
