"""Top-k subgraph similarity search with a dynamically tightening floor.

Instead of asking "which graphs match with probability ≥ ε?" (a T-PS
threshold query), ``query_top_k(q, k, δ)`` asks for the k *most probable*
matches: the pipeline seeds its probability floor from the PMI lower
bounds, verifies candidates in descending upper-bound order, and raises
the floor to the running k-th best verified probability — so late, weakly
bounded candidates are skipped without ever computing their SSP.

The script runs the same top-k workload three ways and shows all agree:

1. the pipeline, one query at a time,
2. the same catalog's batch call, ``query_top_k_many`` (one root per query,
   so the answers are byte-identical),
3. the index-free exact-scan reference (verify everything, rank).

Run with:  python examples/topk_search.py
"""

from __future__ import annotations

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.baselines.exact_scan import ExactScanBaseline, ExactScanConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig

K = 5
DISTANCE_THRESHOLD = 1
SEED = 7


def main() -> None:
    # small graphs keep the exact (inclusion-exclusion) verification cheap —
    # this example trades scale for float-for-float comparability
    dataset = generate_ppi_database(
        PPIDatasetConfig(
            num_graphs=16,
            vertices_per_graph=8,
            edges_per_graph=9,
            motif_vertices=3,
            motif_edges=3,
        ),
        rng=SEED,
    )
    feature_config = FeatureSelectionConfig(max_vertices=3, max_features=16)
    bound_config = BoundConfig(method="exact")
    workload = generate_query_workload(dataset.graphs, query_size=3, num_queries=3, rng=SEED)
    queries = workload.queries()
    # exact verification keeps the three executors comparable float-for-float
    search_config = SearchConfig(
        verification=VerificationConfig(method="inclusion_exclusion")
    )

    catalog = GraphCatalog.build(
        dataset.graphs, feature_config=feature_config, bound_config=bound_config, rng=SEED
    )
    reference = ExactScanBaseline(dataset.graphs, ExactScanConfig())
    batch = catalog.query_top_k_many(
        queries, K, DISTANCE_THRESHOLD, config=search_config, rng=SEED
    )

    for index, (query, batched) in enumerate(zip(queries, batch)):
        top = catalog.query_top_k(
            query, K, DISTANCE_THRESHOLD, config=search_config, rng=SEED
        )
        truth = reference.top_k(query, K, DISTANCE_THRESHOLD, rng=SEED)

        print(f"\nquery {index}: top-{K} matches")
        for rank, answer in enumerate(top.answers, start=1):
            print(
                f"  #{rank}  graph {answer.graph_id:>3} ({answer.graph_name})  "
                f"p = {answer.probability:.4f}"
            )
        assert [(a.graph_id, a.probability) for a in top.answers] == [
            (a.graph_id, a.probability) for a in batched.answers
        ], "the batch's top-k diverged from the single query's"
        assert [(a.graph_id, a.probability) for a in top.answers] == [
            (a.graph_id, a.probability) for a in truth.answers
        ], "pipeline top-k diverged from the exact-scan reference"
        floor_skipped = top.statistics.stages[-1].pruned
        print(
            f"  verified {top.statistics.verified}/{truth.statistics.verified} graphs "
            f"(filters pruned the rest; tightening floor skipped {floor_skipped})"
        )

    catalog.close()
    print("\nsingle query == batch == exact-scan reference for every query.")


if __name__ == "__main__":
    main()
