"""Mutable catalog walkthrough: live mutations over one appendable index.

Run with:  python examples/mutable_catalog.py

Demonstrates the full append/tombstone/compaction lifecycle:

1. build a `GraphCatalog` over an initial database,
2. add new graphs (their rows appended to the index), remove and update others,
3. show that answers are byte-identical to a from-scratch rebuild of the
   equivalent database — the catalog's core guarantee,
4. compact: tombstoned rows are reclaimed, live rows sorted by external id,
   and the answers (provably) do not move.
"""

from __future__ import annotations

import numpy as np

from repro import GraphCatalog, QueryPlanner, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex

FEATURE_CONFIG = FeatureSelectionConfig(max_vertices=3, max_features=12)
BOUND_CONFIG = BoundConfig(num_samples=100)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=300)
)


def show(label: str, result) -> None:
    print(f"{label}: {[(a.graph_id, round(a.probability, 3)) for a in result.answers]}")


def main() -> None:
    dataset = generate_ppi_database(
        PPIDatasetConfig(num_graphs=10, vertices_per_graph=12, edges_per_graph=15), rng=3
    )
    arrivals = generate_ppi_database(
        PPIDatasetConfig(num_graphs=4, vertices_per_graph=12, edges_per_graph=15), rng=8
    )
    query = generate_query_workload(
        dataset.graphs, query_size=3, num_queries=1, rng=3
    ).queries()[0]

    # 1. Build: external ids 0..9 in storage rows 0..9.
    catalog = GraphCatalog.build(
        dataset.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=11,
    )
    print(f"built: {catalog!r}")
    show("initial answers", catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=5))

    # 2. Mutate: arrivals are appended as new rows; removals tombstone;
    #    updates tombstone the old row, append the new one and keep their
    #    stable external id.
    added = [catalog.add_graph(graph) for graph in arrivals.graphs[:3]]
    catalog.remove_graph(1)
    catalog.update_graph(4, arrivals.graphs[3])
    print(f"\nafter mutations: {catalog!r}")
    print(f"  new external ids {added}")
    mutated = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    show("mutated answers", mutated)

    # 3. The guarantee: a from-scratch dense build over the equivalent
    #    database (same id -> graph mapping, same features, same root)
    #    answers byte-identically — probabilities, ranks, and counters.
    items = catalog.live_items()
    graphs = [graph for _, graph in items]
    ids = [external_id for external_id, _ in items]
    pmi = ProbabilisticMatrixIndex(
        feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
    ).build(graphs, features=catalog.features, rng=catalog.build_root, graph_ids=ids)
    structural = StructuralFeatureIndex(
        embedding_limit=FEATURE_CONFIG.embedding_limit
    ).build([graph.skeleton for graph in graphs], catalog.features)
    rebuilt = QueryPlanner(
        graphs, pmi, structural, graph_ids=np.asarray(ids, dtype=np.int64)
    ).execute(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    identical = [(a.graph_id, a.probability) for a in mutated.answers] == [
        (a.graph_id, a.probability) for a in rebuilt.answers
    ]
    print(f"byte-identical to from-scratch rebuild: {identical}")
    assert identical

    # 4. Compact: tombstoned rows are reclaimed and the live rows sorted by
    #    external id; by the stable-id contract the answers cannot move.
    catalog.compact()
    print(f"\nafter compact: {catalog!r}")
    compacted = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    show("compacted answers", compacted)
    assert [(a.graph_id, a.probability) for a in compacted.answers] == [
        (a.graph_id, a.probability) for a in mutated.answers
    ]
    print("compaction changed storage, not answers — as designed")
    catalog.close()


if __name__ == "__main__":
    main()
