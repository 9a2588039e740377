"""Quickstart: index a small probabilistic graph database as a GraphCatalog,
run a threshold query, a top-k query, and a mutation.

Run with:  python examples/quickstart.py

Every step is seeded, so the printed output is reproducible; the expected
values are documented in the comments next to each step and *asserted* at
the bottom of each step, so the CI run of this file fails if a documented
value ever drifts.
"""

from __future__ import annotations

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig


def main() -> None:
    # 1. Generate a small synthetic probabilistic graph database (a stand-in
    #    for the STRING protein-interaction data used in the paper).
    #    Expected: "database: 12 probabilistic graphs", average edge
    #    probability ~0.469.
    dataset = generate_ppi_database(
        PPIDatasetConfig(num_graphs=12, vertices_per_graph=14, edges_per_graph=18), rng=7
    )
    print(f"database: {len(dataset.graphs)} probabilistic graphs")
    average = sum(g.average_edge_probability() for g in dataset.graphs) / len(dataset.graphs)
    print(f"average edge probability: {average:.3f}")
    assert len(dataset.graphs) == 12 and round(average, 3) == 0.469

    # 2. Build the catalog: frequent/discriminative features + the PMI matrix
    #    of subgraph-isomorphism-probability bounds.  The summary is the
    #    catalog's PMI.
    #    Expected summary: database_size=12, num_features=16,
    #    non_empty_cells=62 (build_seconds/index_bytes vary by machine).
    catalog = GraphCatalog.build(
        dataset.graphs,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=16),
        bound_config=BoundConfig(num_samples=120),
        rng=7,
    )
    summary = catalog.planner().pmi.summary()
    print("index summary:", summary)
    assert summary["database_size"] == 12 and summary["num_features"] == 16
    assert summary["non_empty_cells"] == 62

    # 3. Extract a query workload and run a threshold query: return every
    #    graph whose probability of containing the query within distance 1
    #    is at least 0.3.
    #    Expected: 1 answer — graph 5 (ppi-0005) with SSP = 0.542, decided by
    #    verification; the structural filter prunes 11 of 12 candidates.
    #    (The candidate's events mention few edges, so the batch verification
    #    kernel sums the probability exactly instead of drawing worlds — the
    #    value is the same under every rng and `statistics.sampled` reads 0;
    #    a wide support would be sampled, byte-reproducibly per seed:
    #    ARCHITECTURE.md, "The batch verification kernel".)
    workload = generate_query_workload(dataset.graphs, query_size=3, num_queries=1, rng=7)
    query = workload.queries()[0]
    print(f"\nquery: {query.num_vertices} vertices, {query.num_edges} edges")

    config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=500))
    result = catalog.query(
        query, probability_threshold=0.3, distance_threshold=1, config=config, rng=7
    )

    print(f"\nanswers ({len(result.answers)}):")
    for answer in result.answers:
        print(f"  graph {answer.graph_id:3d} ({answer.graph_name})  "
              f"SSP ≈ {answer.probability:.3f}  [{answer.decided_by}]")
    print("\npipeline statistics:")
    for key, value in result.statistics.as_dict().items():
        print(f"  {key}: {value}")
    assert [(a.graph_id, round(a.probability, 3)) for a in result.answers] == [(5, 0.542)]
    assert result.statistics.stages[0].pruned == 11  # structural filter, 12 examined
    assert result.statistics.sampled == 0

    # 4. The same catalog answers top-k queries: the k most probable matches,
    #    best first (no threshold to guess).
    #    Expected: top-2 answers led by graph 5 with SSP = 0.542.
    top = catalog.query_top_k(query, k=2, distance_threshold=1, config=config, rng=7)
    print(f"\ntop-2 answers: {[(a.graph_id, round(a.probability, 3)) for a in top.answers]}")
    assert top.answers and top.answers[0].graph_id == 5
    assert round(top.answers[0].probability, 3) == 0.542

    # 5. The catalog is mutable: add/remove/update graphs without rebuilding,
    #    compact when convenient.  Answers stay byte-identical to a
    #    from-scratch rebuild (see ARCHITECTURE.md, "The mutable catalog").
    #    Expected: live counts 12 -> 11 after the removal, and the removed
    #    graph id 5 disappears from the re-run answers.
    catalog.remove_graph(5)
    print(f"\ncatalog after remove_graph(5): {catalog.num_live} live graphs")
    rerun = catalog.query(
        query, probability_threshold=0.3, distance_threshold=1, config=config, rng=7
    )
    print(f"re-run answers: {[(a.graph_id, round(a.probability, 3)) for a in rerun.answers]}")
    assert catalog.num_live == 11
    assert 5 not in {answer.graph_id for answer in rerun.answers}


if __name__ == "__main__":
    main()
