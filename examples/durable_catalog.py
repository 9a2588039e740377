"""Durable catalog walkthrough: write-ahead logging and crash recovery.

Run with:  python examples/durable_catalog.py

Demonstrates the storage lifecycle on top of the mutable catalog:

1. build a `GraphCatalog` straight into a directory (snapshot + WAL),
2. mutate it — every operation is fsync'd to the log *before* it applies,
3. simulate a crash by abandoning the object and tearing the log's final
   record, then `GraphCatalog.open` the directory: the torn tail is
   truncated, the intact prefix replays, and answers match a from-scratch
   build over the recovered database,
4. `compact()`: the storage rolls to a fresh generation (new snapshot,
   empty log) behind an atomic `CURRENT` swap — answers do not move.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import GraphCatalog, QueryPlanner, SearchConfig, VerificationConfig
from repro.core.wal import wal_filename
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


def rebuild(catalog: GraphCatalog) -> QueryPlanner:
    """A from-scratch dense build over the catalog's equivalent database."""
    items = catalog.live_items()
    graphs = [graph for _, graph in items]
    ids = [external_id for external_id, _ in items]
    pmi = ProbabilisticMatrixIndex(
        feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
    ).build(graphs, features=catalog.features, rng=catalog.build_root, graph_ids=ids)
    structural = StructuralFeatureIndex(
        embedding_limit=FEATURE_CONFIG.embedding_limit
    ).build([graph.skeleton for graph in graphs], catalog.features)
    return QueryPlanner(graphs, pmi, structural, graph_ids=np.asarray(ids, dtype=np.int64))


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
    directory = Path(tempfile.mkdtemp()) / "catalog"

    # 1. Build straight into a directory: snapshot generation 0 + an empty
    #    write-ahead log, committed by an atomic CURRENT pointer.
    catalog = GraphCatalog.build(
        dataset.graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=11,
        directory=directory,
    )
    print(f"built durable catalog at {directory}")
    print(f"  layout: {sorted(p.name for p in directory.iterdir())}")

    # 2. Mutate: each operation is one checksummed, fsync'd WAL record,
    #    written BEFORE the in-memory change applies.
    for graph in arrivals.graphs[:2]:
        catalog.add_graph(graph)
    catalog.remove_graph(1)
    catalog.update_graph(4, arrivals.graphs[2])
    print(f"  after 4 mutations: generation {catalog.generation}, "
          f"{catalog.wal_records} WAL records")

    # 3. Crash: abandon the live object (no close, nothing flushed beyond
    #    what the WAL already guaranteed) and tear the log's final record,
    #    as a kill -9 mid-append would.
    wal_path = directory / wal_filename(catalog.generation)
    # repro: allow[IO001] -- deliberately simulates the torn write a crash leaves
    with open(wal_path, "ab") as handle:
        handle.write(b'deadbeef {"op":"add","torn mid-')
    del catalog

    recovered = GraphCatalog.open(directory)
    print(f"\nrecovered: {recovered!r}")
    print(f"  {recovered.wal_records} WAL records replayed (torn tail truncated)")
    answers = recovered.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    show("recovered answers", answers)

    # ... and they are byte-identical to a from-scratch build over the
    # recovered database — the recovery invariant.
    reference = rebuild(recovered).execute(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    identical = [(a.graph_id, a.probability) for a in answers.answers] == [
        (a.graph_id, a.probability) for a in reference.answers
    ]
    print(f"byte-identical to from-scratch rebuild: {identical}")
    assert identical

    # 4. Compact: reclaims dead rows AND rolls the storage to generation 1 —
    #    fresh snapshot, empty log, old generation retired after the
    #    atomic CURRENT swap.  Answers cannot move.
    recovered.compact()
    print(f"\nafter compact: generation {recovered.generation}, "
          f"layout {sorted(p.name for p in directory.iterdir())}")
    compacted = recovered.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=5)
    assert [(a.graph_id, a.probability) for a in compacted.answers] == [
        (a.graph_id, a.probability) for a in answers.answers
    ]
    print("compaction rolled the storage, not the answers — as designed")
    recovered.close()


if __name__ == "__main__":
    main()
