"""Regression tests for the hash-seed hazards the contract linter surfaced.

DET003 flagged real bugs: component ordering in a since-deleted
``connected_components`` and extension ordering in feature mining depended
on set iteration order, which for str vertex ids varies with
``PYTHONHASHSEED`` across processes.  These tests run code that orders str
vertex ids — the neighbor-edge partition, query relaxation, feature mining —
under several adversarial hash seeds in subprocesses and require
byte-identical results.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

STR_IDS_PROBE = """
from repro.core.relaxation import relax_query
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.neighbor_edges import partition_into_neighbor_sets

graph = LabeledGraph()
# a triangle with a tail and a separate star, string ids in a fixed order
for name in ["zeta", "alpha", "mu", "beta", "omega", "kappa", "nu"]:
    graph.add_vertex(name, "L")
for u, v in [("zeta", "mu"), ("mu", "alpha"), ("alpha", "zeta"), ("alpha", "beta"),
             ("omega", "kappa"), ("omega", "nu")]:
    graph.add_edge(u, v, "e")
print([sorted(group) for group in partition_into_neighbor_sets(graph, max_size=2)])
relaxed = relax_query(graph, 2)
print([list(relaxed[k].edge_keys()) for k in range(len(relaxed))])
"""

MINING_PROBE = """
from repro.datasets import PPIDatasetConfig, generate_ppi_database
from repro.pmi.features import FeatureMiner, FeatureSelectionConfig

database = generate_ppi_database(
    PPIDatasetConfig(num_graphs=6, vertices_per_graph=10, edges_per_graph=14), rng=11
)
config = FeatureSelectionConfig(max_features=12, max_candidates_per_level=30)
features = FeatureMiner(config).mine(database.graphs)
print([(f.feature_id, f.canonical, sorted(f.support)) for f in features])
"""


def run_probe(code: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_str_id_orders_are_hash_seed_independent():
    outputs = {run_probe(STR_IDS_PROBE, seed) for seed in ("0", "1", "4242")}
    assert len(outputs) == 1
    # the degree-3 vertices claim their stars first, ties broken by repr
    assert next(iter(outputs)).startswith("[[('alpha', 'beta'), ('alpha', 'mu')], ")


def test_mined_features_are_hash_seed_independent():
    outputs = {run_probe(MINING_PROBE, seed) for seed in ("0", "7", "31337")}
    assert len(outputs) == 1
