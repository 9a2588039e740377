"""Matching throughput: the vectorized generic-join engine vs recursive VF2.

The paper runs VF2 for every ``rq ⊆iso f`` / ``f ⊆iso gc`` test and every
``Ef`` enumeration (Section 4.1), a recursive backtracker per (pattern, graph)
pair.  This benchmark isolates the matching-bound work of an index build and
a query batch and computes it twice — with the join, and with the VF2
oracles of :mod:`repro.reference` one (pattern, graph) pair at a time:

* structural feature counts (``cnt_g(f)`` for every pair),
* a feature-presence sweep (``f ⊆iso gc`` for every pair, `match_block`),
* per query, the verifier's relaxed-embedding events, per variant.

The events through the variant family (one shared pass per query) must equal
the per-variant ones per graph as mask matrices (``family_identical``: both
are normalised, so the comparison is exact); ``family_ms`` /
``per_variant_ms`` time the two over the same blocks.

Beside the comparison it fills the PMI over the same features once:
``pmi_fill_ms_per_row`` and ``build_worlds_per_s`` (rows x samples / fill
seconds) go into the trajectory point, and the build must construct no
scalar ``WorldSampler`` — every row's worlds come from one batched draw.

Feature mining runs once, outside the engine comparison, and is timed on its
own (``mine_s``): every candidate of every level is one block join over the
stacked skeletons, so mining is matching-bound, not canonical-form-bound.  A
block-vs-loop enumeration over the same (feature, skeleton) pairs —
``find_embeddings_block`` over the stacked skeletons against a loop of
``find_embeddings`` over blocks of one, results asserted identical — gives
``block_speedup``, what stacking buys over the per-graph call.

The two must agree *byte for byte*: counts and presence are compared exactly
(the canonical embedding order makes this possible), and so are the events —
the join's masks decoded against VF2's edge-key sets normalised by the
frozenset oracle — so the speedup is measured on provably identical work.

Run as a script::

    python benchmarks/bench_matching.py            # full run, asserts >= 3x
    python benchmarks/bench_matching.py --smoke    # small, CI-friendly, no floor

Each run appends one trajectory point to ``BENCH_matching.json`` (``--out``
to relocate), so the perf history accumulates across commits.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

# allow `python benchmarks/bench_matching.py` from the repo root (CI) as
# well as pytest collection, where the repo root is already importable
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.relaxation import relax_query
from repro.core.verification import VerificationConfig, Verifier
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.isomorphism import find_embeddings, find_embeddings_block, match_block
from repro.isomorphism.embeddings import family_reroute_count, reset_family_reroute_count
from repro.isomorphism.generic_join import GraphBlock, compile_variant_family
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex
from repro.pmi.features import FeatureMiner, FeatureSelectionConfig
from repro.reference import (
    WorldSampler,
    mask_events,
    normalize_events,
    vf2_embeddings,
    vf2_exists,
)
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.atomic_io import atomic_write_text
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_SEED, print_table

DISTANCE_THRESHOLD = 1
QUERY_SIZE = 5
SPEEDUP_FLOOR = 3.0
PMI_SAMPLES = 60  # worlds per PMI row, as in the end-to-end benchmark

FULL = {
    "dataset": PPIDatasetConfig(
        num_graphs=16,
        num_families=4,
        vertices_per_graph=72,
        edges_per_graph=160,
        motif_vertices=4,
        motif_edges=5,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "max_features": 32,
    "num_queries": 3,
    "repeats": 3,
}

SMOKE = {
    "dataset": PPIDatasetConfig(
        num_graphs=8,
        num_families=2,
        vertices_per_graph=36,
        edges_per_graph=72,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "max_features": 16,
    "num_queries": 2,
    "repeats": 1,
}


def build_workload(profile: dict):
    dataset = generate_ppi_database(profile["dataset"], rng=BENCH_SEED)
    workload = generate_query_workload(
        dataset.graphs,
        query_size=QUERY_SIZE,
        num_queries=profile["num_queries"],
        organisms=dataset.organisms,
        rng=BENCH_SEED,
    )
    return dataset.graphs, workload.queries()


def join_pass(graphs, skeletons, features, relaxed_sets, verifier):
    """Counts, presence and per-variant events, each from one join per block."""
    index = StructuralFeatureIndex().build(skeletons, features)
    return {
        "counts": index.counts_matrix().tolist(),
        "presence": [match_block(feature.graph, skeletons) for feature in features],
        "events": [verifier.events_block(relaxed, graphs) for relaxed in relaxed_sets],
    }


def vf2_pass(skeletons, features, relaxed_sets, verifier):
    """The same three results from the VF2 oracles, one (pattern, graph) at a time."""
    count_limit = StructuralFeatureIndex().embedding_limit
    event_limit = verifier.config.embedding_limit
    return {
        "counts": [
            [len(vf2_embeddings(f.graph, skeleton, count_limit).embeddings) for f in features]
            for skeleton in skeletons
        ],
        "presence": [[vf2_exists(f.graph, skeleton) for skeleton in skeletons] for f in features],
        "events": [
            [
                normalize_events(
                    [
                        embedding.edges
                        for variant in relaxed
                        for embedding in vf2_embeddings(variant, skeleton, event_limit).embeddings
                    ]
                )
                for skeleton in skeletons
            ]
            for relaxed in relaxed_sets
        ],
    }


def family_vs_per_variant(verifier, graphs, relaxed_sets, families, repeats: int) -> dict:
    """The verifier's events step both ways over the same candidate block."""
    seconds = {}
    for name, chosen in (("family_ms", families), ("per_variant_ms", [None] * len(families))):
        timer = Timer()
        with timer:
            for _ in range(repeats):
                for relaxed, family in zip(relaxed_sets, chosen):
                    verifier.events_block(relaxed, graphs, family)
        seconds[name] = timer.elapsed / repeats / len(families) * 1e3
    return seconds


def pmi_build_profile(graphs, features) -> dict:
    """Fill every PMI row once and count scalar-sampler constructions."""
    constructions = 0
    original = WorldSampler.__init__

    def counting(self, *args, **kwargs):
        nonlocal constructions
        constructions += 1
        original(self, *args, **kwargs)

    WorldSampler.__init__ = counting
    try:
        timer = Timer()
        with timer:
            ProbabilisticMatrixIndex(
                bound_config=BoundConfig(num_samples=PMI_SAMPLES)
            ).build(graphs, features=features, rng=BENCH_SEED)
    finally:
        WorldSampler.__init__ = original
    return {
        "pmi_fill_ms_per_row": timer.elapsed / len(graphs) * 1e3,
        "build_worlds_per_s": len(graphs) * PMI_SAMPLES / max(timer.elapsed, 1e-9),
        "world_sampler_constructions": constructions,
    }


def block_vs_loop(features, skeletons, repeats: int) -> dict:
    """Enumerate every (feature, skeleton) pair as one join per feature over
    the stacked skeletons, and as a loop over blocks of one."""
    limit = FeatureSelectionConfig().embedding_limit
    block = GraphBlock(skeletons)  # stacked once, as the miner and the index builds do
    runs = {
        "loop": lambda: [
            [find_embeddings(f.graph, skeleton, limit=limit) for skeleton in skeletons]
            for f in features
        ],
        "block": lambda: [find_embeddings_block(f.graph, block, limit=limit) for f in features],
    }
    seconds = {}
    results = {}
    for name, enumerate_all in runs.items():
        enumerate_all()  # warm the join plans and edge tables
        timer = Timer()
        with timer:
            for _ in range(repeats):
                results[name] = enumerate_all()
        seconds[name] = timer.elapsed / repeats
    return {
        "loop_enumeration_seconds": seconds["loop"],
        "block_enumeration_seconds": seconds["block"],
        "block_speedup": seconds["loop"] / max(seconds["block"], 1e-9),
        "block_identical": results["loop"] == results["block"],
    }


def run_comparison(profile: dict) -> dict:
    graphs, queries = build_workload(profile)
    skeletons = [graph.skeleton for graph in graphs]

    # mine once, outside the comparison (the reference would take minutes
    # here), timed on its own
    mine_timer = Timer()
    with mine_timer:
        features = FeatureMiner(
            FeatureSelectionConfig(max_features=profile["max_features"])
        ).mine(graphs)
    blocks = block_vs_loop(features, skeletons, profile["repeats"])

    verifier = Verifier(VerificationConfig())
    relaxed_sets = [
        relax_query(query, DISTANCE_THRESHOLD, verifier.relaxation) for query in queries
    ]
    # compiled once per query, as plan() does
    families = [compile_variant_family(q, relaxed) for q, relaxed in zip(queries, relaxed_sets)]

    passes = {
        "generic_join": lambda: join_pass(graphs, skeletons, features, relaxed_sets, verifier),
        "vf2": lambda: vf2_pass(skeletons, features, relaxed_sets, verifier),
    }
    results: dict[str, dict] = {}
    seconds: dict[str, float] = {}
    for name, one_pass in passes.items():
        one_pass()  # warm the caches (edge tables, join plans)
        timer = Timer()
        with timer:
            for _ in range(profile["repeats"]):
                results[name] = one_pass()
        seconds[name] = timer.elapsed / profile["repeats"]

    # the whole point of the canonical result order: the join and the
    # reference must produce byte-identical counts, presence and events
    joined, oracle = results["generic_join"], results["vf2"]
    identical = (joined["counts"], joined["presence"]) == (oracle["counts"], oracle["presence"])
    identical &= [
        [mask_events(skeleton, masks) for skeleton, masks in zip(skeletons, per_graph)]
        for per_graph in joined["events"]
    ] == oracle["events"]
    # the shared pass against the per-variant joins: both normalised masks
    family_identical = all(
        len(shared) == len(per_variant) and all(map(np.array_equal, shared, per_variant))
        for shared, per_variant in (
            (verifier.events_block(relaxed, graphs, family), per_variant)
            for relaxed, family, per_variant in zip(relaxed_sets, families, joined["events"])
        )
    )
    reset_family_reroute_count()
    family_timing = family_vs_per_variant(
        verifier, graphs, relaxed_sets, families, profile["repeats"]
    )
    num_pairs = len(features) * len(graphs)
    return {
        "num_graphs": len(graphs),
        "num_features": len(features),
        "num_queries": len(queries),
        "num_feature_graph_pairs": num_pairs,
        "repeats": profile["repeats"],
        "vf2_seconds": seconds["vf2"],
        "generic_join_seconds": seconds["generic_join"],
        "speedup": seconds["vf2"] / max(seconds["generic_join"], 1e-9),
        "vf2_pairs_per_second": num_pairs / max(seconds["vf2"], 1e-9),
        "generic_join_pairs_per_second": num_pairs / max(seconds["generic_join"], 1e-9),
        "results_identical": identical,
        "family_identical": family_identical,
        **family_timing,
        "family_block_reruns": family_reroute_count(),
        "mine_s": mine_timer.elapsed,
        **blocks,
        **pmi_build_profile(graphs, features),
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
        help="small dataset, one repeat, no speedup floor (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_matching.json"),
        help="trajectory file to append this run's point to",
    )
    args = parser.parse_args()
    profile = SMOKE if args.smoke else FULL

    report = run_comparison(profile)
    print_table(
        "Matching throughput: recursive VF2 vs vectorized generic join "
        f"({report['num_features']} features x {report['num_graphs']} graphs, "
        f"{report['num_queries']} queries)",
        ["engine", "seconds/pass", "feature-graph pairs/s"],
        [
            [
                "vf2 (reference)",
                f"{report['vf2_seconds']:.3f}",
                f"{report['vf2_pairs_per_second']:.0f}",
            ],
            [
                "generic_join",
                f"{report['generic_join_seconds']:.3f}",
                f"{report['generic_join_pairs_per_second']:.0f}",
            ],
        ],
    )
    print(f"speedup: {report['speedup']:.2f}x  "
          f"(results byte-identical: {report['results_identical']})")
    print(f"events per query block: family_ms {report['family_ms']:.2f} / "
          f"per_variant_ms {report['per_variant_ms']:.2f} "
          f"(identical masks: {report['family_identical']}, "
          f"block reruns: {report['family_block_reruns']})")
    print(f"feature mining: {report['mine_s']:.3f} s; block vs loop enumeration: "
          f"{report['block_speedup']:.2f}x "
          f"({report['loop_enumeration_seconds'] * 1e3:.1f} -> "
          f"{report['block_enumeration_seconds'] * 1e3:.1f} ms, "
          f"identical: {report['block_identical']})")
    print(f"PMI fill: {report['pmi_fill_ms_per_row']:.2f} ms/row, "
          f"{report['build_worlds_per_s']:.0f} worlds/s "
          f"({report['world_sampler_constructions']} scalar sampler constructions)")

    point = {
        "bench": "matching",
        "mode": "smoke" if args.smoke else "full",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        **report,
    }
    append_trajectory_point(args.out, point)
    print(f"trajectory point appended to {args.out}")

    assert report["results_identical"], (
        "the generic join and the VF2 reference produced different counts/"
        "presence/events; they are not equivalent on this workload"
    )
    assert report["family_identical"], (
        "the variant-family pass and the per-variant loop produced different "
        "events for some graph (compared per graph as mask matrices)"
    )
    assert report["block_identical"], (
        "find_embeddings_block over the stacked skeletons and the loop over "
        "blocks of one returned different embedding lists"
    )
    assert report["world_sampler_constructions"] == 0, (
        "the PMI build constructed the scalar WorldSampler "
        f"{report['world_sampler_constructions']} times; rows must draw one "
        "batched world matrix each"
    )
    if not args.smoke:
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x matching speedup, "
            f"measured {report['speedup']:.2f}x"
        )


if __name__ == "__main__":
    main()
