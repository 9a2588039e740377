"""Matching throughput: the vectorized generic-join engine vs recursive VF2.

After PR 5 vectorized verification, embedding enumeration became the dominant
hot path: every ``rq ⊆iso f`` / ``f ⊆iso gc`` test and every ``Ef``
enumeration (Section 4.1) ran the recursive Python backtracker once per
(pattern, graph) pair.  This benchmark isolates an index-build + match-bound
profile and runs it under both engines:

* structural feature-count index build (``cnt_g(f)`` for every pair),
* a feature-presence sweep (``f ⊆iso gc`` for every pair, `match_block`),
* per query: the Grafil query profile, the pruner's feature-vs-relaxed-query
  containment relations, and the verifier's relaxed-embedding event lists —
  per variant (one join per relaxed query, the reference) and through the
  variant family (one shared pass per query), which must agree per graph
  after ``normalize_events`` under both engines; ``family_ms`` /
  ``per_variant_ms`` time the two over the same blocks.

Beside the engine comparison it fills the PMI over the same features once
(generic-join engine only): ``pmi_fill_ms_per_row`` and ``build_worlds_per_s``
(rows x samples / fill seconds) go into the trajectory point, and the build
must construct no scalar ``WorldSampler`` — every row's worlds come from one
batched draw.

Feature mining runs once, outside the engine comparison, and is timed on its
own (``mine_s``): every candidate of every level is one block join over the
stacked skeletons, so mining is matching-bound, not canonical-form-bound.  A
block-vs-loop enumeration over the same (feature, skeleton) pairs —
``find_embeddings_block`` over the stacked skeletons against a loop of
``find_embeddings`` over blocks of one, results asserted identical — gives
``block_speedup``, what stacking buys over the per-graph call.

The engines must agree *byte for byte*: counts, profiles, containment sets
and embedding events are compared exactly (the canonical embedding order
makes this possible), so the speedup is measured on provably identical work.

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

# allow `python benchmarks/bench_matching.py` from the repo root (CI) as
# well as pytest collection, where the repo root is already importable
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.pruning import ProbabilisticPruner
from repro.core.relaxation import relax_query
from repro.core.verification import VerificationConfig, Verifier
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.isomorphism import find_embeddings, find_embeddings_block, match_block, using_engine
from repro.isomorphism.embeddings import family_reroute_count, reset_family_reroute_count
from repro.isomorphism.generic_join import GraphBlock, compile_variant_family
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex
from repro.pmi.features import FeatureMiner, FeatureSelectionConfig
from repro.probability import WorldSampler
from repro.probability.events import normalize_events
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


def matching_pass(graphs, skeletons, features, queries, relaxed_sets, families, verifier, pruner):
    """One full matching-bound pass; returns every matching-derived result."""
    index = StructuralFeatureIndex().build(skeletons, features)
    return {
        "counts": index.counts_matrix().tolist(),
        "presence": [match_block(feature.graph, skeletons) for feature in features],
        "profiles": [index.query_profile(query) for query in queries],
        "containment": [
            {
                feature_id: (sorted(c.sub_of), sorted(c.super_of))
                for feature_id, c in pruner.prepare(relaxed).items()
            }
            for relaxed in relaxed_sets
        ],
        "events": [
            verifier._embedding_events_block(relaxed, graphs)
            for relaxed in relaxed_sets
        ],
        # the shared pass: event order is no contract, so compared normalised
        "family_events": [
            [
                normalize_events(events)
                for events in verifier._embedding_events_block(relaxed, graphs, family)
            ]
            for relaxed, family in zip(relaxed_sets, families)
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
                    verifier._embedding_events_block(relaxed, graphs, family)
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

    # mine once, outside the engine comparison (the reference engine would
    # take minutes here), timed on its own
    with using_engine("generic_join"):
        mine_timer = Timer()
        with mine_timer:
            features = FeatureMiner(
                FeatureSelectionConfig(max_features=profile["max_features"])
            ).mine(graphs)
        blocks = block_vs_loop(features, skeletons, profile["repeats"])

    verifier = Verifier(VerificationConfig())
    pruner = ProbabilisticPruner(features)
    relaxed_sets = [
        relax_query(query, DISTANCE_THRESHOLD, verifier.relaxation) for query in queries
    ]
    # compiled once per query, as plan() does
    families = [compile_variant_family(q, relaxed) for q, relaxed in zip(queries, relaxed_sets)]

    def one_pass():
        return matching_pass(
            graphs, skeletons, features, queries, relaxed_sets, families, verifier, pruner
        )

    results: dict[str, dict] = {}
    seconds: dict[str, float] = {}
    for engine in ("generic_join", "vf2"):
        with using_engine(engine):
            one_pass()  # warm engine-side caches (edge tables, join plans)
            timer = Timer()
            with timer:
                for _ in range(profile["repeats"]):
                    results[engine] = one_pass()
            seconds[engine] = timer.elapsed / profile["repeats"]

    # the whole point of the canonical result order: both engines must
    # produce byte-identical counts, profiles, containment sets and events
    identical = results["generic_join"] == results["vf2"]
    family_identical = all(
        result["family_events"]
        == [[normalize_events(events) for events in block] for block in result["events"]]
        for result in results.values()
    )
    with using_engine("generic_join"):
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
        "family_block_reruns": family_reroute_count()[0],
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
          f"(identical after normalize_events: {report['family_identical']}, "
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
        "generic-join and VF2 produced different counts/profiles/containment/"
        "events; the engines are not equivalent on this workload"
    )
    assert report["family_identical"], (
        "the variant-family pass and the per-variant loop produced different "
        "events for some graph (compared per graph after normalize_events, "
        "under both engines)"
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
