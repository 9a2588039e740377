"""Social-network scenario: which communities probably carry an influence
pattern between an influencer and their audience?

Edges carry the probability that influence/trust actually propagates between
two users; ties within a community are correlated (the paper's social-network
motivation).  The database holds one probabilistic graph per community
snapshot; the query is a small influence pattern (influencer → members), and
the engine returns the snapshots where the pattern probably holds even if
δ ties are missing.

Run with:  python examples/social_influence_patterns.py
"""

from __future__ import annotations

from repro import GraphCatalog, LabeledGraph, SearchConfig, VerificationConfig
from repro.datasets import generate_social_network
from repro.pmi import BoundConfig, FeatureSelectionConfig

NUM_SNAPSHOTS = 8
PROBABILITY_THRESHOLD = 0.30
DISTANCE_THRESHOLD = 1


def influence_pattern() -> LabeledGraph:
    """An influencer connected to two members, one of whom mentions the other."""
    pattern = LabeledGraph(name="influence-pattern")
    pattern.add_vertex(0, "influencer")
    pattern.add_vertex(1, "member")
    pattern.add_vertex(2, "member")
    pattern.add_edge(0, 1, "follows")
    pattern.add_edge(0, 2, "follows")
    pattern.add_edge(1, 2, "mentions")
    return pattern


def main() -> None:
    snapshots = []
    for index in range(NUM_SNAPSHOTS):
        trust = 0.35 + 0.06 * index
        snapshots.append(
            generate_social_network(
                num_communities=2,
                community_size=7,
                mean_trust=trust,
                rng=200 + index,
                name=f"snapshot-{index} (mean trust {trust:.2f})",
            )
        )
    print(f"database: {len(snapshots)} community snapshots")

    catalog = GraphCatalog.build(
        snapshots,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=12),
        bound_config=BoundConfig(num_samples=100),
        rng=9,
    )

    pattern = influence_pattern()
    print(f"influence pattern: {pattern.num_vertices} users, {pattern.num_edges} ties\n")

    result = catalog.query(
        pattern,
        probability_threshold=PROBABILITY_THRESHOLD,
        distance_threshold=DISTANCE_THRESHOLD,
        config=SearchConfig(verification=VerificationConfig(method="sampling", num_samples=600)),
        rng=9,
    )

    print(f"snapshots where the pattern holds with probability ≥ {PROBABILITY_THRESHOLD} "
          f"(allowing {DISTANCE_THRESHOLD} missing tie):")
    if not result.answers:
        print("  (none — try lowering the threshold)")
    for answer in result.answers:
        print(f"  {answer.graph_name}:  SSP ≈ {answer.probability:.3f}")

    # higher-trust snapshots should dominate the answer set
    answered = [answer.graph_id for answer in result.answers]
    if answered:
        print(f"\naverage trust of matching snapshots: "
              f"{sum(snapshots[i].average_edge_probability() for i in answered) / len(answered):.3f}")
        others = [i for i in range(NUM_SNAPSHOTS) if i not in answered]
        if others:
            print(f"average trust of the remaining snapshots: "
                  f"{sum(snapshots[i].average_edge_probability() for i in others) / len(others):.3f}")
    print(f"\nfilter-and-verify statistics: {result.statistics.as_dict()}")


if __name__ == "__main__":
    main()
