"""Road-network scenario: which city districts probably support a routing
pattern despite uncertain congestion?

Edges of a probabilistic road network carry the probability that a segment is
passable; nearby segments are correlated because congestion propagates (the
paper's road-network motivation).  Each "district" is one probabilistic graph
in the database; the query is a small routing pattern (for example a detour
loop around a junction), and the engine returns the districts where the
pattern is available with probability at least ε even if δ segments are
blocked.

Run with:  python examples/road_network_reliability.py
"""

from __future__ import annotations

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import extract_query, generate_road_network
from repro.pmi import BoundConfig, FeatureSelectionConfig

NUM_DISTRICTS = 8
PROBABILITY_THRESHOLD = 0.30
DISTANCE_THRESHOLD = 1


def main() -> None:
    # Districts differ in size and congestion level; heavier congestion means
    # lower passability probabilities.
    districts = []
    for index in range(NUM_DISTRICTS):
        congestion = 0.15 + 0.08 * index
        district = generate_road_network(
            rows=4,
            columns=4,
            congestion_level=congestion,
            rng=100 + index,
            name=f"district-{index} (congestion {congestion:.2f})",
        )
        districts.append(district)
    print(f"database: {len(districts)} districts, "
          f"{districts[0].num_vertices} junctions each")

    catalog = GraphCatalog.build(
        districts,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=12),
        bound_config=BoundConfig(num_samples=100),
        rng=5,
    )

    # The routing pattern: a 4-segment sub-route taken from the least
    # congested district.
    pattern = extract_query(districts[0].skeleton, 4, rng=5)
    print(f"routing pattern: {pattern.num_edges} segments, "
          f"{pattern.num_vertices} junctions\n")

    result = catalog.query(
        pattern,
        probability_threshold=PROBABILITY_THRESHOLD,
        distance_threshold=DISTANCE_THRESHOLD,
        config=SearchConfig(verification=VerificationConfig(method="sampling", num_samples=600)),
        rng=5,
    )

    reliable = {answer.graph_id for answer in result.answers}
    print(f"districts where the pattern is available with probability ≥ "
          f"{PROBABILITY_THRESHOLD} (allowing {DISTANCE_THRESHOLD} blocked segment):")
    for answer in result.answers:
        print(f"  {answer.graph_name}:  SSP ≈ {answer.probability:.3f}")
    print("\ndistricts below the reliability threshold:")
    for graph_id, district in enumerate(districts):
        if graph_id not in reliable:
            print(f"  {district.name}")
    print(f"\nfilter-and-verify statistics: {result.statistics.as_dict()}")


if __name__ == "__main__":
    main()
