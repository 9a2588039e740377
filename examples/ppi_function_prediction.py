"""PPI scenario: find the organisms whose interaction networks probably
contain a functional module (the paper's motivating bioinformatics use case).

A "functional module" is a small labeled interaction pattern.  Because
interaction edges are uncertain and correlated, the question is probabilistic:
*which networks contain the module with probability at least ε, allowing δ
missing interactions?*  The example also contrasts the correlated model (COR)
with the classical independent-edge model (IND) to show how ignoring
correlations changes the answer set — the comparison behind Figure 14.

Run with:  python examples/ppi_function_prediction.py
"""

from __future__ import annotations

from repro import GraphCatalog, SearchConfig, VerificationConfig
from repro.baselines import database_to_independent
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig

PROBABILITY_THRESHOLD = 0.35
DISTANCE_THRESHOLD = 1


def build_catalog(graphs, seed):
    return GraphCatalog.build(
        graphs,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=14),
        bound_config=BoundConfig(num_samples=100),
        rng=seed,
    )


def main() -> None:
    dataset = generate_ppi_database(
        PPIDatasetConfig(
            num_graphs=16,
            num_families=4,
            vertices_per_graph=15,
            edges_per_graph=20,
            # confident interactions: keeps the module's similarity
            # probability comfortably above the query threshold in the
            # networks that do contain it
            mean_edge_probability=0.7,
        ),
        rng=11,
    )
    # The "functional module" query: a real sub-network extracted from one
    # organism of family 0 — does it also occur in the other family members?
    source_id = dataset.graphs_of_organism(0)[0]
    module = extract_query(dataset.graphs[source_id].skeleton, 4, rng=11)
    print(f"functional module: {module.num_vertices} proteins, {module.num_edges} interactions")
    print(f"extracted from graph {source_id} (organism family 0)\n")

    config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=600))

    correlated = build_catalog(dataset.graphs, seed=11)
    cor_result = correlated.query(
        module, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=config, rng=11
    )

    independent = build_catalog(database_to_independent(dataset.graphs), seed=11)
    ind_result = independent.query(
        module, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=config, rng=11
    )

    def describe(name, result):
        print(f"{name}: {len(result.answers)} networks probably contain the module")
        for answer in result.answers:
            family = dataset.organism_of(answer.graph_id)
            marker = "same family" if family == 0 else f"family {family}"
            print(f"  graph {answer.graph_id:3d}  SSP ≈ {answer.probability:.3f}  ({marker})")
        print()

    describe("correlated model (COR)", cor_result)
    describe("independent model (IND)", ind_result)

    cor_same_family = sum(
        1 for a in cor_result.answers if dataset.organism_of(a.graph_id) == 0
    )
    ind_same_family = sum(
        1 for a in ind_result.answers if dataset.organism_of(a.graph_id) == 0
    )
    print(f"same-family hits — COR: {cor_same_family}, IND: {ind_same_family}")
    print("(the correlated model is what the paper argues matches PPI biology)")


if __name__ == "__main__":
    main()
