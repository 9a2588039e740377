"""Synthetic protein-protein-interaction dataset (STRING substitute).

The paper evaluates on 5K probabilistic graphs extracted from the STRING
database: PPI networks with COG functional annotations as vertex labels and
statistically predicted interaction probabilities as edge probabilities
(average 0.383).  That data cannot be downloaded here, so this module builds
a synthetic equivalent that exercises the same code paths:

* **Organism families.**  The database is a mixture of families; every graph
  of a family shares a family *motif* (a small labeled core) plus random
  family-biased structure.  The family id is the "organism" ground truth that
  Figure 14's precision/recall evaluation needs.
* **Structure.**  Each graph grows by preferential attachment around the
  motif, giving the heavy-tailed degree distribution typical of PPI networks.
* **Probabilities.**  Edge marginals follow a Beta distribution centred on
  the configurable mean (0.383 by default); joint probability tables over
  neighbor edge sets use the paper's max-dominance rule (Section 6) for the
  correlated model, or independent products for the IND baseline.

Sizes are scaled down from the paper's (385 vertices / 612 edges per graph)
so the whole evaluation fits a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.utils.rng import RandomLike, ensure_rng

COG_LABELS = [f"COG{index:02d}" for index in range(20)]
INTERACTION_LABELS = ["binding", "activation", "inhibition"]


@dataclass(frozen=True)
class PPIDatasetConfig:
    """Parameters of the synthetic PPI database."""

    num_graphs: int = 40
    num_families: int = 4
    vertices_per_graph: int = 30
    edges_per_graph: int = 45
    motif_vertices: int = 5
    motif_edges: int = 6
    num_vertex_labels: int = 12
    mean_edge_probability: float = 0.383
    probability_spread: float = 0.25
    correlation: str = "max"
    max_factor_size: int = 4


@dataclass
class PPIDatabase:
    """The generated database plus its ground truth."""

    graphs: list[ProbabilisticGraph] = field(default_factory=list)
    organisms: list[int] = field(default_factory=list)
    family_motifs: list[LabeledGraph] = field(default_factory=list)
    config: PPIDatasetConfig = field(default_factory=PPIDatasetConfig)

    def __len__(self) -> int:
        return len(self.graphs)

    def organism_of(self, graph_id: int) -> int:
        return self.organisms[graph_id]

    def graphs_of_organism(self, organism: int) -> list[int]:
        return [i for i, value in enumerate(self.organisms) if value == organism]


def generate_ppi_database(
    config: PPIDatasetConfig | None = None, rng: RandomLike = None
) -> PPIDatabase:
    """Generate the full synthetic database."""
    cfg = config or PPIDatasetConfig()
    generator = ensure_rng(rng)
    labels = COG_LABELS[: cfg.num_vertex_labels]
    motifs = [
        _family_motif(family, cfg, labels, generator) for family in range(cfg.num_families)
    ]
    database = PPIDatabase(config=cfg, family_motifs=motifs)
    for graph_id in range(cfg.num_graphs):
        family = graph_id % cfg.num_families
        skeleton = _grow_ppi_skeleton(
            motifs[family], cfg, labels, generator, name=f"ppi-{graph_id:04d}"
        )
        probabilistic = _attach_probabilities(skeleton, cfg, generator)
        database.graphs.append(probabilistic)
        database.organisms.append(family)
    return database


# ----------------------------------------------------------------------
# skeleton construction
# ----------------------------------------------------------------------
def _family_motif(
    family: int, cfg: PPIDatasetConfig, labels: list[str], generator
) -> LabeledGraph:
    """A small connected labeled core shared by every graph of the family."""
    motif = LabeledGraph(name=f"motif-{family}")
    for vertex in range(cfg.motif_vertices):
        # bias the label choice per family so motifs are distinguishable
        label = labels[(family * 3 + vertex) % len(labels)]
        motif.add_vertex(vertex, label)
    # spanning path keeps the motif connected
    for vertex in range(1, cfg.motif_vertices):
        motif.add_edge(
            vertex - 1, vertex, INTERACTION_LABELS[(family + vertex) % len(INTERACTION_LABELS)]
        )
    extra_needed = max(0, cfg.motif_edges - (cfg.motif_vertices - 1))
    attempts = 0
    while extra_needed > 0 and attempts < 50:
        attempts += 1
        u = generator.randrange(cfg.motif_vertices)
        v = generator.randrange(cfg.motif_vertices)
        if u == v or motif.has_edge(u, v):
            continue
        motif.add_edge(u, v, generator.choice(INTERACTION_LABELS))
        extra_needed -= 1
    return motif


def _grow_ppi_skeleton(
    motif: LabeledGraph,
    cfg: PPIDatasetConfig,
    labels: list[str],
    generator,
    name: str,
) -> LabeledGraph:
    """Grow a PPI-like skeleton around the family motif by preferential attachment."""
    skeleton = LabeledGraph(name=name)
    for vertex in motif.vertices():
        skeleton.add_vertex(vertex, motif.vertex_label(vertex))
    for edge in motif.edges():
        skeleton.add_edge(edge.u, edge.v, edge.label)

    next_vertex = max(skeleton.vertices()) + 1
    degree_weighted: list = list(skeleton.vertices())
    while skeleton.num_vertices < cfg.vertices_per_graph:
        new_vertex = next_vertex
        next_vertex += 1
        skeleton.add_vertex(new_vertex, generator.choice(labels))
        anchor = generator.choice(degree_weighted)
        skeleton.add_edge(new_vertex, anchor, generator.choice(INTERACTION_LABELS))
        degree_weighted.extend([new_vertex, anchor])

    attempts = 0
    while skeleton.num_edges < cfg.edges_per_graph and attempts < cfg.edges_per_graph * 20:
        attempts += 1
        u = generator.choice(degree_weighted)
        v = generator.choice(degree_weighted)
        if u == v or skeleton.has_edge(u, v):
            continue
        skeleton.add_edge(u, v, generator.choice(INTERACTION_LABELS))
        degree_weighted.extend([u, v])
    return skeleton


def _attach_probabilities(
    skeleton: LabeledGraph, cfg: PPIDatasetConfig, generator
) -> ProbabilisticGraph:
    """Beta-like edge marginals centred on the configured mean."""
    probabilities = {}
    for key in skeleton.edge_keys():
        value = generator.betavariate(2.0, 2.0)  # hump-shaped on (0, 1)
        centered = cfg.mean_edge_probability + (value - 0.5) * 2.0 * cfg.probability_spread
        probabilities[key] = min(0.95, max(0.05, centered))
    return ProbabilisticGraph.from_edge_probabilities(
        skeleton,
        probabilities,
        correlation=cfg.correlation,
        max_factor_size=cfg.max_factor_size,
        name=skeleton.name,
    )
