"""Feature mining and selection (Section 4.2, Algorithm 4).

The PMI index rows are *features*: small deterministic graphs mined from the
deterministic skeletons ``Dc``.  The paper selects features that are

* **frequent** under a disjointness-aware frequency,
  ``frq(f) = |{g : f ⊆iso gc and |IN|/|Ef| ≥ α}| / |D| ≥ β`` — a graph only
  counts towards the support of ``f`` when a sufficiently large fraction of
  ``f``'s embeddings in it are pairwise edge-disjoint (Rule 1: disjoint
  embeddings make tight bounds), and
* **discriminative**, ``dis(f) = |∩ {Df' : f' ⊆iso f}| / |Df| > γ`` — a
  feature is only worth indexing when it prunes graphs its indexed
  sub-features cannot (following gIndex [37]),
* **small**, controlled by ``max_vertices`` (the paper's ``maxL``;
  Rule 2: small features give large conditional probabilities).

Mining proceeds by pattern growth: single-edge seeds are extended one edge at
a time along their embeddings in the data graphs, deduplicated by canonical
form, and scored level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.canonical import canonical_form
from repro.graphs.labeled_graph import LabeledGraph, edge_key
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.embeddings import (
    Embedding,
    find_embeddings_block,
    maximal_disjoint_embeddings,
)
from repro.isomorphism.generic_join import GraphBlock, match_block
from repro.probability.sampling import check_embedding_limit


@dataclass(frozen=True)
class FeatureSelectionConfig:
    """Parameters of Algorithm 4 (defaults follow the paper's 0.1/0.15 range)."""

    alpha: float = 0.15
    beta: float = 0.15
    gamma: float = 0.15
    max_vertices: int = 4
    max_features: int = 60
    max_candidates_per_level: int = 200
    embedding_limit: int = 64

    def __post_init__(self) -> None:
        check_embedding_limit(self.embedding_limit)


@dataclass
class Feature:
    """One indexed feature: its graph, identifier and supporting graphs."""

    feature_id: int
    graph: LabeledGraph
    support: frozenset = field(default_factory=frozenset)
    canonical: str = ""

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:
        return (
            f"Feature(id={self.feature_id}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, support={len(self.support)})"
        )


def feature_fingerprint(features: list[Feature]) -> list[tuple[int, str]]:
    """``(feature_id, canonical)`` of every feature, in column order: two
    indexes whose rows may be stacked share it."""
    return [(feature.feature_id, feature.canonical) for feature in features]


class FeatureMiner:
    """Frequent-and-discriminative feature mining over a graph database."""

    def __init__(self, config: FeatureSelectionConfig | None = None) -> None:
        self.config = config or FeatureSelectionConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self, database: list[ProbabilisticGraph]) -> list[Feature]:
        """Run Algorithm 4 over the database's deterministic skeletons."""
        skeletons = [graph.skeleton for graph in database]
        if not skeletons:
            return []
        # stacked once: every candidate of every level is one join over it
        block = GraphBlock(skeletons)
        selected: list[Feature] = []
        selected_supports: dict[str, frozenset] = {}

        # a level is a list of (canonical key, candidate) pairs in key order
        level = self._single_edge_seeds(skeletons)
        for num_vertices in range(2, self.config.max_vertices + 1):
            scored = []
            for key, candidate in level:
                support, qualified, embeddings = self._support(candidate, block)
                if not support:
                    continue
                frequency = len(qualified) / len(skeletons)
                if frequency < self.config.beta:
                    continue
                if not self._is_discriminative(candidate, support, selected, selected_supports):
                    continue
                order = (-frequency, candidate.num_edges, key)
                scored.append((*order, candidate, support, embeddings))
            # prefer frequent candidates; small ones are generated first anyway
            # (keys are distinct, so the comparison never reaches the graphs)
            scored.sort()
            for _, _, key, candidate, support, _ in scored:
                if len(selected) >= self.config.max_features:
                    return selected
                selected.append(
                    Feature(
                        feature_id=len(selected), graph=candidate, support=support, canonical=key
                    )
                )
                selected_supports[key] = support
            full = len(selected) >= self.config.max_features
            if full or num_vertices == self.config.max_vertices:
                break  # no further level will be scored: nothing to grow for
            level = self._grow([embeddings for *_, embeddings in scored], skeletons)
        return selected

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------
    @staticmethod
    def _single_edge_seeds(skeletons: list[LabeledGraph]) -> list[tuple[str, LabeledGraph]]:
        """All distinct single-edge features present in the database.

        A seed is determined by its (endpoint label pair, edge label) triple,
        so the colour refinement behind ``canonical_form`` runs once per
        distinct triple (the first edge that shows it), not once per data
        edge.
        """
        triples: dict[tuple, LabeledGraph] = {}
        for skeleton in skeletons:
            for edge in skeleton.edges():
                labels = (skeleton.vertex_label(edge.u), skeleton.vertex_label(edge.v))
                triple = (frozenset(map(repr, labels)), repr(edge.label))
                if triple not in triples:
                    triples[triple] = LabeledGraph.from_edges(
                        dict(enumerate(labels)), [(0, 1, edge.label)]
                    )
        return sorted((canonical_form(seed), seed) for seed in triples.values())

    def _grow(
        self, parents: list[list[list[Embedding]]], skeletons: list[LabeledGraph]
    ) -> list[tuple[str, LabeledGraph]]:
        """Extend parent features by one edge along their data-graph embeddings.

        ``parents`` holds, per surviving parent in score order, the
        per-skeleton embedding lists :meth:`_support` enumerated for it.
        """
        candidates: dict[str, LabeledGraph] = {}
        for embeddings_per_skeleton in parents:
            for skeleton, embeddings in zip(skeletons, embeddings_per_skeleton):
                for embedding in embeddings:
                    extensions = self._extensions_of(embedding.edges, skeleton)
                    for extension_edges in extensions:
                        candidate = _rebuild_feature(skeleton, extension_edges)
                        if candidate.num_vertices > self.config.max_vertices:
                            continue
                        candidates.setdefault(canonical_form(candidate), candidate)
                        if len(candidates) >= self.config.max_candidates_per_level:
                            return sorted(candidates.items())
        return sorted(candidates.items())

    @staticmethod
    def _extensions_of(embedding_edges: frozenset, skeleton: LabeledGraph) -> list[frozenset]:
        """Edge sets that extend an embedding by one adjacent skeleton edge."""
        vertices = set()
        for u, v in embedding_edges:
            vertices.add(u)
            vertices.add(v)
        extensions = []
        # sorted: extension order decides which candidates land before the
        # per-level cap, and raw set order is hash-seed dependent for str ids
        for vertex in sorted(vertices, key=repr):
            for neighbor in skeleton.neighbors(vertex):
                key = edge_key(vertex, neighbor)
                if key not in embedding_edges:
                    extensions.append(frozenset(embedding_edges | {key}))
        return extensions

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _support(
        self, candidate: LabeledGraph, block: GraphBlock
    ) -> tuple[frozenset, frozenset, list[list[Embedding]]]:
        """(support, qualified-support, per-skeleton embeddings) of a candidate.

        ``support`` is every graph containing the feature; ``qualified`` only
        counts graphs where the disjoint-embedding ratio reaches ``alpha``
        (the frequency of Algorithm 4 uses the qualified set).  The
        embeddings are handed back so :meth:`_grow` extends them instead of
        enumerating them again.
        """
        containing = set()
        qualified = set()
        embeddings_per_skeleton = find_embeddings_block(
            candidate, block, limit=self.config.embedding_limit
        )
        for index, embeddings in enumerate(embeddings_per_skeleton):
            if not embeddings:
                continue
            containing.add(index)
            disjoint = maximal_disjoint_embeddings(embeddings)
            if len(disjoint) / len(embeddings) >= self.config.alpha:
                qualified.add(index)
        return frozenset(containing), frozenset(qualified), embeddings_per_skeleton

    def _is_discriminative(
        self,
        candidate: LabeledGraph,
        support: frozenset,
        selected: list[Feature],
        selected_supports: dict[str, frozenset],
    ) -> bool:
        """``dis(f) = |∩ Df'| / |Df| > γ`` over indexed sub-features of f."""
        if not support:
            return False
        subfeature_supports = [
            selected_supports[feature.canonical]
            for feature in selected
            if feature.num_edges < candidate.num_edges
            and match_block(feature.graph, (candidate,))[0]
        ]
        if not subfeature_supports:
            return True
        intersection = set(subfeature_supports[0])
        for other in subfeature_supports[1:]:
            intersection &= other
        return (len(intersection) / len(support)) > self.config.gamma


def _rebuild_feature(skeleton: LabeledGraph, edges: frozenset) -> LabeledGraph:
    """Copy an edge-induced subgraph of a data graph with fresh vertex ids."""
    sub = skeleton.subgraph_by_edges(edges)
    mapping = {vertex: index for index, vertex in enumerate(sorted(sub.vertices(), key=repr))}
    return sub.relabel_vertices(mapping)
