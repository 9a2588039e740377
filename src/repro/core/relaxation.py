"""Query relaxation: the remaining-graph set ``U = {rq1, ..., rqa}``.

Lemma 1 rewrites the subgraph similarity probability as the probability that
at least one graph obtained from ``q`` by relaxing exactly ``δ`` edges is a
subgraph of the possible world.  Relaxation operations are edge deletions and
edge relabelings (insertions never help a subgraph query).  The relaxed set
is deduplicated by canonical form and capped to keep downstream work bounded,
mirroring the role of [38] in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.exceptions import QueryError
from repro.graphs.canonical import canonical_form
from repro.graphs.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class RelaxationConfig:
    """Controls how the relaxed query set is generated.

    Attributes
    ----------
    include_relabelings:
        Also generate variants where deleted-edge slots are replaced by a
        relabeled edge.  The paper allows deletions and relabelings; pure
        deletions already dominate the probability (a relabeled variant is a
        supergraph of the deletion variant), so the default keeps only
        deletions, which is both cheaper and sufficient for the bound
        computations.
    require_connected:
        Drop relaxed graphs that become disconnected.  Connected variants
        make feature containment tests cheaper; disconnected ones are still
        legal per Definition 5, so this defaults to False.
    drop_isolated_vertices:
        Remove vertices left with no incident edge after deletion.
    max_variants:
        Hard cap on the size of ``U``.
    """

    include_relabelings: bool = False
    require_connected: bool = False
    drop_isolated_vertices: bool = True
    max_variants: int = 64


def relax_query(
    query: LabeledGraph,
    distance_threshold: int,
    config: RelaxationConfig | None = None,
    edge_label_alphabet: list | None = None,
) -> list[LabeledGraph]:
    """Generate the relaxed query set ``U`` for ``distance_threshold`` edges.

    Parameters
    ----------
    query:
        The connected query graph.
    distance_threshold:
        ``δ``; exactly this many edges are relaxed (Lemma 1 shows the sets
        for smaller relaxations are subsumed).
    edge_label_alphabet:
        Labels available for relabeling variants (ignored unless
        ``config.include_relabelings``).

    Returns
    -------
    list[LabeledGraph]
        Deduplicated relaxed queries; the original query when ``δ == 0``.
    """
    cfg = config or RelaxationConfig()
    if distance_threshold < 0:
        raise QueryError("distance threshold must be >= 0")
    if query.num_edges == 0:
        raise QueryError("query graph must contain at least one edge")
    if distance_threshold >= query.num_edges:
        raise QueryError(
            f"distance threshold {distance_threshold} must be smaller than the "
            f"query size ({query.num_edges} edges); every graph would match trivially"
        )
    if distance_threshold == 0:
        return [query.copy()]

    edge_keys = sorted(query.edge_keys(), key=repr)
    variants: dict[str, LabeledGraph] = {}
    for deletion in combinations(edge_keys, distance_threshold):
        relaxed = query.copy()
        for u, v in deletion:
            relaxed.remove_edge(u, v)
        if cfg.drop_isolated_vertices:
            relaxed.remove_isolated_vertices()
        if relaxed.num_edges == 0:
            continue
        if cfg.require_connected and not relaxed.is_connected():
            continue
        key = canonical_form(relaxed)
        if key not in variants:
            variants[key] = relaxed
        if cfg.include_relabelings and edge_label_alphabet:
            for relabeled in _relabel_variants(query, deletion, edge_label_alphabet, cfg):
                relabel_key = canonical_form(relabeled)
                if relabel_key not in variants:
                    variants[relabel_key] = relabeled
                if len(variants) >= cfg.max_variants:
                    break
        if len(variants) >= cfg.max_variants:
            break
    ordered = [variants[key] for key in sorted(variants)]
    return ordered[: cfg.max_variants]


def _relabel_variants(
    query: LabeledGraph,
    deletion: tuple,
    edge_label_alphabet: list,
    cfg: RelaxationConfig,
) -> list[LabeledGraph]:
    """Variants that relabel (rather than delete) the relaxed edges."""
    variants = []
    for u, v in deletion:
        original_label = query.edge_label(u, v)
        for label in edge_label_alphabet:
            if label == original_label:
                continue
            relabeled = query.copy()
            for du, dv in deletion:
                relabeled.remove_edge(du, dv)
            relabeled.add_edge(u, v, label)
            if cfg.drop_isolated_vertices:
                relabeled.remove_isolated_vertices()
            if relabeled.num_edges == 0:
                continue
            if cfg.require_connected and not relabeled.is_connected():
                continue
            variants.append(relabeled)
    return variants
