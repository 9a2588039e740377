"""Query relaxation: the remaining-graph set ``U = {rq1, ..., rqa}``.

Lemma 1 rewrites the subgraph similarity probability as the probability that
at least one graph obtained from ``q`` by deleting exactly ``δ`` edges is a
subgraph of the possible world: ``q`` minus ``δ`` edges on ``q``'s own vertex
ids, possibly disconnected, no isolated vertex kept — the remainder of
Definition 8.  (A relabeled variant is a supergraph of its deletion variant,
so relabelings add nothing to the union.)  The set is generated as rows of a
mask matrix over ``q``'s edge list
(:class:`~repro.graphs.variant_rows.VariantRows`): no graph per ``δ``-subset.

The set holds one member per isomorphism class, exactly.  Two subsets can only
be isomorphic when they agree on a cheap *invariant* — the multiset of deleted
edge signatures (endpoint labels, edge label) and the multiset of (vertex
label, remaining degree) over the vertices kept — so
:func:`~repro.graphs.canonical.canonical_form` is computed only for the members
of a group whose invariants collide.  Above ``MAX_EXACT_VERTICES`` that form is
a refinement hash, which non-isomorphic graphs can share: equal hashes are
confirmed with the join.

**Order.**  Discovery order: ``δ``-subsets in ``itertools.combinations`` order
over ``sorted(query.edge_keys(), key=repr)``, the first member of each
isomorphism class kept; a binding ``max_variants`` keeps the first
``max_variants`` of that order, mirroring the role of [38] in the paper.
Nothing downstream reads a position in ``U``, and the order does not depend on
the matching engine's.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice
from numbers import Integral

from repro.exceptions import ConfigurationError, QueryError
from repro.graphs.canonical import canonical_form
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.variant_rows import VariantRows
from repro.isomorphism.generic_join import is_subgraph_isomorphic


@dataclass(frozen=True)
class RelaxationConfig:
    """Controls how the relaxed query set is generated.

    Attributes
    ----------
    max_variants:
        Hard cap on the size of ``U`` (an integer >= 1: an empty ``U`` would
        answer every query with nothing, silently).
    """

    max_variants: int = 64

    def __post_init__(self) -> None:
        cap = self.max_variants
        if isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1:
            raise ConfigurationError(f"max_variants must be an integer >= 1, got {cap!r}")


def as_integer(value, name: str) -> int:
    """``value`` as a plain int: anything ``operator.index`` takes, never a bool."""
    if isinstance(value, bool):  # operator.index(True) is 1
        raise QueryError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise QueryError(f"{name} must be an integer, got {value!r}") from None


def relax_query(
    query: LabeledGraph, distance_threshold: int, config: RelaxationConfig | None = None
) -> VariantRows:
    """Generate the relaxed query set ``U`` for ``distance_threshold`` edges.

    Parameters
    ----------
    query:
        The connected query graph.
    distance_threshold:
        ``δ``, an integer (bools refused, like every δ); exactly this many
        edges are deleted (Lemma 1 shows the sets for smaller relaxations are
        subsumed).

    Returns
    -------
    VariantRows
        The deduplicated relaxed queries in the module's stated order, a
        sequence of :class:`LabeledGraph` items (built when indexed); the
        original query alone when ``δ == 0``.
    """
    cfg = config or RelaxationConfig()
    distance_threshold = as_integer(distance_threshold, "distance threshold")
    if distance_threshold < 0:
        raise QueryError("distance threshold must be >= 0")
    if query.num_edges == 0:
        raise QueryError("query graph must contain at least one edge")
    if distance_threshold >= query.num_edges:
        raise QueryError(
            f"distance threshold {distance_threshold} must be smaller than the "
            f"query size ({query.num_edges} edges); every graph would match trivially"
        )
    variants = _distinct_variants(VariantRows(query), distance_threshold)
    return VariantRows(query, list(islice(variants, cfg.max_variants)))


def _distinct_variants(frame: VariantRows, delta: int) -> Iterator[list[bool]]:
    """The row of each isomorphism class of ``δ``-deletions of ``frame.base``,
    in discovery order."""
    query, edges = frame.base, frame.edges
    column = {vertex: i for i, vertex in enumerate(frame.vertices)}
    ends = [(column[u], column[v]) for u, v in edges]
    # labels by repr, as canonical_form compares them (and strings sort, labels need not)
    vlabel = [repr(query.vertex_label(vertex)) for vertex in frame.vertices]
    signature = [repr(query.edge_signature(key)) for key in edges]
    degree = [query.degree(vertex) for vertex in frame.vertices]
    first: dict[tuple, list[bool]] = {}  # invariant -> the first row that has it
    classes: dict[tuple, dict] = {}  # ... -> its classes by form, once a second row has it
    for deleted in combinations(range(len(edges)), delta):
        kept, left = [True] * len(edges), list(degree)
        for e in deleted:
            kept[e] = False
            left[ends[e][0]] -= 1
            left[ends[e][1]] -= 1
        row = kept + [remaining > 0 for remaining in left]
        invariant = (
            tuple(sorted(signature[e] for e in deleted)),
            tuple(sorted(pair for pair in zip(vlabel, left) if pair[1])),  # the vertices kept
        )
        if invariant not in first:
            first[invariant] = row
            yield row
        else:  # a collision: only the canonical form tells isomorphic from merely alike
            known = classes.get(invariant)
            if known is None:
                known = classes[invariant] = {}
                _is_new_class(frame.graph_of(first[invariant]), known)
            if _is_new_class(frame.graph_of(row), known):
                yield row


def _is_new_class(graph: LabeledGraph, classes: dict[str, list[LabeledGraph]]) -> bool:
    """Record ``graph`` in ``classes`` (canonical form -> members) unless a
    member is isomorphic to it.  An exact form decides alone; a refinement hash
    (``"wl:"``) is confirmed against the members that share it, with the
    join — equal vertex and edge counts make ``⊆iso`` an isomorphism test."""
    form = canonical_form(graph)
    members = classes.get(form)
    if members is None:
        classes[form] = [graph]
        return True
    if form.startswith("wl:") and not any(is_subgraph_isomorphic(graph, m) for m in members):
        members.append(graph)
        return True
    return False
