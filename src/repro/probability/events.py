"""Events (DNF clauses) shared by the estimators: their canonical order and
normalization.

An event is a set of edge keys that must all be present in a sampled world.
This is a leaf module: :mod:`repro.probability.dnf` (exact
inclusion-exclusion) and :mod:`repro.probability.batch_kernel` (the kernel,
which ``dnf`` takes its clause weights from) both import it.
"""

from __future__ import annotations

Event = frozenset  # frozenset[EdgeKey]


def _vertex_sort_key(vertex) -> tuple:
    """Total order over vertex ids of mixed types (class name, then value).

    Mirrors :func:`repro.graphs.labeled_graph.edge_key`: hashable-but-
    unorderable vertex ids fall back to comparing their ``repr`` (the
    discriminator slot keeps orderable and fallback keys from ever being
    compared value-against-repr).
    """
    try:
        vertex < vertex  # orderability probe  # noqa: B015
        return (type(vertex).__name__, 0, vertex)
    except TypeError:
        return (type(vertex).__name__, 1, repr(vertex))


def _edge_sort_key(edge) -> tuple:
    """Canonical sort key of one edge key: its vertices' sort keys in order."""
    return tuple(_vertex_sort_key(vertex) for vertex in edge)


def canonical_event_key(event) -> tuple:
    """Canonical sort key of one event: (size, sorted edge-key tuple).

    Built from the edge keys' own values — never from ``repr`` strings, whose
    formatting is not part of any contract — so the estimator's event order
    (and therefore its draw sequence under a fixed seed) is pinned by graph
    structure alone.
    """
    edges = sorted(event, key=_edge_sort_key)
    return (len(edges), tuple(_edge_sort_key(edge) for edge in edges))


class NormalizedEvents(list):
    """What :func:`normalize_events` returns; normalising it again is free."""


def normalize_events(events: list[frozenset | set]) -> NormalizedEvents:
    """Deduplicate events and drop ones absorbed by a weaker event.

    An event is the conjunction "all of these edges are present", so if
    A ⊆ B (B requires a superset of A's edges) then B implies A and the
    disjunction A ∨ B collapses to A.  Supersets are therefore dropped, which
    keeps both the exact and the sampled estimators cheaper without changing
    the union probability.  Empty events are dropped too (the caller treats
    "no events" as probability zero).  The surviving events come back in
    :func:`canonical_event_key` order, which both estimators (scalar and
    batched) treat as the clause order of Algorithm 5.  A list this function
    returned comes back as it is: the verifier normalises, then picks an estimator.
    """
    if isinstance(events, NormalizedEvents):
        return events
    unique = {Event(e) for e in events if e}
    kept = NormalizedEvents()
    for event in sorted(unique, key=canonical_event_key):
        if any(existing <= event for existing in kept):
            continue
        kept.append(event)
    return kept
