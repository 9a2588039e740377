"""Events as frozensets of edge keys: the oracle the mask layout is held to.

Before events became bit masks (:mod:`repro.probability.events`) an event was
a ``frozenset`` of edge keys, normalised here: deduplicated, supersets
absorbed, empty events dropped, sorted by :func:`canonical_event_key`.  The
mask normaliser must return the same members in the same order, and the
scalar sampler of :mod:`repro.reference.sampling` still reads these sets.
:func:`mask_events` decodes one graph's mask matrix back into such a list.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph
from repro.probability.events import _edge_sort_key, mask_bits

Event = frozenset  # frozenset[EdgeKey]


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

    If A ⊆ B then B implies A and A ∨ B collapses to A, so supersets are
    dropped; empty events are dropped too.  The survivors come back in
    :func:`canonical_event_key` order, the clause order of Algorithm 5.
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


def mask_events(skeleton: LabeledGraph, masks) -> list[frozenset]:
    """The rows of one graph's mask matrix as edge-key sets, in row order:
    bit ``E - 1 - rank`` is the edge of rank ``rank`` under ``_edge_sort_key``."""
    ranked = sorted(skeleton.edge_keys(), key=_edge_sort_key)
    present = mask_bits(masks, len(ranked) - 1 - np.arange(len(ranked)))
    return [frozenset(ranked[rank] for rank in np.flatnonzero(row).tolist()) for row in present]
