"""Union-of-conjunctions probabilities: exact inclusion-exclusion and the
Karp-Luby estimator.

Theorem 2 of the paper reduces #DNF to subgraph-similarity-probability
computation; conversely, the SSP of a query is exactly the probability of a
DNF formula whose clauses are the embeddings of the relaxed queries
(Lemma 1 + Equation 22).  Each clause (event) here is a set of edge keys that
must all be present in the sampled world.

* :func:`exact_union_probability` — inclusion-exclusion over the events
  (Equation 21); exponential in the number of events, guarded by a cap, used
  by the ``Exact`` verification baseline and by tests.  Like both
  estimators it takes every ``Pr(Bf)`` from
  :func:`repro.probability.batch_kernel.clause_weights`.
* :func:`estimate_union_probability` — the Karp-Luby coverage estimator that
  Algorithm 5 instantiates.  The paper's pseudo-code returns ``Cnt/N``; the
  unbiased coverage estimator is ``V * Cnt / N`` with ``V = Σ Pr(Bfi)``, which
  is what this function returns (clamped to [0, 1]); see DESIGN.md §4.

The estimator here is the *scalar reference implementation* (one world at a
time; ``method="sampling_scalar"`` in :class:`~repro.core.verification.
VerificationConfig`).  The production path is the vectorized batch kernel in
:mod:`repro.probability.batch_kernel`, whose ``scalar_replay`` mode
reproduces this function bit-for-bit from the same rng.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from repro.exceptions import VerificationError
from repro.probability.sampling import (
    DEFAULT_TAU,
    DEFAULT_XI,
    WorldSampler,
    check_sample_count,
    monte_carlo_sample_size,
)
from repro.utils.rng import RandomLike, ensure_rng

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import EdgeKey, ProbabilisticGraph

Event = frozenset  # frozenset[EdgeKey]

DEFAULT_EXACT_EVENT_LIMIT = 20


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


def normalize_events(events: list[frozenset | set]) -> list[Event]:
    """Deduplicate events and drop ones absorbed by a weaker event.

    An event is the conjunction "all of these edges are present", so if
    A ⊆ B (B requires a superset of A's edges) then B implies A and the
    disjunction A ∨ B collapses to A.  Supersets are therefore dropped, which
    keeps both the exact and the sampled estimators cheaper without changing
    the union probability.  Empty events are dropped too (the caller treats
    "no events" as probability zero).  The surviving events come back in
    :func:`canonical_event_key` order, which both estimators (scalar and
    batched) treat as the clause order of Algorithm 5.
    """
    unique = {Event(e) for e in events if e}
    kept: list[Event] = []
    for event in sorted(unique, key=canonical_event_key):
        if any(existing <= event for existing in kept):
            continue
        kept.append(event)
    return kept


DEFAULT_EXACT_TOLERANCE = 1e-6


def clause_weights(graph: ProbabilisticGraph, events) -> list[float]:
    """``Pr(Bf)`` per event, from :func:`repro.probability.batch_kernel.
    clause_weights` (imported on call: that module imports this one's event
    helpers at module level)."""
    from repro.probability import batch_kernel

    return batch_kernel.clause_weights(graph, events)


def exact_union_probability(
    graph: ProbabilisticGraph,
    events: list[frozenset | set],
    max_events: int = DEFAULT_EXACT_EVENT_LIMIT,
    tolerance: float = DEFAULT_EXACT_TOLERANCE,
) -> float:
    """``Pr(∨_i  all edges of event_i present)`` by inclusion-exclusion.

    A correct inclusion-exclusion total is a probability; floating-point
    cancellation may push it a hair outside [0, 1], which the return value
    clamps away.  A total outside ``[-tolerance, 1 + tolerance]``, however,
    signals a sign or term-enumeration bug (or inconsistent factor tables)
    and raises :class:`VerificationError` instead of being silently clamped.
    """
    clean = normalize_events(events)
    if not clean:
        return 0.0
    if len(clean) > max_events:
        raise VerificationError(
            f"inclusion-exclusion over {len(clean)} events (limit {max_events}); "
            "use estimate_union_probability instead"
        )
    total = 0.0
    for size in range(1, len(clean) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(clean, size):
            union_edges: set[EdgeKey] = set()
            for event in subset:
                union_edges.update(event)
            total += sign * clause_weights(graph, [union_edges])[0]
    if total < -tolerance or total > 1.0 + tolerance:
        raise VerificationError(
            f"inclusion-exclusion total {total!r} leaves [0, 1] by more than "
            f"{tolerance!r}; the event terms cancel inconsistently"
        )
    return min(1.0, max(0.0, total))


def estimate_union_probability(
    graph: ProbabilisticGraph,
    events: list[frozenset | set],
    xi: float = DEFAULT_XI,
    tau: float = DEFAULT_TAU,
    num_samples: int | None = None,
    rng: RandomLike = None,
) -> float:
    """Karp-Luby coverage estimate of the union probability (Algorithm 5).

    Parameters
    ----------
    graph:
        The probabilistic graph whose worlds are sampled.
    events:
        Each event is a set of edge keys that must all be present.
    xi, tau:
        Failure probability and accuracy of the Monte-Carlo bound; the sample
        count defaults to ``(4 ln(2/ξ)) / τ²``.
    num_samples:
        Explicit override of the sample count.
    """
    check_sample_count(num_samples)
    clean = normalize_events(events)
    if not clean:
        return 0.0
    generator = ensure_rng(rng)
    weights = clause_weights(graph, clean)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return 0.0

    sampler = WorldSampler(graph, rng=generator)
    n = num_samples if num_samples is not None else monte_carlo_sample_size(xi, tau)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)

    count = 0
    for _ in range(n):
        pick = generator.random() * total_weight
        index = _bisect(cumulative, pick)
        event = clean[index]
        evidence = {key: 1 for key in event}
        present = sampler.sample_present_edges(evidence)
        # canonical-clause check: count only when no earlier event is satisfied
        if not any(clean[j] <= present for j in range(index)):
            count += 1
    estimate = total_weight * count / n
    return min(1.0, max(0.0, estimate))


def _bisect(cumulative: list[float], value: float) -> int:
    """Index of the first cumulative weight >= value."""
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative[mid] < value:
            low = mid + 1
        else:
            high = mid
    return low
