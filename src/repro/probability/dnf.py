"""Union-of-conjunctions probabilities: exact inclusion-exclusion.

Theorem 2 of the paper reduces #DNF to subgraph-similarity-probability
computation; conversely, the SSP of a query is exactly the probability of a
DNF formula whose clauses are the embeddings of the relaxed queries
(Lemma 1 + Equation 22).  Each clause (event) here is a set of edge keys that
must all be present in the sampled world; :mod:`repro.probability.events`
holds their canonical order and normalization.

:func:`exact_union_probability` is inclusion-exclusion over the events
(Equation 21); exponential in the number of events, guarded by a cap, used by
the ``Exact`` verification baseline and by tests.  Like the Karp-Luby
estimator of :mod:`repro.probability.batch_kernel` it takes every ``Pr(Bf)``
from :func:`repro.probability.batch_kernel.clause_weights`.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from repro.exceptions import VerificationError
from repro.probability.batch_kernel import clause_weights
from repro.probability.events import Event, normalize_events

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import ProbabilisticGraph

DEFAULT_EXACT_EVENT_LIMIT = 20
DEFAULT_EXACT_TOLERANCE = 1e-6


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
            "use estimate_union_probability_batch instead"
        )

    def subsets():
        for size in range(1, len(clean) + 1):
            yield from combinations(clean, size)

    # one clause_weights call for all 2^m - 1 terms: one model lookup and, on
    # overlapping factors, one elimination engine
    weights = clause_weights(graph, (Event().union(*subset) for subset in subsets()))
    total = 0.0
    for subset, weight in zip(subsets(), weights):
        total += weight if len(subset) % 2 == 1 else -weight
    if total < -tolerance or total > 1.0 + tolerance:
        raise VerificationError(
            f"inclusion-exclusion total {total!r} leaves [0, 1] by more than "
            f"{tolerance!r}; the event terms cancel inconsistently"
        )
    return min(1.0, max(0.0, total))
