"""Union-of-conjunctions probabilities: exact inclusion-exclusion.

Theorem 2 of the paper reduces #DNF to subgraph-similarity-probability
computation; conversely, the SSP of a query is exactly the probability of a
DNF formula whose clauses are the embeddings of the relaxed queries
(Lemma 1 + Equation 22).  Each clause (event) is a row of a mask matrix — the
edges that must all be present in the sampled world;
:mod:`repro.probability.events` holds the layout, canonical order and
normalization — and the union of a subset of clauses is the OR of their rows.

:func:`exact_union_probability` is inclusion-exclusion over the events
(Equation 21); exponential in the number of events, guarded by a cap, used by
the ``Exact`` verification baseline and by tests.  Like the Karp-Luby
estimator of :mod:`repro.probability.batch_kernel` it takes every ``Pr(Bf)``
from :func:`repro.probability.batch_kernel.clause_weights`.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import VerificationError
from repro.probability.batch_kernel import clause_weights, event_masks

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import ProbabilisticGraph

DEFAULT_EXACT_EVENT_LIMIT = 20
DEFAULT_EXACT_TOLERANCE = 1e-6


def exact_union_probability(
    graph: ProbabilisticGraph,
    events,
    max_events: int = DEFAULT_EXACT_EVENT_LIMIT,
    tolerance: float = DEFAULT_EXACT_TOLERANCE,
) -> float:
    """``Pr(∨_i  all edges of event_i present)`` by inclusion-exclusion over
    ``events`` (what :func:`~repro.probability.batch_kernel.event_masks` takes).

    A correct inclusion-exclusion total is a probability; floating-point
    cancellation may push it a hair outside [0, 1], which the return value
    clamps away.  A total outside ``[-tolerance, 1 + tolerance]``, however,
    signals a sign or term-enumeration bug (or inconsistent factor tables)
    and raises :class:`VerificationError` instead of being silently clamped.
    """
    masks = event_masks(graph, events)
    if not len(masks):
        return 0.0
    if len(masks) > max_events:
        raise VerificationError(
            f"inclusion-exclusion over {len(masks)} events (limit {max_events}); "
            "use estimate_union_probability_batch instead"
        )
    # each row as one integer (word w in bits 64w..64w+63): a union is an OR
    words = masks.shape[1]
    rows = [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in masks]
    unions, signs = [], []
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            unions.append(reduce(or_, subset))
            signs.append(size % 2 == 1)
    shifts = [64 * w for w in range(words)]
    union_masks = np.array(
        [[union >> shift & 0xFFFFFFFFFFFFFFFF for shift in shifts] for union in unions],
        dtype=np.uint64,
    ).reshape(len(unions), words)
    # one clause_weights call for all 2^m - 1 terms: one model lookup and, on
    # overlapping factors, one elimination engine
    total = 0.0
    for odd, weight in zip(signs, clause_weights(graph, union_masks)):
        total += weight if odd else -weight
    if total < -tolerance or total > 1.0 + tolerance:
        raise VerificationError(
            f"inclusion-exclusion total {total!r} leaves [0, 1] by more than "
            f"{tolerance!r}; the event terms cancel inconsistently"
        )
    return min(1.0, max(0.0, total))
