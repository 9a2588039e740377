"""Union-of-conjunctions probabilities: exact inclusion-exclusion and the
Karp-Luby estimator.

Theorem 2 of the paper reduces #DNF to subgraph-similarity-probability
computation; conversely, the SSP of a query is exactly the probability of a
DNF formula whose clauses are the embeddings of the relaxed queries
(Lemma 1 + Equation 22).  Each clause (event) here is a set of edge keys that
must all be present in the sampled world; :mod:`repro.probability.events`
holds their canonical order and normalization.

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
from repro.probability.batch_kernel import clause_weights
from repro.probability.events import (
    Event,
    _bisect,
    normalize_events,
)
from repro.probability.sampling import (
    DEFAULT_TAU,
    DEFAULT_XI,
    WorldSampler,
    check_sample_count,
    monte_carlo_sample_size,
)
from repro.utils.rng import RandomLike, ensure_rng

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
            "use estimate_union_probability instead"
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
