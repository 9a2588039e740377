"""Possible-world sampling and Monte-Carlo helpers.

Two pieces of the paper live here:

* the sample-size rule ``N = (4 ln(2/ξ)) / τ²`` used by Algorithms 3 and 5
  (Section 4.1.1 / Section 5, following Mitzenmacher & Upfal [26]);
* :class:`WorldSampler`, which draws possible worlds of a probabilistic
  graph, optionally *conditioned* on a partial edge assignment (needed by the
  Karp–Luby verification sampler, which conditions on one embedding being
  present).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from numbers import Integral
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, ProbabilityError
from repro.utils.rng import RandomLike, ensure_rng

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import EdgeKey, ProbabilisticGraph

DEFAULT_XI = 0.05
DEFAULT_TAU = 0.1


def monte_carlo_sample_size(xi: float = DEFAULT_XI, tau: float = DEFAULT_TAU) -> int:
    """The paper's cycling number ``m = (4 ln(2/ξ)) / τ²``.

    ``ξ`` bounds the failure probability and must be in (0, 1); ``τ`` is the
    *relative error* of the estimator (Monte-Carlo theory, [26]) and must be
    in (0, 1] — a relative error above 1 is meaningless for a probability
    and silently degenerated into a 1-sample estimate before this check
    existed.
    """
    if not 0.0 < xi < 1.0:
        raise ConfigurationError(f"xi must be in (0, 1), got {xi!r}")
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError(f"tau must be in (0, 1], got {tau!r}")
    return max(1, math.ceil((4.0 * math.log(2.0 / xi)) / (tau * tau)))


def check_sample_count(num_samples: int | None) -> None:
    """Reject an explicit sample count that is not an integer >= 1.

    ``None`` (use the cycling number for ``(ξ, τ)``) passes.  Without the
    check a count of 0 divides by zero inside the estimators and a negative
    one fails in numpy or yields a silent ``0.0``; bool is an int subclass
    and is rejected explicitly.
    """
    if num_samples is None:
        return
    if (
        isinstance(num_samples, bool)
        or not isinstance(num_samples, Integral)
        or num_samples < 1
    ):
        raise ConfigurationError(
            f"num_samples must be an integer >= 1 or None, got {num_samples!r}"
        )


class WorldSampler:
    """Draws possible worlds of one probabilistic graph.

    The sampler walks the graph's factors in a fixed order, conditioning each
    joint probability table on the edges already fixed (either by earlier
    overlapping factors or by the caller's evidence), and samples the
    remaining edges of the factor from the conditional distribution.
    """

    def __init__(self, graph: ProbabilisticGraph, rng: RandomLike = None) -> None:
        self.graph = graph
        self.rng = ensure_rng(rng)

    def sample_assignment(
        self, evidence: Mapping[EdgeKey, int] | None = None
    ) -> dict[EdgeKey, int]:
        """One full edge assignment, optionally conditioned on ``evidence``.

        Raises :class:`ProbabilityError` when the evidence is impossible
        under some factor (zero conditional mass).
        """
        assignment: dict[EdgeKey, int] = dict(evidence or {})
        for factor in self.graph.factors:
            fixed = {e: assignment[e] for e in factor.edges if e in assignment}
            pending = [e for e in factor.edges if e not in assignment]
            if not pending:
                continue
            jpt = factor.jpt
            if fixed:
                conditional = jpt.condition(fixed)
                if conditional.total() <= 0:
                    raise ProbabilityError(
                        f"evidence {fixed!r} has zero probability under factor {factor.edges!r}"
                    )
            else:
                conditional = jpt
            draw = conditional.sample(self.rng)
            for key in pending:
                assignment[key] = draw[key]
        return assignment

    def sample_present_edges(
        self, evidence: Mapping[EdgeKey, int] | None = None
    ) -> frozenset:
        """The set of present edges of one sampled world."""
        assignment = self.sample_assignment(evidence)
        return frozenset(key for key, value in assignment.items() if value == 1)

    def estimate_event_probability(
        self,
        predicate: Callable[[frozenset], bool],
        num_samples: int | None = None,
        xi: float = DEFAULT_XI,
        tau: float = DEFAULT_TAU,
    ) -> float:
        """Monte-Carlo estimate of ``Pr(predicate(world))``.

        ``predicate`` receives the frozenset of present edge keys of each
        sampled world.  ``num_samples`` defaults to the paper's cycling
        number for the supplied ``(ξ, τ)``.
        """
        n = num_samples if num_samples is not None else monte_carlo_sample_size(xi, tau)
        hits = 0
        for _ in range(n):
            if predicate(self.sample_present_edges()):
                hits += 1
        return hits / n

    def estimate_conditional_probability(
        self,
        event: Callable[[frozenset], bool],
        condition: Callable[[frozenset], bool],
        num_samples: int | None = None,
        xi: float = DEFAULT_XI,
        tau: float = DEFAULT_TAU,
    ) -> float:
        """Ratio estimator for ``Pr(event | condition)`` (Algorithm 3 shape).

        Samples unconditioned worlds; counts ``n1`` = worlds satisfying both
        event and condition, ``n2`` = worlds satisfying the condition, and
        returns ``n1 / n2``.  Returns 0.0 when the condition never occurred
        in the sample (the caller should then treat the estimate as
        uninformative).
        """
        n = num_samples if num_samples is not None else monte_carlo_sample_size(xi, tau)
        joint_hits = 0
        condition_hits = 0
        for _ in range(n):
            present = self.sample_present_edges()
            if condition(present):
                condition_hits += 1
                if event(present):
                    joint_hits += 1
        if condition_hits == 0:
            return 0.0
        return joint_hits / condition_hits
