"""The scalar Karp-Luby sampler: the reference the batch kernel is tested against.

:class:`WorldSampler` draws possible worlds of a probabilistic graph one at a
time, optionally *conditioned* on a partial edge assignment, by walking its
factors and sampling each joint probability table through
``Factor.condition``.  :func:`estimate_union_probability` drives it through
Algorithm 5, one world per sample, with frozenset containment as the coverage
test — the pre-kernel implementation of the estimator.  Production verification
and the index build draw their worlds with
:mod:`repro.probability.batch_kernel`, whose canonical draw order differs
(same distribution, different floats).

:func:`replay_union_probability` bridges the two: it consumes the caller's rng
in the scalar estimator's interleaved order and evaluates the worlds with the
kernel's arrays and coverage count, so it must reproduce
:func:`estimate_union_probability` bit for bit — evidence that the kernel
computes the same estimator.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ProbabilityError
from repro.probability.batch_kernel import (
    _canonical_clause_count,
    _categorical,
    clause_weights,
    compile_events,
    compile_world_model,
)
from repro.probability.sampling import (
    DEFAULT_TAU,
    DEFAULT_XI,
    check_sample_count,
    monte_carlo_sample_size,
)
from repro.reference.events import normalize_events
from repro.utils.rng import RandomLike, ensure_rng

if TYPE_CHECKING:
    from repro.graphs.probabilistic_graph import EdgeKey, ProbabilisticGraph


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


def estimate_union_probability(
    graph: ProbabilisticGraph,
    events: list[frozenset | set],
    xi: float = DEFAULT_XI,
    tau: float = DEFAULT_TAU,
    num_samples: int | None = None,
    rng: RandomLike = None,
) -> float:
    """Karp-Luby coverage estimate of the union probability (Algorithm 5), one
    world at a time.

    The paper's pseudo-code returns ``Cnt/N``; the unbiased coverage
    estimator is ``V * Cnt / N`` with ``V = Σ Pr(Bfi)``, which is what this
    returns (clamped to [0, 1]).  The sample count defaults to
    ``(4 ln(2/ξ)) / τ²``; the clause weights are the kernel's
    :func:`~repro.probability.batch_kernel.clause_weights`.
    """
    return _karp_luby(graph, events, xi, tau, num_samples, rng, _count_worlds)


def replay_union_probability(
    graph: ProbabilisticGraph,
    events: list[frozenset | set],
    xi: float = DEFAULT_XI,
    tau: float = DEFAULT_TAU,
    num_samples: int | None = None,
    rng: RandomLike = None,
) -> float:
    """:func:`estimate_union_probability` with the worlds evaluated as the batch
    kernel evaluates them (same inputs, same value, bit for bit)."""
    return _karp_luby(graph, events, xi, tau, num_samples, rng, _count_replay)


def _karp_luby(graph, events, xi, tau, num_samples, rng, count) -> float:
    """``V * count(...) / N`` clamped to [0, 1], both estimators' shell."""
    check_sample_count(num_samples)
    clean = normalize_events(events)
    if not clean:
        return 0.0
    generator = ensure_rng(rng)
    weights = clause_weights(graph, clean)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return 0.0
    n = num_samples if num_samples is not None else monte_carlo_sample_size(xi, tau)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    estimate = total_weight * count(graph, clean, cumulative, total_weight, n, generator) / n
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


def _count_worlds(graph, clean, cumulative, total_weight, n, generator) -> int:
    """Per sample: one weighted event pick, one world conditioned on it, and
    the canonical-clause check (no earlier event is satisfied)."""
    sampler = WorldSampler(graph, rng=generator)
    count = 0
    for _ in range(n):
        index = _bisect(cumulative, generator.random() * total_weight)
        present = sampler.sample_present_edges({key: 1 for key in clean[index]})
        if not any(clean[j] <= present for j in range(index)):
            count += 1
    return count


def _count_replay(graph, clean, cumulative, total_weight, n, generator) -> int:
    """The uniforms of :func:`_count_worlds`, in its order, evaluated as arrays.

    Per sample the scalar path draws one event pick, then one uniform per
    factor that still has unassigned edges given the chosen event's evidence
    — a consumption pattern that depends only on the event.  One cheap Python
    pass collects the uniforms; the worlds are then built conditioning
    through the original ``Factor.condition`` objects, so every float matches.
    """
    model = compile_world_model(graph)
    consuming = [_consuming_factors(graph, event) for event in clean]
    chosen = np.empty(n, dtype=np.int64)
    factor_uniforms = np.full((len(graph.factors), n), np.nan)
    for sample in range(n):
        event_index = _bisect(cumulative, generator.random() * total_weight)
        chosen[sample] = event_index
        for factor_position in consuming[event_index]:
            factor_uniforms[factor_position, sample] = generator.random()
    worlds = np.empty((n, model.num_edges), dtype=bool)
    for event_index in np.unique(chosen).tolist():
        rows = np.flatnonzero(chosen == event_index)
        worlds[rows] = _replay_worlds(graph, model, clean[event_index], factor_uniforms[:, rows])
    return _canonical_clause_count(worlds, compile_events(model, clean), chosen)


def _consuming_factors(graph, event) -> list[int]:
    """Factor positions that draw one uniform per sample for this event."""
    assigned = set(event)
    consuming = []
    for position, factor in enumerate(graph.factors):
        if any(key not in assigned for key in factor.edges):
            consuming.append(position)
            assigned.update(factor.edges)
    return consuming


def _replay_worlds(graph, model, event, uniforms) -> np.ndarray:
    """Worlds for one event group from pre-collected scalar-order uniforms.

    ``uniforms[f, s]`` is the uniform the scalar sampler would feed
    ``Factor.sample`` for factor ``f`` of (local) sample ``s``; conditional
    tables are built by the very ``Factor.condition`` call the scalar path
    uses, so entry order, partial sums, and tie behaviour are identical.
    """
    group = uniforms.shape[1]
    worlds = np.zeros((group, model.num_edges), dtype=np.uint8)
    worlds[:, model.columns(event)] = 1
    assigned = set(event)
    for position, factor in enumerate(graph.factors):
        fixed_keys = [key for key in factor.edges if key in assigned]
        pending = [key for key in factor.edges if key not in assigned]
        if not pending:
            continue
        group_uniforms = uniforms[position]
        if fixed_keys:
            fixed_cols = np.array([model.index[key] for key in fixed_keys])
            patterns = worlds[:, fixed_cols].astype(np.int64)
            codes = patterns @ (1 << np.arange(len(fixed_keys), dtype=np.int64))
            for code in np.unique(codes):
                rows = np.flatnonzero(codes == code)
                fixed = {
                    key: int((int(code) >> slot) & 1)
                    for slot, key in enumerate(fixed_keys)
                }
                conditional = factor.jpt.condition(fixed)
                if conditional.total() <= 0:
                    raise ProbabilityError(
                        f"evidence {fixed!r} has zero probability under factor "
                        f"{factor.edges!r}"
                    )
                _scatter_factor_draws(
                    worlds, model, conditional, rows, group_uniforms[rows]
                )
        else:
            rows = np.arange(group)
            _scatter_factor_draws(worlds, model, factor.jpt, rows, group_uniforms)
        assigned.update(factor.edges)
    return worlds.astype(bool)


def _scatter_factor_draws(worlds, model, conditional, rows, uniforms) -> None:
    """Vectorized ``Factor.sample`` over one (factor, pattern) sample group."""
    entries = list(conditional.table.items())
    values = np.array([value for _, value in entries], dtype=np.float64)
    cumulative = np.cumsum(values)
    picks = uniforms * conditional.total()
    entry = _categorical(cumulative, picks)
    assignment_rows = np.array([a for a, _ in entries], dtype=np.uint8)
    columns = np.array([model.index[v] for v in conditional.variables], dtype=np.int64)
    worlds[np.ix_(rows, columns)] = assignment_rows[entry]
