"""Exact inference over a probabilistic graph's edge factors.

Algorithm 5 of the paper needs ``Pr(Bf)`` — the probability that every edge
of an embedding exists — which the authors compute with a junction-tree
procedure [17].  This module provides the equivalent capability through
variable elimination over the graph's neighbor-edge factors:

* :meth:`VariableEliminationEngine.probability_all_present` — marginal
  probability that a set of edges all exist.
* :meth:`VariableEliminationEngine.probability_of_event` — marginal
  probability of an arbitrary partial edge assignment.

Factors outside the connected factor component of the queried edges cancel
between numerator and denominator, so only the touched component is ever
multiplied out.  For edge-partitioned graphs (the common case produced by the
dataset generators) each factor is its own component and ``Pr(Bf)`` is a
simple product of per-factor marginals — which is how the production path
computes it: :func:`repro.probability.batch_kernel.clause_weights` reads each
single-factor component's masked sum straight off the compiled factor arrays
and comes here only for multi-factor (overlapping) components (and a lone
factor wider than its bit codes), through
:meth:`VariableEliminationEngine.partition_function` with the component's
``Z`` cached.  This engine stays the reference oracle the tests compare
those weights against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from repro.exceptions import ProbabilityError
from repro.probability.factors import Factor

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import EdgeKey, ProbabilisticGraph


class VariableEliminationEngine:
    """Exact marginal computation over a probabilistic graph's factors."""

    def __init__(self, graph: ProbabilisticGraph) -> None:
        self.graph = graph
        self._factor_index: dict[EdgeKey, list[int]] = {}
        for position, factor in enumerate(graph.factors):
            for key in factor.edges:
                self._factor_index.setdefault(key, []).append(position)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def probability_all_present(self, edges: Iterable[EdgeKey]) -> float:
        """``Pr(∧_{e in edges} x_e = 1)`` — the Pr(Bf) of Algorithm 5."""
        evidence = {key: 1 for key in edges}
        return self.probability_of_event(evidence)

    def probability_of_event(self, evidence: Mapping[EdgeKey, int]) -> float:
        """Marginal probability of a partial edge assignment."""
        if not evidence:
            return 1.0
        unknown = [key for key in evidence if key not in self._factor_index]
        if unknown:
            raise ProbabilityError(
                f"edges without probability factors: {sorted(map(repr, unknown))[:5]}"
            )
        positions = sorted(self._touched_component(evidence.keys()))
        denominator = self.partition_function(positions)
        if denominator <= 0:
            raise ProbabilityError("zero partition function; the factor component is degenerate")
        numerator = self.partition_function(positions, evidence)
        return min(1.0, max(0.0, numerator / denominator))

    def partition_function(
        self, positions: Iterable[int], evidence: Mapping[EdgeKey, int] | None = None
    ) -> float:
        """Unnormalized mass of the factors at ``positions`` under ``evidence``.

        ``positions`` index ``graph.factors`` and should be closed under
        edge sharing (whole connected factor components) for the ratio of
        two calls to be a probability.  With no evidence this is the
        component's ``Z`` — which :func:`repro.probability.batch_kernel.
        clause_weights` caches per compiled model instead of recomputing it
        per event.
        """
        tables = [self.graph.factors[position].jpt for position in positions]
        if evidence:
            tables = [table.condition(evidence) for table in tables]
        return _partition_function(tables)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touched_component(self, edges: Iterable[EdgeKey]) -> set[int]:
        """Factor positions in the connected factor components of ``edges``.

        Factors are connected when they share an edge variable; the union of
        the components touched by the evidence is sufficient (and necessary)
        for an exact answer.
        """
        pending: list[int] = []
        for key in edges:
            pending.extend(self._factor_index.get(key, []))
        visited: set[int] = set()
        while pending:
            position = pending.pop()
            if position in visited:
                continue
            visited.add(position)
            for key in self.graph.factors[position].edges:
                for neighbor_position in self._factor_index[key]:
                    if neighbor_position not in visited:
                        pending.append(neighbor_position)
        return visited


def _partition_function(factors: list[Factor]) -> float:
    """Sum over all assignments of the product of ``factors``.

    Uses variable elimination with a min-fill-ish (smallest-degree-first)
    ordering.  Constant factors (no variables) are multiplied directly.
    """
    constants = 1.0
    working: list[Factor] = []
    for factor in factors:
        if not factor.variables:
            constants *= factor.total()
        else:
            working.append(factor)
    if not working:
        return constants

    variables: set = set()
    for factor in working:
        variables.update(factor.variables)

    while variables:
        # choose the variable appearing in the fewest factors (cheap heuristic)
        def cost(variable) -> tuple[int, int]:
            involved = [f for f in working if variable in f.variables]
            width = len({v for f in involved for v in f.variables})
            return (len(involved), width)

        variable = min(sorted(variables, key=repr), key=cost)
        involved = [f for f in working if variable in f.variables]
        untouched = [f for f in working if variable not in f.variables]
        product = involved[0]
        for factor in involved[1:]:
            product = product.multiply(factor)
        summed = product.marginalize([variable])
        if summed.variables:
            working = [*untouched, summed]
        else:
            constants *= summed.total()
            working = untouched
        variables.discard(variable)

    for factor in working:  # pragma: no cover - defensive, should be empty
        constants *= factor.total()
    return constants
