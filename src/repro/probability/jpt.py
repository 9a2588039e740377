"""Joint probability tables (JPTs) over neighbor edge sets.

A :class:`JointProbabilityTable` is a normalized :class:`~repro.probability.
factors.Factor` over the binary existence variables of one neighbor edge set
(Definition 2 and Figure 1 of the paper).  Besides validation, this module
provides the two constructions used throughout the library:

* :meth:`JointProbabilityTable.from_independent_marginals` — product of
  per-edge Bernoulli marginals (the classic independent-edge model, used by
  the ``IND`` baseline of Figure 14).
* :meth:`JointProbabilityTable.from_max_dominance` — the paper's experimental
  construction for correlated PPIs: each joint assignment is weighted by the
  *strongest* participating interaction, ``Pr(x_ne) = max_i Pr(x_i)``, and the
  resulting table is normalized (Section 6, "Real Probabilistic Graph
  Dataset").
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import product as iter_product

from repro.exceptions import ProbabilityError
from repro.probability.factors import Assignment, Factor, Variable


# how far a table's mass may be from 1 before the constructor refuses it
MASS_TOLERANCE = 1e-6


class JointProbabilityTable(Factor):
    """A normalized factor: a proper joint distribution over its variables."""

    def __init__(
        self,
        variables: Iterable[Variable],
        table: Mapping[Assignment, float],
        tolerance: float = MASS_TOLERANCE,
        normalize: bool = False,
    ) -> None:
        super().__init__(variables, table)
        total = self.total()
        if total <= 0:
            raise ProbabilityError("joint probability table has zero total mass")
        if normalize:
            self.table = {a: v / total for a, v in self.table.items()}
        elif abs(total - 1.0) > tolerance:
            raise ProbabilityError(
                f"joint probability table sums to {total!r}; pass normalize=True to rescale"
            )

    # ------------------------------------------------------------------
    # constructions
    # ------------------------------------------------------------------
    @classmethod
    def from_independent_marginals(
        cls, marginals: Mapping[Variable, float]
    ) -> "JointProbabilityTable":
        """Joint table equal to the product of independent edge marginals."""
        variables = tuple(marginals)
        table: dict[Assignment, float] = {}
        for assignment in iter_product((0, 1), repeat=len(variables)):
            probability = 1.0
            for var, value in zip(variables, assignment):
                p = marginals[var]
                if not 0.0 <= p <= 1.0:
                    raise ProbabilityError(f"marginal {p!r} for {var!r} outside [0, 1]")
                probability *= p if value == 1 else (1.0 - p)
            table[assignment] = probability
        return cls(variables, table, normalize=True)

    @classmethod
    def from_max_dominance(
        cls, marginals: Mapping[Variable, float]
    ) -> "JointProbabilityTable":
        """The paper's correlated construction for neighbor PPIs.

        For each joint assignment ``x``, the unnormalized weight is
        ``max_i Pr(x_i)`` where ``Pr(x_i)`` is the marginal probability of
        edge ``i`` taking its value in ``x`` (``p_i`` if present, ``1 - p_i``
        if absent).  Weights are then normalized into a distribution.  This
        makes neighbor edges positively correlated through their strongest
        member, as described in Section 6 of the paper.
        """
        variables = tuple(marginals)
        if not variables:
            raise ProbabilityError("max-dominance table needs at least one variable")
        table: dict[Assignment, float] = {}
        for assignment in iter_product((0, 1), repeat=len(variables)):
            weights = []
            for var, value in zip(variables, assignment):
                p = marginals[var]
                if not 0.0 <= p <= 1.0:
                    raise ProbabilityError(f"marginal {p!r} for {var!r} outside [0, 1]")
                weights.append(p if value == 1 else 1.0 - p)
            table[assignment] = max(weights)
        return cls(variables, table, normalize=True)

    @classmethod
    def from_checked(
        cls, variables: tuple[Variable, ...], table: dict[Assignment, float]
    ) -> "JointProbabilityTable":
        """Adopt ``variables`` and ``table`` as they are, without the
        per-entry checks of the constructor.  The caller has already checked
        what the constructor would: distinct variables, 0/1 assignment tuples
        of the right width with int members, float values > 0, and a mass
        within :data:`MASS_TOLERANCE` of 1.  The object equals what the
        constructor builds from the same arguments, attribute for attribute."""
        jpt = cls.__new__(cls)
        jpt.variables = variables
        jpt.table = table
        return jpt

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def edge_marginal(self, variable: Variable) -> float:
        """Marginal existence probability of one edge variable."""
        return self.marginal_probability(variable, 1)

    def __repr__(self) -> str:
        return f"JointProbabilityTable(variables={self.variables!r}, entries={len(self.table)})"
