"""Probabilistic graphs with correlated edge existence (Definition 2).

A :class:`ProbabilisticGraph` couples a deterministic labeled skeleton ``gc``
with a collection of :class:`NeighborEdgeFactor`s.  Each factor covers one
neighbor edge set and carries a joint probability table (JPT) over the binary
existence variables of its edges — exactly the model of Figure 1 in the
paper, where graph 002 carries JPT1 over {e1, e2, e3} and JPT2 over
{e3, e4, e5}.

The probability of a possible world is the product of the factor
probabilities of the world's restriction to each factor (Equation 1).  When
the factors partition the edge set this product is a proper distribution;
when factors overlap (shared edges) the library normalizes in exact
computations and uses chain-rule conditional sampling, as ARCHITECTURE.md's
"The batch verification kernel" describes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, GraphError, ProbabilityError
from repro.graphs.labeled_graph import LabeledGraph, VertexId, edge_key
from repro.graphs.neighbor_edges import partition_into_neighbor_sets
from repro.probability.jpt import JointProbabilityTable

EdgeKey = tuple[VertexId, VertexId]
EdgeAssignment = Mapping[EdgeKey, int]


@dataclass(frozen=True)
class NeighborEdgeFactor:
    """One neighbor edge set together with its joint probability table.

    ``edges`` is the ordered tuple of edge keys; ``jpt`` is a
    :class:`JointProbabilityTable` whose variables are exactly those keys.
    """

    edges: tuple[EdgeKey, ...]
    jpt: JointProbabilityTable

    def __post_init__(self) -> None:
        if tuple(self.jpt.variables) != tuple(self.edges):
            raise ProbabilityError(
                "factor edge ordering and JPT variable ordering must match: "
                f"{self.edges!r} vs {self.jpt.variables!r}"
            )


class ProbabilisticGraph:
    """A labeled graph whose edges exist according to correlated JPTs."""

    def __init__(
        self,
        skeleton: LabeledGraph,
        factors: Iterable[NeighborEdgeFactor],
        name: str | None = None,
    ) -> None:
        self.skeleton = skeleton
        self.factors: list[NeighborEdgeFactor] = list(factors)
        self.name = name if name is not None else skeleton.name
        self._validate()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_probabilities(
        cls,
        skeleton: LabeledGraph,
        edge_probabilities: Mapping[EdgeKey, float],
        correlation: str = "independent",
        max_factor_size: int = 4,
        name: str | None = None,
    ) -> "ProbabilisticGraph":
        """Build a probabilistic graph from per-edge marginal probabilities.

        Parameters
        ----------
        skeleton:
            The deterministic labeled graph ``gc``.
        edge_probabilities:
            Marginal existence probability per edge key.  Every edge of the
            skeleton must be present.
        correlation:
            ``"independent"`` builds product JPTs (the IND baseline model);
            ``"max"`` builds the paper's max-dominance correlated JPTs.
        max_factor_size:
            Upper bound on edges per neighbor edge set (table size 2**k).
        """
        normalized = {}
        for key, probability in edge_probabilities.items():
            normalized[edge_key(*key)] = float(probability)
        missing = set(skeleton.edge_keys()) - set(normalized)
        if missing:
            raise ProbabilityError(
                f"missing edge probabilities for {sorted(map(repr, missing))[:5]}"
            )
        groups = partition_into_neighbor_sets(skeleton, max_size=max_factor_size)
        factors = []
        for group in groups:
            ordered = tuple(sorted(group, key=repr))
            marginals = {e: normalized[e] for e in ordered}
            if correlation == "independent":
                jpt = JointProbabilityTable.from_independent_marginals(marginals)
            elif correlation == "max":
                jpt = JointProbabilityTable.from_max_dominance(marginals)
            else:
                raise ConfigurationError(f"unknown correlation model {correlation!r}")
            factors.append(NeighborEdgeFactor(ordered, jpt))
        return cls(skeleton, factors, name=name)

    # ------------------------------------------------------------------
    # validation and basic accessors
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        skeleton_edges = set(self.skeleton.edge_keys())
        covered: set[EdgeKey] = set()
        for factor in self.factors:
            for key in factor.edges:
                if key not in skeleton_edges:
                    raise GraphError(
                        f"factor references edge {key!r} not present in the skeleton"
                    )
            covered.update(factor.edges)
        uncovered = skeleton_edges - covered
        if uncovered:
            raise GraphError(
                "every skeleton edge needs a probability factor; missing: "
                f"{sorted(map(repr, uncovered))[:5]}"
            )

    @property
    def num_vertices(self) -> int:
        return self.skeleton.num_vertices

    @property
    def num_edges(self) -> int:
        return self.skeleton.num_edges

    def edge_variables(self) -> list[EdgeKey]:
        """All uncertain edge variables (the skeleton's edge keys), sorted."""
        return sorted(self.skeleton.edge_keys(), key=repr)

    def factors_containing(self, key: EdgeKey) -> list[NeighborEdgeFactor]:
        """The factors whose neighbor edge set includes ``key``."""
        key = edge_key(*key)
        return [f for f in self.factors if key in f.edges]

    def is_edge_partition(self) -> bool:
        """True when every edge belongs to exactly one factor."""
        seen: set[EdgeKey] = set()
        for factor in self.factors:
            for key in factor.edges:
                if key in seen:
                    return False
                seen.add(key)
        return True

    def edge_marginal(self, key: EdgeKey) -> float:
        """Marginal existence probability of one edge.

        For a partitioned graph this is exact.  For overlapping factors the
        value is computed from the first factor containing the edge, which is
        exact under the paper's conditional-independence assumption.
        """
        factors = self.factors_containing(key)
        if not factors:
            raise GraphError(f"edge {key!r} has no probability factor")
        return factors[0].jpt.edge_marginal(edge_key(*key))

    def average_edge_probability(self) -> float:
        """Mean marginal edge probability (dataset diagnostic)."""
        keys = self.edge_variables()
        if not keys:
            return 0.0
        return sum(self.edge_marginal(k) for k in keys) / len(keys)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        label = self.name if self.name is not None else "unnamed"
        return (
            f"ProbabilisticGraph({label!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, factors={len(self.factors)})"
        )
