"""Lower and upper bounds of the subgraph isomorphism probability (SIP).

For a feature ``f`` and a probabilistic graph ``g`` the SIP is
``Pr(f ⊆iso g)`` (Definition 6) — #P-complete to compute exactly.  Section 4.1
of the paper derives:

* ``LowerB(f) = 1 - Π_{i∈IN} (1 - Pr(Bfi | COR))``  (Equation 17), where
  ``IN`` is a set of pairwise edge-disjoint embeddings and ``COR`` is the
  event that every embedding overlapping ``fi`` is absent;
* ``UpperB(f) = Π_{i∈IN'} (1 - Pr(Bci | COM))``  (Equation 20), where ``IN'``
  is a set of pairwise disjoint embedding *cuts* and ``COM`` is the event
  that every cut overlapping ``ci`` does not materialize.

Both "tightest" variants pick their disjoint sets by solving a maximum-weight
clique problem (:mod:`repro.pmi.embedding_graph`, :mod:`repro.pmi.cuts`).
The probabilities are measured over one shared world collection
(:class:`~repro.probability.world_batch.WorldBatch`): Algorithm 3's
Monte-Carlo batch, drawn array-at-a-time by the batch kernel, or every
possible world with its weight for small graphs (tests and the exact
baseline).  Either way it is an ``S x E`` presence matrix plus a weight
vector, embeddings and cuts are boolean requirement matrices over the same
columns, and every probability is a boolean matrix product and a weighted
column sum — one arithmetic path for both methods.

The product forms above are exact only under the conditional-independence
argument the paper makes for its correlation model; under arbitrary
neighbor-edge factors they can overshoot the true SIP.  The conditionals are
therefore used as *selection weights* (the clique objective), while the
reported bounds are the measured probabilities of the witness events over the
same world collection:

* ``LowerB(f) = Pr(⋃_{i∈IN} Bfi)`` — a union over a subset of embeddings,
  always a valid lower bound;
* ``UpperB(f) = Pr(⋂_{i∈IN'} ¬Bci)`` — a present feature defeats every
  embedding cut, so this is always a valid upper bound.

This keeps the bounds sound for any correlation structure without giving up
the paper's optimized disjoint-set selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.embeddings import Embedding, find_embeddings
from repro.pmi.cuts import best_disjoint_cuts, enumerate_embedding_cuts
from repro.pmi.embedding_graph import best_disjoint_embeddings
from repro.probability.batch_kernel import compile_events
from repro.probability.sampling import (
    check_embedding_limit,
    check_sample_count,
    monte_carlo_sample_size,
)
from repro.probability.world_batch import (
    WorldBatch,
    enumerate_world_batch,
    sample_world_batch,
)
from repro.utils.rng import RandomLike

BOUND_METHODS = ("sampling", "exact")
MAX_EXACT_BOUND_EDGES = 20


@dataclass(frozen=True)
class BoundConfig:
    """Tuning knobs for SIP bound computation, validated at construction.

    Attributes
    ----------
    embedding_limit:
        Cap on enumerated embeddings per (feature, graph) pair.
    max_cuts, max_cut_size:
        Caps for minimal embedding-cut enumeration.
    num_samples:
        Monte-Carlo sample count for Algorithm 3 (an integer >= 1); ``None``
        uses the paper's ``(4 ln(2/ξ)) / τ²`` rule with ``xi``/``tau``.
    xi, tau:
        Monte-Carlo confidence/accuracy parameters, each in (0, 1].
    method:
        ``"sampling"`` (Algorithm 3) or ``"exact"`` (possible-world
        enumeration, small graphs only).
    optimize:
        True computes the tightest bounds via maximum-weight cliques
        (OPT-SIPBound in the paper's experiments); False uses a single
        arbitrary embedding / cut (the plain SIPBound baseline).
    """

    embedding_limit: int = 64
    max_cuts: int = 32
    max_cut_size: int = 4
    num_samples: int | None = 200
    xi: float = 0.05
    tau: float = 0.1
    method: str = "sampling"
    optimize: bool = True

    def __post_init__(self) -> None:
        check_sample_count(self.num_samples)
        check_embedding_limit(self.embedding_limit)
        if self.method not in BOUND_METHODS:
            raise ConfigurationError(
                f"unknown bound method {self.method!r}; expected one of {BOUND_METHODS}"
            )
        if not (0.0 < self.xi <= 1.0 and 0.0 < self.tau <= 1.0):
            raise ConfigurationError(
                f"xi and tau must be in (0, 1], got {self.xi!r} and {self.tau!r}"
            )
        self.resolved_sample_count()  # the cycling-number rule checks itself

    def resolved_sample_count(self) -> int:
        if self.num_samples is not None:
            return self.num_samples
        return monte_carlo_sample_size(self.xi, self.tau)


@dataclass(frozen=True)
class SipBounds:
    """The PMI cell for one (feature, graph) pair."""

    lower: float
    upper: float
    num_embeddings: int
    num_cuts: int
    chosen_embeddings: tuple[int, ...] = field(default=())
    chosen_cuts: tuple[int, ...] = field(default=())

    def is_empty(self) -> bool:
        """True when the feature does not occur in the graph at all."""
        return self.num_embeddings == 0


def draw_worlds(
    graph: ProbabilisticGraph, config: BoundConfig, rng: RandomLike = None
) -> WorldBatch:
    """The graph's shared world collection under ``config.method``:
    Algorithm 3's Monte-Carlo batch drawn from ``rng``, or every possible
    world with its weight (consumes no randomness)."""
    if config.method == "exact":
        return enumerate_world_batch(graph, max_edges=MAX_EXACT_BOUND_EDGES)
    return sample_world_batch(graph, config.resolved_sample_count(), rng)


def compute_sip_bounds(
    feature: LabeledGraph,
    graph: ProbabilisticGraph,
    config: BoundConfig | None = None,
    rng: RandomLike = None,
    embeddings: list[Embedding] | None = None,
    worlds: WorldBatch | None = None,
) -> SipBounds:
    """Compute ``(LowerB(f), UpperB(f))`` for feature ``f`` against ``g``.

    ``worlds`` is the graph's shared world collection (:func:`draw_worlds`);
    a PMI row draws it once and passes it to every feature, which makes a
    cell a pure function of (world batch, graph, feature) — independent of
    which other features share the row.  Without it the call draws its own
    batch from ``rng``.  ``embeddings`` optionally short-circuits enumeration
    with a precomputed list (must be the canonical-order output of
    :func:`find_embeddings` for this pair).
    """
    cfg = config or BoundConfig()
    if embeddings is None:
        embeddings = find_embeddings(feature, graph.skeleton, limit=cfg.embedding_limit)
    if not embeddings:
        return SipBounds(lower=0.0, upper=0.0, num_embeddings=0, num_cuts=0)
    cuts = enumerate_embedding_cuts(
        embeddings, max_cuts=cfg.max_cuts, max_cut_size=cfg.max_cut_size
    )
    if worlds is None:
        worlds = draw_worlds(graph, cfg, rng)
    # an embedding occurs where all its edges are present, a cut where all
    # its edges are absent (it "materializes")
    embedding_edges, present = _occurrences(worlds, [e.edges for e in embeddings], True)
    cut_edges, materialized = _occurrences(worlds, cuts, False)
    if cfg.optimize:
        chosen_embeddings, _ = best_disjoint_embeddings(
            embeddings, _conditional_probabilities(present, embedding_edges, worlds.weights)
        )
        chosen_cuts, _ = best_disjoint_cuts(
            cuts, _conditional_probabilities(materialized, cut_edges, worlds.weights)
        )
    else:
        # plain SIPBound: the first embedding / cut only, deliberately looser
        # than the maximum-weight-clique choice
        chosen_embeddings = [0]
        chosen_cuts = [0] if cuts else []
    lower, upper = _witness_event_probabilities(
        present[:, chosen_embeddings], materialized[:, chosen_cuts], worlds.weights
    )
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(lower, upper))  # keep the interval consistent
    return SipBounds(
        lower=lower,
        upper=upper,
        num_embeddings=len(embeddings),
        num_cuts=len(cuts),
        chosen_embeddings=tuple(chosen_embeddings),
        chosen_cuts=tuple(chosen_cuts),
    )


# ----------------------------------------------------------------------
# event occurrence, conditional and witness-event probabilities
# ----------------------------------------------------------------------
def _occurrences(
    worlds: WorldBatch, events, edge_state: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-set events as an ``(n, E)`` requirement matrix, and the ``(S, n)``
    matrix of the worlds in which each occurs — those where every one of its
    edges has ``edge_state`` (one boolean matrix product: an event fails
    where some edge it requires is in the contrary state)."""
    required = compile_events(worlds.model, events)
    contrary = ~worlds.presence if edge_state else worlds.presence
    return required, ~(contrary @ required.T)


def _conditional_probabilities(
    occurs: np.ndarray, required: np.ndarray, weights: np.ndarray
) -> list[float]:
    """``Pr(event i | no event sharing an edge with i occurs)``, per event.

    For embeddings that is ``Pr(Bfi | COR)``; for cuts ``Pr(Bci | COM)``
    (every overlapping cut keeps an edge).  Zero conditioning mass yields 0.
    """
    overlapping = required @ required.T
    np.fill_diagonal(overlapping, False)
    unopposed = ~(occurs @ overlapping)
    conditioning = (weights @ unopposed).tolist()
    joint = (weights @ (unopposed & occurs)).tolist()
    return [j / c if c > 0 else 0.0 for j, c in zip(joint, conditioning)]


def _witness_event_probabilities(
    chosen_present: np.ndarray, chosen_materialized: np.ndarray, weights: np.ndarray
) -> tuple[float, float]:
    """Measured probabilities of the two witness events over the worlds.

    The lower bound is the probability that at least one chosen embedding is
    fully present; the upper bound is the probability that no chosen cut
    materializes.  With no cuts the upper bound degenerates to 1.0.
    """
    total = float(weights.sum())
    if total <= 0.0:
        return 0.0, 1.0
    lower = float(weights @ chosen_present.any(axis=1)) / total
    if chosen_materialized.shape[1] == 0:
        return lower, 1.0
    return lower, float(weights @ ~chosen_materialized.any(axis=1)) / total
