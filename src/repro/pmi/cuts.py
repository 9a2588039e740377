"""Embedding cuts and their compatibility graph (Section 4.1.2, Figure 8).

An *embedding cut* of feature ``f`` in skeleton ``gc`` is a set of ``gc``
edges whose removal destroys every embedding of ``f``; a cut is minimal when
no proper subset is also a cut.  Theorem 6 identifies minimal embedding cuts
with the minimal s-t edge cuts of a "parallel graph" ``cG`` in which each
embedding becomes a parallel s→t path of its edges.  Cutting every parallel
path means hitting at least one edge of every embedding, so minimal embedding
cuts are exactly the *minimal hitting sets (transversals)* of the embeddings'
edge sets — which is how we enumerate them, without building ``cG``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

from repro.isomorphism.embeddings import Embedding
from repro.pmi.max_clique import maximum_weight_clique
from repro.exceptions import ConfigurationError

EdgeKey = tuple
Cut = frozenset

DEFAULT_MAX_CUTS = 64
DEFAULT_MAX_CUT_SIZE = 4


def enumerate_embedding_cuts(
    embeddings: Sequence[Embedding],
    max_cuts: int = DEFAULT_MAX_CUTS,
    max_cut_size: int = DEFAULT_MAX_CUT_SIZE,
) -> list[Cut]:
    """Minimal embedding cuts = minimal hitting sets of the embedding edge sets.

    Enumerates by increasing cut size so that the small (and therefore most
    probable and most useful) cuts are found first; stops after ``max_cuts``
    cuts or ``max_cut_size`` edges per cut.

    Returns
    -------
    list[frozenset]:
        Minimal cuts, each a frozenset of skeleton edge keys.
    """
    if not embeddings:
        return []
    edge_sets = [set(e.edges) for e in embeddings]
    universe = sorted({key for edges in edge_sets for key in edges}, key=repr)
    cuts: list[Cut] = []
    for size in range(1, min(max_cut_size, len(universe)) + 1):
        for candidate in combinations(universe, size):
            candidate_set = frozenset(candidate)
            if any(existing <= candidate_set for existing in cuts):
                continue  # not minimal: contains a smaller cut
            if all(candidate_set & edges for edges in edge_sets):
                cuts.append(candidate_set)
                if len(cuts) >= max_cuts:
                    return cuts
    return cuts


def build_cut_graph(
    cuts: Sequence[Cut], probabilities: Sequence[float]
) -> tuple[dict[int, set], dict[int, float]]:
    """Compatibility graph over cuts, analogous to the embedding graph ``fG``.

    Node weights are ``-ln(1 - Pr(Bci | COM))``; links join edge-disjoint
    cuts.  The maximum-weight clique with weight ``v`` yields the tightest
    upper bound ``UpperB(f) = e^{-v}`` (Equation 20).
    """
    if len(cuts) != len(probabilities):
        raise ConfigurationError("cuts and probabilities must be index-aligned")
    adjacency: dict[int, set] = {i: set() for i in range(len(cuts))}
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            if not cuts[i] & cuts[j]:  # edge-disjoint
                adjacency[i].add(j)
                adjacency[j].add(i)
    clamp = 1e-12
    weights = {
        i: -math.log(1.0 - min(1.0 - clamp, max(0.0, p))) for i, p in enumerate(probabilities)
    }
    return adjacency, weights


def best_disjoint_cuts(
    cuts: Sequence[Cut], probabilities: Sequence[float]
) -> tuple[list[int], float]:
    """Select the disjoint cut set giving the tightest upper bound.

    Returns
    -------
    (indices, upper_bound):
        Selected cut indices and ``e^{-v}`` for the clique weight ``v``.
        With no cuts the bound degenerates to 1.0 (no pruning power).
    """
    if not cuts:
        return [], 1.0
    adjacency, weights = build_cut_graph(cuts, probabilities)
    clique, weight = maximum_weight_clique(adjacency, weights)
    upper_bound = math.exp(-weight)
    return clique, min(1.0, max(0.0, upper_bound))
