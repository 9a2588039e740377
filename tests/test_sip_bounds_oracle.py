"""The array path of ``pmi/bounds.py`` against a per-world frozenset oracle,
and the statistical slice of the ROADMAP harness for PMI bounds.

The oracle below is the implementation ``pmi/bounds.py`` shipped before its
world collection became an ``S x E`` matrix: one Python pass per world,
frozenset containment per event.  It stays here, verbatim, as the reference
the boolean-matmul path must reproduce on the same worlds.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import LabeledGraph, ProbabilisticGraph
from repro.isomorphism.embeddings import Embedding
from repro.pmi import BoundConfig, compute_sip_bounds
from repro.pmi.bounds import (
    _conditional_probabilities,
    _occurrences,
    _witness_event_probabilities,
    draw_worlds,
)
from repro.probability.world_batch import WorldBatch
from repro.reference import enumerate_possible_worlds, exact_sip


# ----------------------------------------------------------------------
# the oracle: per-world frozenset loops
# ----------------------------------------------------------------------
def oracle_conditional_probabilities(weighted_worlds, embeddings, cuts):
    """``Pr(Bfi | COR)`` and ``Pr(Bci | COM)`` over ``(present, weight)`` pairs."""
    overlapping = [
        [j for j, other in enumerate(embeddings) if j != i and embedding.overlaps(other)]
        for i, embedding in enumerate(embeddings)
    ]
    embedding_probs = []
    for index, embedding in enumerate(embeddings):
        joint = conditioning = 0.0
        for present, weight in weighted_worlds:
            if all(not (embeddings[j].edges <= present) for j in overlapping[index]):
                conditioning += weight
                if embedding.edges <= present:
                    joint += weight
        embedding_probs.append(joint / conditioning if conditioning > 0 else 0.0)

    overlapping_cuts = [
        [j for j, other in enumerate(cuts) if j != i and cut & other]
        for i, cut in enumerate(cuts)
    ]
    cut_probs = []
    for index, cut in enumerate(cuts):
        joint = conditioning = 0.0
        for present, weight in weighted_worlds:
            # a cut "materializes" when every one of its edges is absent
            if all(cuts[j] & present for j in overlapping_cuts[index]):
                conditioning += weight
                if not (cut & present):
                    joint += weight
        cut_probs.append(joint / conditioning if conditioning > 0 else 0.0)
    return embedding_probs, cut_probs


def oracle_witness_event_probabilities(
    weighted_worlds, embeddings, chosen_embeddings, cuts, chosen_cuts
):
    total = sum(weight for _, weight in weighted_worlds)
    if total <= 0.0:
        return 0.0, 1.0
    lower_mass = upper_mass = 0.0
    for present, weight in weighted_worlds:
        if any(embeddings[i].edges <= present for i in chosen_embeddings):
            lower_mass += weight
        if chosen_cuts and all(cuts[i] & present for i in chosen_cuts):
            upper_mass += weight
    return lower_mass / total, (upper_mass / total if chosen_cuts else 1.0)


def as_weighted_worlds(worlds: WorldBatch):
    """A world batch in the oracle's vocabulary."""
    edges = worlds.model.edges
    return [
        (frozenset(edges[column] for column in np.flatnonzero(row)), float(weight))
        for row, weight in zip(worlds.presence, worlds.weights)
    ]


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def ring_graph(num_vertices, chords, correlation, seed, max_factor_size=3):
    """A labeled ring with chords; factors of up to ``max_factor_size`` edges."""
    skeleton = LabeledGraph(name=f"ring-{num_vertices}-{seed}")
    for vertex in range(num_vertices):
        skeleton.add_vertex(vertex, "ab"[vertex % 2])
    for vertex in range(num_vertices):
        skeleton.add_edge(vertex, (vertex + 1) % num_vertices, "x")
    for u, v in chords:
        skeleton.add_edge(u, v, "x")
    stream = random.Random(seed)
    probabilities = {
        key: stream.uniform(0.3, 0.8) for key in sorted(skeleton.edge_keys())
    }
    return ProbabilisticGraph.from_edge_probabilities(
        skeleton, probabilities, correlation=correlation, max_factor_size=max_factor_size
    )


def edge_feature():
    feature = LabeledGraph(name="f-edge")
    feature.add_vertex(0, "a")
    feature.add_vertex(1, "b")
    feature.add_edge(0, 1, "x")
    return feature


def path_feature():
    feature = LabeledGraph(name="f-path")
    for vertex, label in enumerate("aba"):
        feature.add_vertex(vertex, label)
    feature.add_edge(0, 1, "x")
    feature.add_edge(1, 2, "x")
    return feature


def edge_subsets(keys, min_count, max_count, max_size):
    """Lists of distinct non-empty edge subsets (random embeddings / cuts)."""
    return st.lists(
        st.frozensets(st.sampled_from(keys), min_size=1, max_size=max_size),
        min_size=min_count,
        max_size=max_count,
        unique=True,
    )


@st.composite
def oracle_cases(draw):
    correlation = draw(st.sampled_from(["independent", "max"]))
    num_vertices = draw(st.integers(min_value=4, max_value=6))
    chords = draw(
        st.lists(
            st.sampled_from([(0, 2), (1, 3), (0, 3)]), max_size=2, unique=True
        )
    )
    graph = ring_graph(
        num_vertices,
        chords,
        correlation,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        max_factor_size=draw(st.integers(min_value=2, max_value=4)),
    )
    keys = graph.edge_variables()
    embeddings = [
        Embedding(edges=edges, vertices=frozenset(v for key in edges for v in key))
        for edges in draw(edge_subsets(keys, 1, 6, 3))
    ]
    cuts = draw(edge_subsets(keys, 0, 5, 3))
    chosen_embeddings = draw(
        st.lists(st.integers(0, len(embeddings) - 1), min_size=1, unique=True)
    )
    chosen_cuts = (
        draw(st.lists(st.integers(0, len(cuts) - 1), unique=True)) if cuts else []
    )
    method = draw(st.sampled_from(["exact", "sampling"]))
    root = draw(st.integers(min_value=0, max_value=2**32))
    return graph, embeddings, cuts, chosen_embeddings, chosen_cuts, method, root


class TestArrayPathAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_conditionals_and_witness_events_match(self, case):
        graph, embeddings, cuts, chosen_embeddings, chosen_cuts, method, root = case
        worlds = draw_worlds(graph, BoundConfig(method=method, num_samples=40), rng=root)
        weighted_worlds = as_weighted_worlds(worlds)

        embedding_edges, present = _occurrences(
            worlds, [embedding.edges for embedding in embeddings], True
        )
        cut_edges, materialized = _occurrences(worlds, cuts, False)
        expected_embeddings, expected_cuts = oracle_conditional_probabilities(
            weighted_worlds, embeddings, cuts
        )
        assert _conditional_probabilities(
            present, embedding_edges, worlds.weights
        ) == pytest.approx(expected_embeddings, abs=1e-12)
        assert _conditional_probabilities(
            materialized, cut_edges, worlds.weights
        ) == pytest.approx(expected_cuts, abs=1e-12)

        assert _witness_event_probabilities(
            present[:, chosen_embeddings], materialized[:, chosen_cuts], worlds.weights
        ) == pytest.approx(
            oracle_witness_event_probabilities(
                weighted_worlds, embeddings, chosen_embeddings, cuts, chosen_cuts
            ),
            abs=1e-12,
        )

    @pytest.mark.parametrize("correlation", ["independent", "max"])
    def test_exact_world_weights_match_the_enumerated_measure(
        self, correlation, overlap_graph_002
    ):
        """The 2^E x E matrix carries the possible-world measure itself —
        overlapping factors included (their raw weights are not normalized)."""
        for graph in (ring_graph(5, [(0, 2)], correlation, seed=3), overlap_graph_002):
            worlds = draw_worlds(graph, BoundConfig(method="exact"))
            measure = {
                world.present_edges(): world.probability
                for world in enumerate_possible_worlds(graph)
            }
            total = float(worlds.weights.sum())
            assert worlds.presence.shape == (2**graph.num_edges, graph.num_edges)
            for present, weight in as_weighted_worlds(worlds):
                assert weight / total == pytest.approx(
                    measure.get(present, 0.0), abs=1e-12
                )


# ----------------------------------------------------------------------
# statistical slice: are the bounds right?
# ----------------------------------------------------------------------
CALIBRATION_GRAPHS = [
    pytest.param(correlation, chords, id=f"{correlation}-{len(chords)}chords")
    for correlation in ("independent", "max")
    for chords in ([], [(0, 3)], [(0, 3), (1, 4), (2, 5), (0, 2)])
]


class TestExactMethodSandwichesExactSip:
    """On graphs of at most 12 edges the exact-method bounds must contain the
    exact SIP, for every correlation model and both selection modes."""

    @pytest.mark.parametrize("correlation, chords", CALIBRATION_GRAPHS)
    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("feature", [edge_feature(), path_feature()], ids=["edge", "path"])
    def test_sandwich(self, correlation, chords, optimize, feature):
        for seed in range(4):
            graph = ring_graph(8 if len(chords) < 4 else 6, chords, correlation, seed)
            assert graph.num_edges <= 12
            truth = exact_sip(graph, feature)
            bounds = compute_sip_bounds(
                feature, graph, BoundConfig(method="exact", optimize=optimize)
            )
            assert 0.0 <= bounds.lower <= truth + 1e-9
            assert truth - 1e-9 <= bounds.upper <= 1.0


class TestSampledBoundsCalibration:
    """With the selection fixed (``optimize=False``: first embedding, first
    cut) a sampled bound is a binomial proportion whose success probability
    is the exact-method value — over 300 independent roots its mean and its
    2-sigma miss rate must say so."""

    ROOTS, SAMPLES = 300, 200

    @pytest.mark.parametrize("correlation", ["independent", "max"])
    def test_sampled_bounds_are_binomial_around_the_exact_method_values(self, correlation):
        graph = ring_graph(6, [], correlation, seed=11)
        feature = path_feature()
        exact = compute_sip_bounds(
            feature, graph, BoundConfig(method="exact", optimize=False)
        )
        config = BoundConfig(num_samples=self.SAMPLES, optimize=False)
        sampled = [
            compute_sip_bounds(feature, graph, config, rng=root)
            for root in range(self.ROOTS)
        ]
        assert all(b.chosen_embeddings == exact.chosen_embeddings for b in sampled)
        assert all(b.chosen_cuts == exact.chosen_cuts for b in sampled)
        for name in ("lower", "upper"):
            p = getattr(exact, name)
            assert 0.05 < p < 0.95  # a degenerate case would test nothing
            values = np.array([getattr(b, name) for b in sampled])
            assert len(set(values.tolist())) > 10  # roots are independent
            sigma = math.sqrt(p * (1.0 - p) / self.SAMPLES)
            assert abs(values.mean() - p) <= 4.0 * sigma / math.sqrt(self.ROOTS)
            # P(|X - Sp| > 2 sd) is about 0.04-0.05 for a binomial this size
            misses = int((np.abs(values - p) > 2.0 * sigma).sum())
            rate = 0.06
            assert misses <= self.ROOTS * rate + 3.0 * math.sqrt(
                self.ROOTS * rate * (1.0 - rate)
            )

    @pytest.mark.parametrize("correlation", ["independent", "max"])
    def test_optimized_sampled_bounds_bracket_the_exact_sip(self, correlation):
        """Whatever sets the clique step selects, one batch satisfies
        ``lower <= Pr^(some embedding present) <= upper``, and that middle
        quantity is an unbiased binomial estimate of the exact SIP: a sampled
        interval may miss the truth only as often as that estimate strays."""
        graph = ring_graph(6, [(0, 3)], correlation, seed=11)
        feature = path_feature()
        truth = exact_sip(graph, feature)
        sigma = math.sqrt(truth * (1.0 - truth) / self.SAMPLES)
        config = BoundConfig(num_samples=self.SAMPLES)
        misses = 0
        for root in range(self.ROOTS):
            bounds = compute_sip_bounds(feature, graph, config, rng=root)
            assert 0.0 <= bounds.lower <= bounds.upper <= 1.0
            misses += bounds.lower > truth + 2.0 * sigma or bounds.upper < truth - 2.0 * sigma
        rate = 0.06
        assert misses <= self.ROOTS * rate + 3.0 * math.sqrt(
            self.ROOTS * rate * (1.0 - rate)
        )
