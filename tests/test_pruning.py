"""Tests for probabilistic pruning: SSP bounds and the two pruning rules."""

from __future__ import annotations

import math
import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PruningConfig, relax_query
from repro.core.pruning import FeatureContainment, ProbabilisticPruner, SspBounds
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, PMIRow, ProbabilisticMatrixIndex
from repro.pmi.features import Feature

from tests.conftest import make_simple_probabilistic_graph, reordered_rows
from tests.test_containment_parity import FEATURES, queries


def feature_from(graph, feature_id):
    from repro.graphs.canonical import canonical_form

    return Feature(
        feature_id=feature_id, graph=graph, support=frozenset(), canonical=canonical_form(graph)
    )


def single_edge(label_u="a", label_v="b", edge_label="x"):
    graph = LabeledGraph()
    graph.add_vertex(0, label_u)
    graph.add_vertex(1, label_v)
    graph.add_edge(0, 1, edge_label)
    return graph


def two_edge_path():
    graph = LabeledGraph()
    graph.add_vertex(0, "a")
    graph.add_vertex(1, "b")
    graph.add_vertex(2, "a")
    graph.add_edge(0, 1, "x")
    graph.add_edge(1, 2, "x")
    return graph


def pmi_row(graph, features):
    """The graph's row of an exact PMI built over ``features``."""
    index = ProbabilisticMatrixIndex(bound_config=BoundConfig(method="exact"))
    return index.build([graph], features=features, rng=0).row(0)


def synthetic_row(intervals: dict) -> PMIRow:
    """A PMI row holding the given ``{feature_id: (lower, upper)}`` cells."""
    feature_ids = np.array(sorted(intervals), dtype=np.int64)
    return PMIRow(
        graph_id=0,
        feature_ids=feature_ids,
        lower=np.array([intervals[fid][0] for fid in feature_ids.tolist()]),
        upper=np.array([intervals[fid][1] for fid in feature_ids.tolist()]),
        present=np.ones(feature_ids.size, dtype=bool),
    )


def bounds_of(pruner, relaxed, row, rng=None):
    return pruner.compute_bounds(relaxed, row, pruner.prepare(relaxed), rng=rng)


@pytest.fixture
def pruning_setup(rng):
    """A small, fully exact setup: features, PMI row and relaxed queries."""
    graph = make_simple_probabilistic_graph(edge_probability=0.6)
    features = [feature_from(single_edge(), 0), feature_from(two_edge_path(), 1)]
    query = two_edge_path()
    relaxed = relax_query(query, 1)
    return graph, features, pmi_row(graph, features), relaxed


class TestBoundsComputation:
    def test_bounds_are_probability_interval(self, pruning_setup, rng):
        _, features, row, relaxed = pruning_setup
        pruner = ProbabilisticPruner(features)
        bounds = bounds_of(pruner, relaxed, row, rng)
        assert 0.0 <= bounds.lsim <= 1.0
        assert 0.0 <= bounds.usim <= 1.0

    def test_usim_upper_bounds_true_ssp(self, pruning_setup, rng):
        """Theorem 3: the Usim derived from the PMI never underestimates SSP."""
        graph, features, row, relaxed = pruning_setup
        from repro.core.verification import VerificationConfig, Verifier

        pruner = ProbabilisticPruner(features)
        bounds = bounds_of(pruner, relaxed, row, rng)
        verifier = Verifier(VerificationConfig(method="inclusion_exclusion"))
        truth = verifier.subgraph_similarity_probability(
            two_edge_path(), graph, 1, relaxed_queries=relaxed
        )
        if bounds.usim_covered:
            assert bounds.usim >= truth - 1e-6
        if bounds.lsim_covered:
            assert bounds.lsim <= truth + 1e-6

    def test_no_matching_features_means_no_usable_bounds(self, rng):
        graph = make_simple_probabilistic_graph()
        odd_feature = feature_from(single_edge("z", "z", "q"), 0)
        pruner = ProbabilisticPruner([odd_feature])
        relaxed = relax_query(two_edge_path(), 1)
        result = bounds_of(pruner, relaxed, pmi_row(graph, [odd_feature]), rng)
        assert not result.usim_covered
        assert not result.lsim_covered
        assert result.usim == 1.0
        assert result.lsim == 0.0

    @pytest.mark.parametrize("config", [PruningConfig(True, True), PruningConfig(False, False)])
    def test_lsim_cannot_fire_past_the_largest_feature(self, config, rng):
        """``rq ⊆iso f`` needs ``f`` at least as large as ``rq``: over features
        of at most two edges, the 3-edge variants of a 4-edge path are held by
        none, so Lsim is uncovered and 0 however high the row's lower bounds
        are, and no candidate is accepted — while Usim still covers."""
        path = LabeledGraph()
        for vertex, label in enumerate("ababa"):
            path.add_vertex(vertex, label)
        for vertex in range(4):
            path.add_edge(vertex, vertex + 1, "x")
        features = [feature_from(single_edge(), 0), feature_from(two_edge_path(), 1)]
        relaxed = relax_query(path, 1)
        assert min(variant.num_edges for variant in relaxed) > max(
            feature.num_edges for feature in features
        )
        pruner = ProbabilisticPruner(features, config)
        bounds = bounds_of(pruner, relaxed, synthetic_row({0: (0.95, 1.0), 1: (0.95, 1.0)}), rng)
        assert not bounds.lsim_covered
        assert bounds.lsim == 0.0
        assert bounds.usim_covered
        pruned, accepted = ProbabilisticPruner.decide_batch([bounds], 0.01)
        assert not pruned.any()
        assert not accepted.any()

    def test_plain_variant_is_no_tighter_than_opt(self, pruning_setup, rng):
        _, features, row, relaxed = pruning_setup
        opt = bounds_of(ProbabilisticPruner(features, PruningConfig(True, True)), relaxed, row, rng)
        plain = bounds_of(
            ProbabilisticPruner(features, PruningConfig(False, False)), relaxed, row, rng
        )
        if opt.usim_covered and plain.usim_covered:
            assert opt.usim <= plain.usim + 1e-9


def decide(bounds: SspBounds, threshold: float) -> tuple[bool, bool]:
    """``(pruned, accepted)`` of one candidate through ``decide_batch``."""
    pruned, accepted = ProbabilisticPruner.decide_batch([bounds], threshold)
    return bool(pruned[0]), bool(accepted[0])


class TestDecisions:
    def test_prune_when_usim_below_threshold(self):
        bounds = SspBounds(usim=0.2, lsim=0.0, usim_covered=True, lsim_covered=True)
        assert decide(bounds, 0.5) == (True, False)

    def test_accept_when_lsim_reaches_threshold(self):
        bounds = SspBounds(usim=0.9, lsim=0.7, usim_covered=True, lsim_covered=True)
        assert decide(bounds, 0.6) == (False, True)

    def test_candidate_when_thresholds_inconclusive(self):
        bounds = SspBounds(usim=0.9, lsim=0.1, usim_covered=True, lsim_covered=True)
        assert decide(bounds, 0.5) == (False, False)

    def test_uncovered_bounds_never_prune(self):
        bounds = SspBounds(usim=0.0, lsim=1.0, usim_covered=False, lsim_covered=False)
        assert decide(bounds, 0.5) == (False, False)


class TestOrderFreedom:
    """Nothing that reads ``U`` reads a position in it: the relaxed set in
    another order, its containment relations re-indexed to match, yields the
    same bounds to the last bit — what let the order of ``relax_query`` change."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        query=queries(),
        delta=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        weights=st.lists(
            st.floats(0.01, 0.6), min_size=2 * len(FEATURES), max_size=2 * len(FEATURES)
        ),
    )
    def test_bounds_do_not_depend_on_the_order_of_the_relaxed_set(
        self, query, delta, seed, weights
    ):
        relaxed = relax_query(query, min(delta, query.num_edges - 1))
        order = list(range(len(relaxed)))
        random.Random(seed).shuffle(order)
        moved = reordered_rows(relaxed, order)
        position = {old: new for new, old in enumerate(order)}
        row = synthetic_row(
            {
                feature.feature_id: (min(low, high), max(low, high))
                for feature, low, high in zip(FEATURES, weights[::2], weights[1::2])
            }
        )
        for optimal_usim, optimal_lsim in product((True, False), repeat=2):
            pruner = ProbabilisticPruner(FEATURES, PruningConfig(optimal_usim, optimal_lsim))
            containment = pruner.prepare(relaxed)
            reindexed = {
                feature_id: FeatureContainment(
                    sub_of=frozenset(position[i] for i in relations.sub_of),
                    super_of=frozenset(position[i] for i in relations.super_of),
                )
                for feature_id, relations in containment.items()
            }
            assert reindexed == pruner.prepare(moved)
            expected = pruner.compute_bounds(relaxed, row, containment, rng=seed)
            actual = pruner.compute_bounds(moved, row, reindexed, rng=seed)
            assert actual == expected  # floats compare exactly

    def test_plain_bounds_sum_in_an_order_of_their_own(self):
        """0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1 in floats: the plain bounds
        summed in the order of the relaxed set before."""
        query = LabeledGraph.from_edges(
            {0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1, "x"), (1, 2, "x"), (2, 3, "y")]
        )
        relaxed = relax_query(query, 2)  # three single edges: features 0, 1 and 2 each hold one
        weight = dict(zip(range(3), (0.1, 0.2, 0.3)))
        row = synthetic_row({fid: (w, w) for fid, w in weight.items()})
        pruner = ProbabilisticPruner(FEATURES[:3], PruningConfig(False, False))
        results = set()
        for order in permutations(range(3)):
            moved = reordered_rows(relaxed, list(order))
            results.add(bounds_of(pruner, moved, row))
        (only,) = results
        assert only.usim_covered and only.lsim_covered and only.usim == math.fsum(weight.values())
