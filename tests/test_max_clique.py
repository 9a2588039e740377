"""Tests for the maximum weight clique solver."""

from __future__ import annotations

import random

import pytest

from repro.pmi.max_clique import maximum_weight_clique


def is_clique(adjacency, nodes) -> bool:
    """Every pair in ``nodes`` is adjacent."""
    return all(v in adjacency[u] for i, u in enumerate(nodes) for v in nodes[i + 1 :])


def make_adjacency(edges, nodes):
    adjacency = {node: set() for node in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


class TestExactSmall:
    def test_empty_graph(self):
        clique, weight = maximum_weight_clique({}, {})
        assert clique == []
        assert weight == 0.0

    def test_single_node(self):
        clique, weight = maximum_weight_clique({"a": set()}, {"a": 2.5})
        assert clique == ["a"]
        assert weight == pytest.approx(2.5)

    def test_triangle_beats_heavy_single_node(self):
        nodes = ["a", "b", "c", "d"]
        adjacency = make_adjacency([("a", "b"), ("b", "c"), ("a", "c")], nodes)
        weights = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 2.5}
        clique, weight = maximum_weight_clique(adjacency, weights)
        assert set(clique) == {"a", "b", "c"}
        assert weight == pytest.approx(3.0)

    def test_heavy_isolated_node_wins(self):
        nodes = ["a", "b", "c", "d"]
        adjacency = make_adjacency([("a", "b"), ("b", "c"), ("a", "c")], nodes)
        weights = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 5.0}
        clique, weight = maximum_weight_clique(adjacency, weights)
        assert clique == ["d"]
        assert weight == pytest.approx(5.0)

    def test_result_is_always_a_clique(self):
        rng = random.Random(5)
        nodes = list(range(10))
        edges = [(u, v) for u in nodes for v in nodes if u < v and rng.random() < 0.4]
        adjacency = make_adjacency(edges, nodes)
        weights = {node: rng.uniform(0.1, 2.0) for node in nodes}
        clique, weight = maximum_weight_clique(adjacency, weights)
        assert is_clique(adjacency, clique)
        assert weight == pytest.approx(sum(weights[n] for n in clique))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for _trial in range(5):
            nodes = list(range(8))
            edges = [(u, v) for u in nodes for v in nodes if u < v and rng.random() < 0.5]
            adjacency = make_adjacency(edges, nodes)
            weights = {node: round(rng.uniform(0.1, 1.0), 3) for node in nodes}
            _, weight = maximum_weight_clique(adjacency, weights)
            assert weight == pytest.approx(_brute_force(adjacency, weights), abs=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_clique({"a": set()}, {"a": -1.0})

    def test_zero_weights_return_single_node(self):
        adjacency = make_adjacency([("a", "b")], ["a", "b"])
        clique, weight = maximum_weight_clique(adjacency, {"a": 0.0, "b": 0.0})
        assert len(clique) >= 1
        assert weight == 0.0


def _brute_force(adjacency, weights):
    from itertools import combinations

    nodes = sorted(adjacency, key=repr)
    best = 0.0
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if is_clique(adjacency, list(subset)):
                best = max(best, sum(weights[n] for n in subset))
    return best
