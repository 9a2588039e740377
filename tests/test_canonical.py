"""Unit tests for canonical forms of small labeled graphs."""

from __future__ import annotations

import random
from itertools import permutations

from repro.graphs import LabeledGraph
from repro.graphs.canonical import (
    _ordering_string,
    _refined_colors,
    canonical_form,
    refinement_certificate,
)


def path(labels, edge_labels=None):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        label = edge_labels[index] if edge_labels else "e"
        graph.add_edge(index, index + 1, label)
    return graph


class TestCanonicalForm:
    def test_isomorphic_paths_share_canonical_form(self):
        g1 = path(["a", "b", "c"])
        g2 = path(["c", "b", "a"])  # reversed labels, isomorphic as labeled graphs
        assert canonical_form(g1) == canonical_form(g2)

    def test_relabeled_vertices_do_not_change_canonical_form(self):
        g1 = path(["a", "b", "c"])
        g2 = g1.relabel_vertices({0: "x", 1: "y", 2: "z"})
        assert canonical_form(g1) == canonical_form(g2)

    def test_different_vertex_labels_change_canonical_form(self):
        assert canonical_form(path(["a", "b", "c"])) != canonical_form(path(["a", "b", "d"]))

    def test_different_edge_labels_change_canonical_form(self):
        g1 = path(["a", "b"], edge_labels=["x"])
        g2 = path(["a", "b"], edge_labels=["y"])
        assert canonical_form(g1) != canonical_form(g2)

    def test_different_structure_changes_canonical_form(self):
        triangle = LabeledGraph.from_edges(
            {0: "a", 1: "a", 2: "a"}, [(0, 1, "e"), (1, 2, "e"), (0, 2, "e")]
        )
        three_path = path(["a", "a", "a"])
        assert canonical_form(triangle) != canonical_form(three_path)

    def test_different_sizes_change_canonical_form(self):
        assert canonical_form(path(["a", "b"])) != canonical_form(path(["a", "b", "c"]))

    def test_random_vertex_permutations_keep_canonical_form(self):
        rng = random.Random(7)
        for _ in range(40):
            graph = random_small_graph(rng)
            vertices = list(graph.vertices())
            shuffled = vertices[:]
            rng.shuffle(shuffled)
            renamed = graph.relabel_vertices(dict(zip(vertices, shuffled, strict=True)))
            assert canonical_form(renamed) == canonical_form(graph)

    def test_large_isomorphic_graphs_share_canonical_form(self):
        """Past the exact search's size the refinement fallback still
        identifies a reversed path with the path."""
        labels = list("abcdefghij")
        assert canonical_form(path(labels)) == canonical_form(path(labels[::-1]))

    def test_empty_graph(self):
        assert canonical_form(LabeledGraph()) == "empty"

    def test_large_graph_uses_refinement_fallback(self):
        big = path(list("abcdefghij"))
        assert canonical_form(big).startswith("wl:")
        small = path(["a", "b"])
        assert canonical_form(small).startswith("exact:")

    def test_refinement_certificate_invariant_under_relabeling(self):
        g1 = path(list("abcdefghij"))
        mapping = {i: f"v{i}" for i in range(10)}
        g2 = g1.relabel_vertices(mapping)
        assert refinement_certificate(g1) == refinement_certificate(g2)


def all_permutations_canonical_form(graph: LabeledGraph) -> str:
    """The pre-optimisation search, kept as the reference: every one of the
    ``n!`` vertex orderings, discarding those not sorted by refined color."""
    colors = _refined_colors(graph)
    vertices = sorted(graph.vertices(), key=lambda v: (colors[v], repr(v)))
    best = None
    for order in permutations(vertices):
        order_colors = [colors[v] for v in order]
        if order_colors != sorted(order_colors):
            continue
        candidate = _ordering_string(graph, list(order))
        if best is None or candidate < best:
            best = candidate
    return "exact:" + best


def random_small_graph(rng: random.Random) -> LabeledGraph:
    num_vertices = rng.randint(1, 6)
    graph = LabeledGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice("ab"))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < 0.45:
                graph.add_edge(u, v, rng.choice("xy"))
    return graph


class TestColorClassSearchMatchesAllPermutations:
    def test_byte_identical_strings_on_generated_graphs(self):
        """Permuting within color classes visits exactly the orderings the
        factorial loop kept, so the minimum string is the same bytes."""
        rng = random.Random(20120827)
        for _ in range(150):
            graph = random_small_graph(rng)
            assert canonical_form(graph) == all_permutations_canonical_form(graph)

    def test_one_color_class_still_searches_every_ordering(self):
        """A uniformly labeled cycle refines to one class: the search must
        not collapse to the single sorted ordering."""
        cycle = LabeledGraph.from_edges(
            {i: "a" for i in range(5)}, [(i, (i + 1) % 5, "e") for i in range(5)]
        )
        shuffled = cycle.relabel_vertices({0: 3, 1: 0, 2: 4, 3: 1, 4: 2})
        assert canonical_form(cycle) == all_permutations_canonical_form(cycle)
        assert canonical_form(cycle) == canonical_form(shuffled)
