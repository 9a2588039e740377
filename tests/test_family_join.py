"""The variant-family pass (all relaxed variants of a query joined against a
block in one level-at-a-time pass) held to the per-variant loop it replaces:
equal event masks per graph on random queries, relaxed sets and blocks, and
both equal to the frozenset oracle (every variant's embeddings, normalised as
sets); block entry k equal to the block of one; and the two reroutes —
embedding limit, branch cap — exact."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.relaxation import relax_query
from repro.core.verification import VerificationConfig, Verifier
from repro.exceptions import QueryError
from repro.graphs import LabeledGraph, ProbabilisticGraph, VariantRows
from repro.isomorphism import generic_join
from repro.isomorphism.embeddings import (
    family_reroute_count,
    find_embeddings_block,
    find_family_events_block,
    reset_family_reroute_count,
    reset_truncation_count,
    truncation_count,
)
from repro.isomorphism.generic_join import GraphBlock, compile_variant_family
from repro.probability.events import mask_words
from repro.reference import mask_events, normalize_events

from tests.conftest import reordered_rows

FAMILY_SETTINGS = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
VERTEX_LABELS = st.sampled_from(["a", "b"])
EDGE_LABELS = ["x", "y"]


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


def every_vertex_kept(query, variants) -> VariantRows:
    """``variants`` with every vertex of ``query`` put back: rows with a
    present vertex that keeps no edge, which the pass seeds from its label pool."""
    graphs = []
    for variant in variants:
        graph = variant.copy()
        for vertex in query.vertices():
            if not graph.has_vertex(vertex):
                graph.add_vertex(vertex, query.vertex_label(vertex))
        graphs.append(graph)
    return VariantRows.of(query, graphs)


@st.composite
def labelled_graphs(draw, min_vertices, max_vertices, connected):
    """Two vertex x two edge labels; a random spanning tree first when
    ``connected``, then every other pair with probability 1/3."""
    n = draw(st.integers(min_vertices, max_vertices))
    graph = LabeledGraph()
    for vertex in range(n):
        graph.add_vertex(vertex, draw(VERTEX_LABELS))
    for vertex in range(1, n if connected else 1):
        graph.add_edge(draw(st.integers(0, vertex - 1)), vertex, draw(st.sampled_from(EDGE_LABELS)))
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and draw(st.integers(0, 2)) == 0:
                graph.add_edge(u, v, draw(st.sampled_from(EDGE_LABELS)))
    return graph


@st.composite
def targets_holding(draw, query, delta):
    """A random graph or, two times in three, one with the query planted in
    it: under shuffled ids, minus up to ``delta`` edges, plus random ones."""
    target = draw(labelled_graphs(2, 8, connected=False))
    if draw(st.integers(0, 2)) == 0:
        return target
    ids = draw(st.permutations(range(8)))
    for vertex in query.vertices():
        target.add_vertex(ids[vertex], query.vertex_label(vertex))  # relabels one it holds
    dropped = draw(st.sets(st.sampled_from(sorted(query.edge_keys())), max_size=delta))
    for edge in query.edges():
        u, v = ids[edge.u], ids[edge.v]
        if target.has_edge(u, v):
            target.remove_edge(u, v)
        if edge.key() not in dropped:
            target.add_edge(u, v, edge.label)
    return target


@st.composite
def families_and_blocks(draw):
    """(query, variants, family, targets): a connected query relaxed, half of
    the time with every vertex put back, against 1-5 targets — random ones and
    ones that hold a relaxed copy of the query, one that matches nothing now
    and then, and one graph object in the block twice."""
    query = draw(labelled_graphs(3, 6, connected=True))
    delta = draw(st.integers(0, min(2, query.num_edges - 1)))
    variants = relax_query(query, delta)
    if draw(st.booleans()):
        variants = every_vertex_kept(query, variants)
    targets = draw(st.lists(targets_holding(query, delta), min_size=1, max_size=3))
    if draw(st.booleans()):
        targets.insert(draw(st.integers(0, len(targets))), build({0: "z", 1: "z"}, [(0, 1, "x")]))
    if draw(st.booleans()):
        targets.append(targets[draw(st.integers(0, len(targets) - 1))])
    return query, variants, compile_variant_family(query, variants), targets


def per_variant(variants, targets, limit=None):
    return find_family_events_block(None, variants, targets, limit)


def frozenset_events(variants, targets, limit=None):
    """The oracle: per target, every variant's embeddings as edge-key sets, normalised."""
    found = [find_embeddings_block(variant, targets, limit) for variant in variants]
    return [
        normalize_events([e.edges for per_graph in found for e in per_graph[position]])
        for position in range(len(targets))
    ]


def same_masks(mine, theirs):
    return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


def assert_same_events(shared, reference, targets, oracle=None):
    """Equal mask matrices, and — decoded — the oracle's members in its order."""
    assert same_masks(shared, reference)
    for mine, target in zip(shared, targets):
        assert mine.dtype == np.uint64 and mine.shape[1] == mask_words(target.num_edges)
    if oracle is not None:
        assert [mask_events(t, mine) for t, mine in zip(targets, shared)] == oracle


class TestFamilyEqualsPerVariant:
    @FAMILY_SETTINGS
    @given(families_and_blocks())
    def test_events_per_graph_and_block_of_one(self, case):
        _, variants, family, targets = case
        reset_family_reroute_count()
        shared = find_family_events_block(family, variants, targets, None)
        # nothing to truncate and no cap in reach: the pass itself answered
        assert family_reroute_count() == 0
        oracle = frozenset_events(variants, targets)
        assert_same_events(shared, per_variant(variants, targets), targets, oracle)
        for position, target in enumerate(targets):
            (alone,) = find_family_events_block(family, variants, [target], None)
            assert np.array_equal(alone, shared[position])

    @FAMILY_SETTINGS
    @given(families_and_blocks(), st.sampled_from([1, 2]))
    def test_limit_reruns_the_block_per_variant(self, case, limit):
        _, variants, family, targets = case
        reset_truncation_count()
        reference = per_variant(variants, targets, limit)
        cut = truncation_count()
        reset_truncation_count()
        reset_family_reroute_count()
        shared = find_family_events_block(family, variants, targets, limit)
        assert truncation_count() == cut
        if family_reroute_count():  # a member over the limit somewhere: the per-variant lists
            oracle = frozenset_events(variants, targets, limit)
            assert_same_events(shared, reference, targets, oracle)
        else:  # nothing was cut
            assert cut == 0
            assert_same_events(shared, reference, targets)

    @settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
    @given(families_and_blocks(), st.sampled_from([2, 12]))
    def test_branch_cap_reruns_the_block_per_variant(self, case, cap):
        _, variants, family, targets = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generic_join, "_MAX_OPEN_BRANCHES", cap)
            reset_family_reroute_count()
            shared = find_family_events_block(family, variants, targets, None)
            if family_reroute_count():
                assert same_masks(shared, per_variant(variants, targets))
        assert_same_events(shared, per_variant(variants, targets), targets)


class TestOrderFreedom:
    @FAMILY_SETTINGS
    @given(families_and_blocks(), st.randoms(use_true_random=False))
    def test_events_and_estimates_do_not_depend_on_the_order_of_the_relaxed_set(
        self, case, shuffler
    ):
        """The rows of the family in another order: per graph the same
        normalised events, and the same floats."""
        query, variants, family, targets = case
        order = list(range(len(variants)))
        shuffler.shuffle(order)
        moved = reordered_rows(variants, order)
        moved_family = compile_variant_family(query, moved)
        assert np.array_equal(moved_family.required, family.required[order])
        events = find_family_events_block(family, variants, targets, None)
        moved_events = find_family_events_block(moved_family, moved, targets, None)
        assert same_masks(moved_events, events)
        graphs = [
            ProbabilisticGraph.from_edge_probabilities(
                target, {key: 0.3 + 0.05 * (i % 9) for i, key in enumerate(target.edge_keys())}
            )
            for target in targets
        ]
        # exact where the events mention few edges, else sampled on the graph's own stream
        verifier = Verifier(VerificationConfig(method="sampling", num_samples=2))
        estimates = [
            verifier.verify_block(query, graphs, 0, rows, rngs=[11] * len(graphs), family=compiled)
            for rows, compiled in ((variants, family), (moved, moved_family), (moved, None))
        ]
        assert estimates[0] == estimates[1] == estimates[2]


# a triangle with a tail, shared order 0, 1, 2, 3: the variant that keeps
# (0, 2) and (1, 2) but not (0, 1) meets vertex 1 in mid-component
QUERY = build(
    {0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "y"), (0, 3, "y")]
)
TARGETS = [
    build(
        {0: "a", 1: "a", 2: "b", 3: "b", 4: "b"},
        [(0, 1, "x"), (0, 2, "x"), (1, 2, "y"), (0, 3, "y"), (1, 4, "y"), (0, 4, "x")],
    ),
    build({0: "a", 1: "b", 2: "b"}, [(0, 1, "x"), (0, 2, "y")]),
]


class TestReroutes:
    def test_mid_component_start_is_seeded_inside_the_pass(self):
        (mid,) = (
            variant
            for variant in relax_query(QUERY, 2)
            if set(variant.edge_keys()) == {(0, 2), (1, 2)}
        )
        # ... and with vertex 3 present though it keeps no edge
        for rows in ([mid], every_vertex_kept(QUERY, [mid])):
            family = compile_variant_family(QUERY, rows)
            assert family.seed[0, 1] == generic_join._POOL
            shared = find_family_events_block(family, rows, TARGETS, None)
            assert len(shared[0]) and not len(shared[1])
            assert_same_events(
                shared, per_variant(rows, TARGETS), TARGETS, frozenset_events(rows, TARGETS)
            )

    def test_a_relabeling_is_refused(self):
        relabeled = QUERY.copy()
        relabeled.remove_edge(0, 3)
        relabeled.add_edge(0, 3, "x")
        with pytest.raises(QueryError, match="minus some edges"):
            compile_variant_family(QUERY, [relabeled])

    def test_label_absent_from_the_block_matches_nothing(self):
        query = build({0: "a", 1: "a", 2: "nowhere"}, [(0, 1, "x"), (0, 2, "y"), (1, 2, "never")])
        variants = relax_query(query, 1)
        family = compile_variant_family(query, variants)
        assert len(variants) == 3 and family.required.shape[0] >= 2
        reset_family_reroute_count()
        shared = find_family_events_block(family, variants, TARGETS, None)
        assert same_masks(shared, per_variant(variants, TARGETS))
        assert [len(masks) for masks in shared] == [0, 0]
        assert family_reroute_count() == 0
        reset_family_reroute_count()
        # a label only some variants need: the others still match
        query = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "never")])
        variants = relax_query(query, 1)
        family = compile_variant_family(query, variants)
        shared = find_family_events_block(family, variants, TARGETS, None)
        assert mask_events(TARGETS[0], shared[0]) == [
            frozenset({(0, 1), (0, 2)}),
            frozenset({(0, 1), (0, 4)}),
        ]
        assert not len(shared[1])
        assert_same_events(
            shared, per_variant(variants, TARGETS), TARGETS, frozenset_events(variants, TARGETS)
        )
        assert family_reroute_count() == 0

    def test_cap_and_limit_reroutes_are_counted(self, monkeypatch):
        variants = relax_query(QUERY, 1)
        family = compile_variant_family(QUERY, variants)
        reset_family_reroute_count()
        reset_truncation_count()
        shared = find_family_events_block(family, variants, TARGETS, 1)
        assert same_masks(shared, per_variant(variants, TARGETS, 1))
        assert family_reroute_count() == 1 and truncation_count() > 0
        monkeypatch.setattr(generic_join, "_MAX_OPEN_BRANCHES", 3)
        shared = find_family_events_block(family, variants, TARGETS, None)
        assert same_masks(shared, per_variant(variants, TARGETS))
        assert family_reroute_count() == 2

    def test_degree_feasibility_prunes_the_frontier(self, monkeypatch):
        """A member's degree is a filter — no event depends on it — so it is
        held by the branches it saves over a family compiled without degrees."""
        query = build({0: "a", 1: "b", 2: "b", 3: "b"}, [(0, 1, "x"), (1, 2, "x"), (1, 3, "x")])
        target = build(
            {0: "a", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b"},
            [(0, 1, "x"), (1, 2, "x"), (1, 3, "x"), (3, 4, "x"), (4, 5, "x")],
        )
        family = compile_variant_family(query, relax_query(query, 1))
        blind = dataclasses.replace(family, degree=np.zeros_like(family.degree))
        opened, expand = [], generic_join._expand
        monkeypatch.setattr(
            generic_join,
            "_expand",
            lambda starts, counts, level: opened.append(int(counts.sum()))
            or expand(starts, counts, level),
        )
        table = GraphBlock([target]).table
        rows, branches = [], []
        for compiled in (family, blind):
            del opened[:]
            assign, variant = generic_join.execute_variant_family(compiled, table)
            rows.append(sorted(zip(variant.tolist(), map(tuple, assign.tolist()))))
            branches.append(sum(opened))
        assert rows[0] == rows[1] and rows[0]
        assert branches[0] < branches[1]

    def test_empty_block_and_edgeless_targets(self):
        variants = relax_query(QUERY, 1)
        family = compile_variant_family(QUERY, variants)
        assert find_family_events_block(family, variants, [], None) == []
        lonely = build({0: "a", 1: "b"}, [])
        found = find_family_events_block(family, variants, [lonely, lonely], None)
        assert [masks.shape for masks in found] == [(0, 0), (0, 0)]
