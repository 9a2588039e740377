"""Events as bit masks (``repro.probability.events``) held to the frozenset
oracle (``repro.reference.events``): the same members in the same order after
normalisation, ``==`` floats on the exact route and the same clause weights and
requirement matrix on the sampled one — over vertex ids of mixed types (whose
edge-table order is not the canonical one), graphs of more than 64 edges (two
mask words), events of unequal sizes, duplicates and empty events; the family
join's masks against every variant's embeddings normalised as sets; the
per-graph bit table built lazily and never by a mutation or a recovery; and a
query whose candidates are all summed exactly builds no ``random.Random``."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SearchConfig, VerificationConfig
from repro.core import pruning
from repro.core.catalog import GraphCatalog
from repro.core.relaxation import relax_query
from repro.datasets import extract_query
from repro.graphs import LabeledGraph, ProbabilisticGraph
from repro.isomorphism import embeddings
from repro.isomorphism.embeddings import find_embeddings_block, find_family_events_block
from repro.isomorphism.generic_join import compile_variant_family
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.probability import batch_kernel
from repro.probability.batch_kernel import (
    _event_columns,
    _marginal_table,
    _touched_components,
    clause_weights,
    compile_events,
    compile_world_model,
    enumerate_factor_product,
    event_masks,
    support_union_probability,
)
from repro.probability.events import mask_words
from repro.reference import mask_events, normalize_events

MASK_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# vertex-id pools: one type in value order, and mixes whose edge-table order
# (repr) is not the canonical one (class name, then value)
ID_POOLS = {
    "ints": lambda i: i,
    "strs": lambda i: f"v{i}",
    "ints and strs": lambda i: i if i % 2 else f"{i}",
    "ints and floats": lambda i: i if i % 2 else i + 0.5,  # comparable, yet class name first
    "tuples": lambda i: (i % 3, i),
    "tuples and ints": lambda i: (i,) if i % 3 else 10 * i,
}


@st.composite
def graphs_and_events(draw):
    """A graph on up to 14 vertices (up to 91 edges: one or two mask words)
    under one id pool, and 0-8 events over its edges: sizes 0-5, duplicates."""
    name = draw(st.sampled_from(sorted(ID_POOLS)))
    rename = ID_POOLS[name]
    n = draw(st.integers(2, 14))
    dense = draw(st.booleans())
    skeleton = LabeledGraph()
    for vertex in range(n):
        skeleton.add_vertex(rename(vertex), "a")
    for u in range(n):
        for v in range(u + 1, n):
            if dense or draw(st.integers(0, 3)) == 0:
                skeleton.add_edge(rename(u), rename(v), "x")
    keys = list(skeleton.edge_keys())
    if not keys:
        skeleton.add_edge(rename(0), rename(1), "x")
        keys = list(skeleton.edge_keys())
    events = draw(
        st.lists(
            st.frozensets(st.sampled_from(keys), max_size=min(5, len(keys))), max_size=8
        )
    )
    if events and draw(st.booleans()):
        events.append(events[draw(st.integers(0, len(events) - 1))])
    probabilities = {key: draw(st.sampled_from([0.2, 0.5, 0.9])) for key in keys}
    correlation = draw(st.sampled_from(["independent", "max"]))
    graph = ProbabilisticGraph.from_edge_probabilities(skeleton, probabilities, correlation)
    return graph, events


def exact_route_of_sets(graph, events):
    """The exact route as it read edge-key sets: the oracle's normalised events,
    each mapped to model columns, their bit codes summed state by state."""
    events = normalize_events(events)
    model = compile_world_model(graph)
    event_columns = [model.columns(event) for event in events]
    touched = _touched_components(model, sorted(set().union(*event_columns)))
    width, whole = 0, {}
    for first, hit in touched.items():
        group = model.factor_group[first]
        if group is not None:
            whole[first] = sorted({c for f in group for c in model.factors[f].positions.tolist()})
        width += hit.bit_count() if group is None else len(whole[first])
    if width > batch_kernel.EXACT_SUPPORT_LIMIT:
        return None
    bit_of: dict[int, int] = {}
    joint = np.ones(1)
    for first in sorted(touched):
        mentioned = touched[first]
        if first in whole:
            own = whole[first]
            states, weights = enumerate_factor_product(
                [model.factors[f] for f in model.factor_group[first]], own
            )
            table = _marginal_table(states, weights, [own.index(c) for c in mentioned])
        else:
            mentioned, table = model.factors[first].marginal(mentioned)
        for column in mentioned:
            bit_of[column] = len(bit_of)
        joint = np.multiply.outer(table, joint).ravel()
    satisfied = np.zeros(joint.size, dtype=bool)
    satisfied[[sum(1 << bit_of[c] for c in columns) for columns in event_columns]] = True
    for bit in range(len(bit_of)):
        halves = satisfied.reshape(-1, 2, 1 << bit)
        halves[:, 1] |= halves[:, 0]
    return min(1.0, max(0.0, float(joint[satisfied].sum())))


class TestMasksEqualTheFrozensetOracle:
    @MASK_SETTINGS
    @given(graphs_and_events())
    def test_normalisation_keeps_the_oracles_members_and_order(self, case):
        graph, events = case
        masks = event_masks(graph, events)
        assert masks.dtype == np.uint64
        assert masks.shape == (len(normalize_events(events)), mask_words(graph.num_edges))
        assert mask_events(graph.skeleton, masks) == normalize_events(events)
        assert np.array_equal(event_masks(graph, list(reversed(events))), masks)
        assert event_masks(graph, masks) is masks  # a mask matrix is already normalised

    @MASK_SETTINGS
    @given(graphs_and_events())
    def test_exact_route_floats_are_equal(self, case):
        graph, events = case
        assert support_union_probability(graph, events) == exact_route_of_sets(graph, events)

    @MASK_SETTINGS
    @given(graphs_and_events())
    def test_sampled_route_reads_the_same_weights_and_requirements(self, case):
        """Weights and requirement rows in the oracle's order: the draw and
        the coverage count then see the same inputs."""
        graph, events = case
        masks, clean = event_masks(graph, events), normalize_events(events)
        assert clause_weights(graph, masks) == clause_weights(graph, clean)
        model = compile_world_model(graph)
        assert np.array_equal(_event_columns(model, masks), compile_events(model, clean))

    def test_two_words_hold_the_canonical_order(self):
        """A 13-clique (78 edges): bit E - 1 - rank spans two words, and the
        highest-ranked edges sit in the low word."""
        pairs = [(u, v, "x") for u in range(13) for v in range(u + 1, 13)]
        skeleton = LabeledGraph.from_edges(dict.fromkeys(range(13), "a"), pairs)
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton, dict.fromkeys(skeleton.edge_keys(), 0.5)
        )
        events = [{(11, 12)}, {(0, 1)}, {(0, 1), (11, 12)}, {(5, 9), (0, 2)}, set()]
        masks = event_masks(graph, events)
        assert masks.shape == (3, 2)
        assert mask_events(skeleton, masks) == normalize_events(events)
        assert masks[0].tolist() == [0, 1 << 13]  # (0, 1): rank 0, bit 77
        assert masks[1].tolist() == [1, 0]  # (11, 12): rank 77, bit 0

    def test_comparable_ids_of_two_types_rank_by_class_name_first(self):
        """Ints and floats compare by value, but the canonical edge order puts
        every float before every int."""
        rename = ID_POOLS["ints and floats"]
        pairs = [(rename(u), rename(v), "x") for u in range(5) for v in range(u + 1, 5)]
        skeleton = LabeledGraph.from_edges({rename(i): "a" for i in range(5)}, pairs)
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton, dict.fromkeys(skeleton.edge_keys(), 0.5)
        )
        keys = list(skeleton.edge_keys())
        events = [{keys[0], keys[3]}, {keys[5]}, {keys[1], keys[6]}]
        assert mask_events(skeleton, event_masks(graph, events)) == normalize_events(events)
        (masks,) = find_family_events_block(None, [skeleton], [skeleton], None)
        assert mask_events(skeleton, masks) == [frozenset(keys)]

    def test_unequal_sizes_are_absorbed_in_one_subset_test(self):
        graph = ProbabilisticGraph.from_edge_probabilities(
            LabeledGraph.from_edges(
                dict.fromkeys("abcd", "a"), [("a", "b", "x"), ("b", "c", "x"), ("c", "d", "x")]
            ),
            {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "d"): 0.5},
        )
        events = [{("b", "c"), ("c", "d")}, {("a", "b")}, {("a", "b"), ("b", "c")}, {("c", "d")}]
        assert mask_events(graph.skeleton, event_masks(graph, events)) == [
            frozenset({("a", "b")}),
            frozenset({("c", "d")}),
        ]


@st.composite
def mixed_targets_and_relaxed_sets(draw):
    """A target under one id pool (sometimes over 64 edges), a connected query
    taken from it, and its relaxed set."""
    rename = ID_POOLS[draw(st.sampled_from(sorted(ID_POOLS)))]
    n = draw(st.integers(4, 14))
    threshold = draw(st.sampled_from([0, 1, 3]))  # edge kept unless the draw is below
    target = LabeledGraph()
    for vertex in range(n):
        target.add_vertex(rename(vertex), draw(st.sampled_from("ab")))
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 or draw(st.integers(0, 3)) >= threshold:
                target.add_edge(rename(u), rename(v), draw(st.sampled_from("xy")))
    # A bare path on four vertices has only three edges to take a query from.
    size = draw(st.integers(2, min(4, target.num_edges)))
    query = extract_query(target, size, rng=draw(st.integers(0, 99)))
    delta = draw(st.integers(0, min(1, query.num_edges - 1)))
    return target, query, relax_query(query, delta)


class TestFamilyMasksEqualTheOracle:
    @settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
    @given(mixed_targets_and_relaxed_sets())
    def test_masks_decode_to_every_variants_embeddings_normalised(self, case):
        target, query, relaxed = case
        family = compile_variant_family(query, relaxed)
        (masks,) = find_family_events_block(family, relaxed, [target], None)
        assert masks.shape[1] == mask_words(target.num_edges)
        oracle = normalize_events(
            [e.edges for v in relaxed for e in find_embeddings_block(v, [target], None)[0]]
        )
        assert mask_events(target, masks) == oracle


class TestLazyBitTable:
    FEATURES = FeatureSelectionConfig(
        alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=6
    )

    def test_mutations_and_recovery_build_no_table(self, small_ppi_database, tmp_path):
        graphs = small_ppi_database.graphs
        catalog = GraphCatalog.build(
            graphs[:5],
            feature_config=self.FEATURES,
            bound_config=BoundConfig(num_samples=20),
            rng=3,
            directory=tmp_path / "catalog",
        )
        added = ProbabilisticGraph(graphs[5].skeleton.copy(), graphs[5].factors)
        catalog.add_graph(added)
        catalog.update_graph(0, ProbabilisticGraph(graphs[6].skeleton.copy(), graphs[6].factors))
        catalog.close()
        reopened = GraphCatalog.open(tmp_path / "catalog")
        try:
            live = [added.skeleton, *(g.skeleton for g in reopened.planner().graphs)]
            assert not any("_event_bits" in skeleton.__dict__ for skeleton in live)
            model = batch_kernel._MODEL_CACHE.get(added)
            assert model is None or not model._bits
            # the first verification builds them
            result = reopened.query(extract_query(graphs[1].skeleton, 3, rng=1), 0.1, 1, rng=2)
            assert result.statistics.verified
            assert any("_event_bits" in skeleton.__dict__ for skeleton in live)
        finally:
            reopened.close()

    def test_a_moved_mutation_version_rebuilds_the_table(self):
        skeleton = LabeledGraph.from_edges({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        first = embeddings._edge_bits(skeleton)
        assert embeddings._edge_bits(skeleton) is first
        skeleton.add_edge(0, 2, "x")
        rebuilt = embeddings._edge_bits(skeleton)
        assert rebuilt.size == 6 and sorted(set(rebuilt.tolist())) == [0, 1, 2]


class CountingRandom(random.Random):
    built = 0

    def __init__(self, *args, **kwargs):
        CountingRandom.built += 1
        super().__init__(*args, **kwargs)


def test_an_exact_route_query_builds_no_generator(small_ppi_database, monkeypatch):
    """Verification passes seeds and the exact route never draws; pruning
    builds a generator only for the QP rounding, the one step that draws."""
    graphs = small_ppi_database.graphs
    db = GraphCatalog.build(
        graphs,
        feature_config=TestLazyBitTable.FEATURES, bound_config=BoundConfig(num_samples=20), rng=3
    )
    config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=50))
    queries = [extract_query(graphs[k].skeleton, 3, rng=k) for k in range(3)]
    db.query(queries[0], 0.2, 1, config=config, rng=1)  # planner-owned parts built once
    roundings = []
    rounding = pruning.solve_lsim_rounding
    monkeypatch.setattr(
        pruning, "solve_lsim_rounding", lambda *a, **k: roundings.append(1) or rounding(*a, **k)
    )
    monkeypatch.setattr(random, "Random", CountingRandom)
    CountingRandom.built = 0
    results = [db.query(query, 0.2, 1, config=config, rng=7) for query in queries]
    assert sum(r.statistics.verified for r in results) > 0
    assert sum(r.statistics.sampled for r in results) == 0
    assert CountingRandom.built == len(roundings)
