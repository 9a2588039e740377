"""Shared fixtures: the paper's Figure 1 example graphs, a toy PPI database,
and reusable query graphs."""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import random
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core import GraphCatalog, QueryPlanner
from repro.core.pipeline import TopKHeap
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph, VariantRows
from repro.graphs.io import load_graph_columns, save_database
from repro.isomorphism import compile_edge_table, compile_join_plan, generic_join
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.probability import JointProbabilityTable
from repro.structural import StructuralFeatureIndex


def resident_segment_names() -> list[str]:
    """Every ``tpsshm_*`` shared-memory segment resident on the system, for
    leak checks: the library publishes none."""
    shm_dir = Path("/dev/shm")
    return sorted(path.name for path in shm_dir.glob("tpsshm_*")) if shm_dir.is_dir() else []


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20120527)


@pytest.fixture
def triangle_graph_001() -> ProbabilisticGraph:
    """The paper's graph 001 (Figure 1): a labeled triangle with one JPT.

    The joint probability table is the complete 8-row table shown in the
    figure: (1,1,1)->0.2, (1,1,0)->0.2 and 0.1 for the six remaining rows.
    """
    skeleton = LabeledGraph(name="001")
    skeleton.add_vertex(1, "a")
    skeleton.add_vertex(2, "b")
    skeleton.add_vertex(3, "c")
    skeleton.add_edge(1, 2, "e")   # e1
    skeleton.add_edge(2, 3, "e")   # e2
    skeleton.add_edge(1, 3, "e")   # e3
    e1, e2, e3 = (1, 2), (2, 3), (1, 3)
    table = {
        (1, 1, 1): 0.2,
        (1, 1, 0): 0.2,
        (1, 0, 1): 0.1,
        (1, 0, 0): 0.1,
        (0, 1, 1): 0.1,
        (0, 1, 0): 0.1,
        (0, 0, 1): 0.1,
        (0, 0, 0): 0.1,
    }
    jpt = JointProbabilityTable((e1, e2, e3), table)
    return ProbabilisticGraph(skeleton, [NeighborEdgeFactor((e1, e2, e3), jpt)], name="001")


@pytest.fixture
def overlap_graph_002() -> ProbabilisticGraph:
    """A graph in the spirit of the paper's 002: two JPTs sharing edge e3.

    Vertices: v1(a), v2(a), v3(b), v4(b), v5(c).  Edges e1=(v1,v2),
    e2=(v1,v3), e3=(v2,v3) form a triangle; e3, e4=(v3,v4), e5=(v3,v5) are
    incident to v3.  JPT1 covers {e1,e2,e3}, JPT2 covers {e3,e4,e5}: the two
    neighbor edge sets overlap on e3 exactly as in Figure 1.
    """
    skeleton = LabeledGraph(name="002")
    labels = {1: "a", 2: "a", 3: "b", 4: "b", 5: "c"}
    for vertex, label in labels.items():
        skeleton.add_vertex(vertex, label)
    skeleton.add_edge(1, 2, "e")   # e1
    skeleton.add_edge(1, 3, "e")   # e2
    skeleton.add_edge(2, 3, "e")   # e3
    skeleton.add_edge(3, 4, "e")   # e4
    skeleton.add_edge(3, 5, "e")   # e5
    e1, e2, e3, e4, e5 = (1, 2), (1, 3), (2, 3), (3, 4), (3, 5)
    jpt1 = JointProbabilityTable.from_max_dominance({e1: 0.6, e2: 0.7, e3: 0.5})
    jpt2 = JointProbabilityTable.from_max_dominance({e3: 0.5, e4: 0.6, e5: 0.4})
    factors = [
        NeighborEdgeFactor((e1, e2, e3), jpt1),
        NeighborEdgeFactor((e3, e4, e5), jpt2),
    ]
    return ProbabilisticGraph(skeleton, factors, name="002")


@pytest.fixture
def path_query() -> LabeledGraph:
    """A 2-edge path query a-b-b, subgraph-similar to graph 002's skeleton."""
    query = LabeledGraph(name="q-path")
    query.add_vertex(0, "a")
    query.add_vertex(1, "b")
    query.add_vertex(2, "b")
    query.add_edge(0, 1, "e")
    query.add_edge(1, 2, "e")
    return query


@pytest.fixture
def triangle_query() -> LabeledGraph:
    """A 3-edge triangle query with labels a, a, b (matches 002's triangle)."""
    query = LabeledGraph(name="q-triangle")
    query.add_vertex(0, "a")
    query.add_vertex(1, "a")
    query.add_vertex(2, "b")
    query.add_edge(0, 1, "e")
    query.add_edge(0, 2, "e")
    query.add_edge(1, 2, "e")
    return query


@pytest.fixture(scope="session")
def small_ppi_database():
    """A deterministic small synthetic PPI database shared by slower tests."""
    config = PPIDatasetConfig(
        num_graphs=8,
        num_families=2,
        vertices_per_graph=12,
        edges_per_graph=16,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=99)


# the distance threshold that goes with ``wide_support_corpus``
WIDE_SUPPORT_DISTANCE = 2


@pytest.fixture(scope="session")
def wide_support_corpus():
    """``(graphs, queries)`` on which one request takes both verification
    routes.  Two vertex labels give a 6-edge query many embeddings per graph,
    so at ``WIDE_SUPPORT_DISTANCE`` a candidate's events read 6 to 26 distinct
    edges: some supports fit the kernel's exact enumeration, the others draw
    worlds.  Nothing forces a route — the corpus does it; callers assert
    ``0 < statistics.sampled < statistics.verified``."""
    config = PPIDatasetConfig(
        num_graphs=8,
        num_families=2,
        vertices_per_graph=16,
        edges_per_graph=32,
        num_vertex_labels=2,
        motif_vertices=4,
        motif_edges=4,
    )
    graphs = generate_ppi_database(config, rng=1).graphs
    queries = generate_query_workload(graphs, query_size=6, num_queries=2, rng=1).queries()
    return graphs, queries


@dataclass(frozen=True)
class BuiltIndex:
    """A database's PMI and structural index, built the way
    ``GraphCatalog.build`` builds its one store, and a catalog over them."""

    graphs: list[ProbabilisticGraph]
    pmi: ProbabilisticMatrixIndex
    structural_index: StructuralFeatureIndex
    catalog: GraphCatalog

    def planner(self) -> QueryPlanner:
        """A dense from-scratch planner over the same indexes."""
        return QueryPlanner(self.graphs, self.pmi, self.structural_index)


def build_index(
    graphs: list[ProbabilisticGraph],
    feature_config: FeatureSelectionConfig | None = None,
    bound_config: BoundConfig | None = None,
    rng=None,
) -> BuiltIndex:
    """Mine features and build both indexes over ``graphs`` directly; the
    catalog answers exactly as ``GraphCatalog.build`` with these arguments."""
    pmi = ProbabilisticMatrixIndex(feature_config=feature_config, bound_config=bound_config)
    pmi.build(graphs, rng=rng)
    structural = StructuralFeatureIndex(embedding_limit=pmi.feature_config.embedding_limit)
    structural.build([graph.skeleton for graph in graphs], pmi.features)
    catalog = GraphCatalog.from_index(graphs, pmi, structural)
    return BuiltIndex(list(graphs), pmi, structural, catalog)


def replay_top_k_one_at_a_time(candidate_ids, usim, lsim, estimate, k):
    """The one-at-a-time top-k walk, the reference
    :func:`repro.core.pipeline.replay_top_k` must equal: every candidate by
    ``(-usim, graph_id)``, each one the floor admits asked of
    ``estimate(graph_id)`` alone, the rejected ones passed over."""
    heap = TopKHeap(k)
    heap.seed_floor(lsim)
    above_seed = usim >= heap.floor
    ids = candidate_ids[above_seed]
    upper = usim[above_seed]
    verified = 0
    for index in np.lexsort((ids, -upper)):
        if not heap.admits(float(upper[index])):
            continue
        verified += 1
        heap.offer(estimate(int(ids[index])))
    return heap.ranked(), len(ids), verified


def make_simple_probabilistic_graph(
    edge_probability: float = 0.5, correlation: str = "independent"
) -> ProbabilisticGraph:
    """A 4-vertex, 4-edge helper graph used by several test modules."""
    skeleton = LabeledGraph(name="simple")
    for vertex, label in ((0, "a"), (1, "b"), (2, "a"), (3, "b")):
        skeleton.add_vertex(vertex, label)
    skeleton.add_edge(0, 1, "x")
    skeleton.add_edge(1, 2, "x")
    skeleton.add_edge(2, 3, "x")
    skeleton.add_edge(0, 3, "x")
    probabilities = {key: edge_probability for key in skeleton.edge_keys()}
    return ProbabilisticGraph.from_edge_probabilities(
        skeleton, probabilities, correlation=correlation
    )


def reordered_rows(rows: VariantRows, order: list[int]) -> VariantRows:
    """The same relaxed set in another order: position ``k`` holds what
    position ``order[k]`` held (what reads ``U`` must not notice)."""
    return VariantRows(rows.base, rows.held[order].tolist())


def assert_same_cells(got, want) -> None:
    """Two PMIs hold the same cells: feature ids, interval arrays and presence
    mask equal element for element."""
    assert np.array_equal(got._feature_ids, want._feature_ids)
    for name in ("_lower", "_upper", "_present"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_same_postings(got, want) -> None:
    """Two ``SignaturePostings`` equal field for field (dictionary order too)."""
    assert list(got.codes.items()) == list(want.codes.items())
    assert got.num_graphs == want.num_graphs
    for name in ("code_offsets", "rows", "counts"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


def assert_signature_segment_matches_live_graphs(catalog, fresh: bool = False) -> None:
    """The structural index's derived segment says of every storage row what
    the graph says of itself: recover ≡ rebuild for a segment no snapshot or
    WAL record holds.  Its postings are, array for array, one built over
    every storage row's skeleton, tombstoned rows included.  ``fresh`` (right
    after ``compact()``): no tombstoned row is left."""
    from repro.structural.feature_index import SignaturePostings

    store = catalog._store
    postings = store.structural.signatures
    assert_same_postings(postings, SignaturePostings.build(g.skeleton for g in store.graphs))
    rows = [{} for _ in range(postings.num_graphs)]
    for signature, code in postings.codes.items():
        span = slice(postings.code_offsets[code], postings.code_offsets[code + 1])
        for row, count in zip(postings.rows[span].tolist(), postings.counts[span].tolist()):
            assert signature not in rows[row]
            rows[row][signature] = count
    assert len(rows) == len(store.graphs)
    held = {int(store.external_ids[row]): rows[row] for row in store.live_positions()}
    if fresh:
        assert not store.tombstone.any()
    assert held == {
        external_id: dict(graph.skeleton.edge_signature_counts())
        for external_id, graph in catalog.live_items()
    }


def join_mappings(pattern, target, label_sensitive=True, limit=None) -> list[dict]:
    """The join's assignment rows of ``pattern`` in ``target`` as ``{pattern
    vertex: target vertex}`` mappings, in discovery order: the rows of
    ``compile_join_plan`` + ``execute_join_plan`` (carried on depth first past
    the branch cap).  With ``limit``, the first ``limit`` rows of the pass that
    settles once ``limit`` edge sets are found: a prefix of the full list."""
    plan = compile_join_plan(pattern, label_sensitive)
    table = compile_edge_table(target)
    rows = generic_join._join(plan, table, settle_at=limit)[:limit]
    ids = table.vertex_ids
    return [
        {level.vertex: ids[image] for level, image in zip(plan.levels, row)}
        for row in rows.tolist()
    ]


def live_ids(catalog) -> list[int]:
    """The catalog's live external ids, ascending (off ``live_items``)."""
    return [external_id for external_id, _ in catalog.live_items()]


def unshared_pickle(obj) -> bytes:
    """``obj`` pickled with the memo off: every value, type, dict insertion
    order and float bit shows in the bytes, but not which equal values share
    one object (a columnar load shares one label string per symbol where a
    JSON load makes one per occurrence)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


def write_as_format_2(directory) -> None:
    """Rewrite the durable catalog at ``directory`` as snapshot format 2 wrote
    it: the graphs as one JSON database (``graphs.json``), and
    ``"version": 2, "num_shards": 1`` in ``catalog.json`` and ``CURRENT``."""
    directory = Path(directory)
    current = json.loads((directory / "CURRENT").read_text())
    generation = directory / f"gen_{current['generation']:08d}"
    save_database(load_graph_columns(generation / "graphs.npz"), generation / "graphs.json")
    (generation / "graphs.npz").unlink()
    meta = json.loads((generation / "catalog.json").read_text())
    meta = {**meta, "version": 2, "num_shards": 1}
    (generation / "catalog.json").write_text(json.dumps(meta))
    (directory / "CURRENT").write_text(json.dumps({**current, "version": 2}))


class GatedCatalog:
    """A catalog whose batch query calls wait until the test opens a gate.

    Behind a ``QueryService`` the first query batch takes the lane and
    blocks in ``query_many`` / ``query_top_k_many`` on a ``threading.Event``,
    so every request submitted meanwhile stays queued — held by the gate,
    not by timing — until :meth:`open`.  Everything else is the wrapped
    catalog's.  ``calls`` records the size of every batch call, in order.
    Open the gate in a ``finally``: a lane left blocked stalls ``stop()``
    for its ``drain_timeout``.
    """

    TIMEOUT = 60.0

    def __init__(self, catalog: GraphCatalog) -> None:
        self._catalog = catalog
        self._gate = threading.Event()
        self._entered = threading.Event()
        self.calls: list[int] = []

    def __getattr__(self, name: str):
        return getattr(self._catalog, name)

    def _hold(self, queries: list) -> None:
        self._entered.set()
        if not self._gate.wait(self.TIMEOUT):
            raise RuntimeError("the gate was never opened")
        self.calls.append(len(queries))

    def query_many(self, queries, *args, **kwargs):
        self._hold(queries)
        return self._catalog.query_many(queries, *args, **kwargs)

    def query_top_k_many(self, queries, *args, **kwargs):
        self._hold(queries)
        return self._catalog.query_top_k_many(queries, *args, **kwargs)

    async def entered(self) -> None:
        """Return once a batch call waits at the gate: the lane is held."""
        assert await asyncio.to_thread(self._entered.wait, self.TIMEOUT), "no batch arrived"

    def open(self) -> None:
        self._gate.set()


async def eventually(predicate, what: str, timeout: float = 10.0) -> None:
    """Poll ``predicate`` on the running loop until it holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, f"timed out waiting for {what}"
        await asyncio.sleep(0.001)
