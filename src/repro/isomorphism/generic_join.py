"""Vectorized generic-join subgraph matching (worst-case-optimal style).

This is the default matching engine.  Instead of recursing per candidate
vertex like :class:`~repro.isomorphism.vf2.VF2Matcher`, a pattern is compiled
**once** into a :class:`JoinPlan` — a vertex elimination order plus, per
level, the constraints that bind the new variable (vertex-label equality,
adjacency to already-bound variables with the right edge label, degree
feasibility, injectivity).  Each target graph is compiled **once** into a
columnar :class:`EdgeTable` (both directions of every edge in sorted numpy
arrays with CSR offsets and label codes), analogous to
``batch_kernel.compile_world_model``.  Executing a plan then advances all
open branches of the search one *level* at a time with whole-array gathers,
``searchsorted`` membership tests and boolean masks — no Python-level work
per candidate.

Both compiled artifacts are cached on the graph object keyed by its
``mutation_version``, so a feature matched against a block of graphs pays for
plan compilation once, and a graph probed by many features pays for its edge
table once.

Determinism contract
--------------------
The engine is pure and deterministic: no randomness, no hashing of ids
(vertices are indexed in sorted order, falling back to ``repr`` order for
heterogeneous ids).  Embedding enumeration returns results in the engine's
deterministic discovery order; :func:`repro.isomorphism.embeddings.
enumerate_embeddings` applies the canonical final sort (by repr of the sorted
edge-key set), so whenever enumeration is not truncated both engines produce
byte-identical embedding lists, answers and PMI contents.

Blow-up protection: a level whose open-branch frontier would exceed
``_MAX_OPEN_BRANCHES`` raises :class:`GenericJoinOverflow`; public wrappers
catch it and fall back to the recursive VF2 reference for that (pattern,
graph) pair, keeping worst-case memory bounded.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph, VertexId, edge_key
from repro.isomorphism.vf2 import VF2Matcher, connectivity_order
from repro.exceptions import ConfigurationError

__all__ = [
    "EdgeTable",
    "GenericJoinMatcher",
    "GenericJoinOverflow",
    "JoinLevel",
    "JoinPlan",
    "compile_edge_table",
    "compile_join_plan",
    "first_mapping",
    "get_default_engine",
    "match_block",
    "pattern_exists",
    "resolve_engine",
    "set_default_engine",
    "using_engine",
]

_ENGINES = ("generic_join", "vf2")
_ENGINE_ENV_VAR = "REPRO_MATCH_ENGINE"

# Hard cap on the number of simultaneously open branches at any join level.
# Beyond this the vectorized frontier would start costing real memory; the
# recursive VF2 path (constant memory, early termination) takes over instead.
_MAX_OPEN_BRANCHES = 1 << 18


class GenericJoinOverflow(RuntimeError):
    """Raised when a join level would open more branches than the cap allows."""


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def _validate_engine(name: str) -> str:
    if name not in _ENGINES:
        raise ConfigurationError(f"unknown matching engine {name!r}; expected one of {_ENGINES}")
    return name


_default_engine = _validate_engine(os.environ.get(_ENGINE_ENV_VAR, "generic_join"))


def get_default_engine() -> str:
    """The engine used when a call site passes ``method=None``."""
    return _default_engine


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (``"generic_join"`` or ``"vf2"``).

    The choice is mirrored into ``REPRO_MATCH_ENGINE`` so worker processes
    spawned afterwards (sharded planners) inherit it.
    """
    global _default_engine
    _default_engine = _validate_engine(name)
    os.environ[_ENGINE_ENV_VAR] = name


def resolve_engine(method: str | None) -> str:
    """Map an explicit ``method`` argument (or None) to an engine name."""
    if method is None:
        return _default_engine
    return _validate_engine(method)


@contextmanager
def using_engine(name: str):
    """Temporarily switch the default engine (restores the prior one)."""
    previous = _default_engine
    set_default_engine(name)
    try:
        yield
    finally:
        set_default_engine(previous)


# ----------------------------------------------------------------------
# compiled artifacts
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Columnar, both-directions edge table of one target graph.

    ``src``/``dst``/``elabels`` hold every edge twice (once per direction),
    lexsorted by ``(src, dst)``; ``offsets`` is the CSR row index over
    ``src`` and ``edge_codes = src * num_vertices + dst`` is strictly
    ascending, so adjacency is a slice and edge membership is a
    ``searchsorted``.
    """

    vertex_ids: tuple
    vlabels: np.ndarray
    vlabel_codes: dict
    elabel_codes: dict
    src: np.ndarray
    dst: np.ndarray
    elabels: np.ndarray
    offsets: np.ndarray
    edge_codes: np.ndarray
    degrees: np.ndarray
    verts_by_vlabel: dict
    num_vertices: int
    num_edges: int
    vertex_label_counts: dict
    edge_signature_counts: dict


@dataclass(frozen=True, eq=False)
class JoinLevel:
    """One variable of a join plan: the pattern vertex bound at this level."""

    vertex: VertexId
    vlabel: object
    degree: int
    # (earlier-level index, edge label) for every pattern edge back to an
    # already-bound variable; the first one seeds candidates via adjacency
    back_edges: tuple


@dataclass(frozen=True, eq=False)
class JoinPlan:
    """A pattern compiled into an elimination order plus per-level constraints."""

    levels: tuple
    label_sensitive: bool
    # every pattern edge as a (level_i, level_j) pair, for embedding extraction
    pattern_edges: tuple
    num_vertices: int
    num_edges: int
    vertex_label_counts: dict
    edge_signature_counts: dict


def _sorted_ids(graph: LabeledGraph) -> list:
    ids = list(graph.vertices())
    try:
        ids.sort()
    except TypeError:
        ids.sort(key=repr)
    return ids


def compile_edge_table(graph: LabeledGraph) -> EdgeTable:
    """Compile (and cache) the columnar edge table of ``graph``.

    The cache lives in the graph's ``__dict__`` keyed by ``mutation_version``
    (``LabeledGraph`` is unhashable by design, so no WeakKeyDictionary here);
    any mutation invalidates it lazily.
    """
    version = graph.mutation_version
    cached = graph.__dict__.get("_generic_join_table")
    if cached is not None and cached[0] == version:
        return cached[1]
    table = _build_edge_table(graph)
    graph.__dict__["_generic_join_table"] = (version, table)
    return table


def _build_edge_table(graph: LabeledGraph) -> EdgeTable:
    vertex_ids = tuple(_sorted_ids(graph))
    index = {vid: i for i, vid in enumerate(vertex_ids)}
    n = len(vertex_ids)

    vlabel_codes: dict = {}
    vlabels = np.empty(n, dtype=np.int64)
    for i, vid in enumerate(vertex_ids):
        label = graph.vertex_label(vid)
        code = vlabel_codes.setdefault(label, len(vlabel_codes))
        vlabels[i] = code

    elabel_codes: dict = {}
    src_list: list[int] = []
    dst_list: list[int] = []
    elabel_list: list[int] = []
    for edge in graph.edges():
        iu, iv = index[edge.u], index[edge.v]
        code = elabel_codes.setdefault(edge.label, len(elabel_codes))
        src_list.extend((iu, iv))
        dst_list.extend((iv, iu))
        elabel_list.extend((code, code))

    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    elabels = np.asarray(elabel_list, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst, elabels = src[order], dst[order], elabels[order]
    offsets = np.searchsorted(src, np.arange(n + 1))
    edge_codes = src * n + dst
    degrees = np.diff(offsets)

    verts_by_vlabel = {
        code: np.flatnonzero(vlabels == code) for code in vlabel_codes.values()
    }
    return EdgeTable(
        vertex_ids=vertex_ids,
        vlabels=vlabels,
        vlabel_codes=vlabel_codes,
        elabel_codes=elabel_codes,
        src=src,
        dst=dst,
        elabels=elabels,
        offsets=offsets,
        edge_codes=edge_codes,
        degrees=degrees,
        verts_by_vlabel=verts_by_vlabel,
        num_vertices=n,
        num_edges=graph.num_edges,
        vertex_label_counts=dict(graph.vertex_label_counts()),
        edge_signature_counts=graph.edge_signature_counts(),  # the graph's memo, shared
    )


def compile_join_plan(pattern: LabeledGraph, label_sensitive: bool = True) -> JoinPlan:
    """Compile (and cache) the join plan of ``pattern``.

    Plans are cached per ``label_sensitive`` flag, keyed by the pattern's
    ``mutation_version``, so one feature matched against a block of graphs is
    compiled exactly once.
    """
    version = pattern.mutation_version
    cache = pattern.__dict__.setdefault("_generic_join_plans", {})
    entry = cache.get(label_sensitive)
    if entry is not None and entry[0] == version:
        return entry[1]
    plan = _build_join_plan(pattern, label_sensitive)
    cache[label_sensitive] = (version, plan)
    return plan


def _build_join_plan(pattern: LabeledGraph, label_sensitive: bool) -> JoinPlan:
    order = connectivity_order(pattern)
    level_of = {vertex: i for i, vertex in enumerate(order)}
    levels = []
    for i, vertex in enumerate(order):
        back = sorted(
            (level_of[n], pattern.edge_label(vertex, n))
            for n in pattern.neighbors(vertex)
            if level_of[n] < i
        )
        levels.append(
            JoinLevel(
                vertex=vertex,
                vlabel=pattern.vertex_label(vertex),
                degree=pattern.degree(vertex),
                back_edges=tuple(back),
            )
        )
    pattern_edges = tuple((level_of[u], level_of[v]) for u, v in pattern.edge_keys())
    return JoinPlan(
        levels=tuple(levels),
        label_sensitive=label_sensitive,
        pattern_edges=pattern_edges,
        num_vertices=pattern.num_vertices,
        num_edges=pattern.num_edges,
        vertex_label_counts=dict(pattern.vertex_label_counts()),
        edge_signature_counts=pattern.edge_signature_counts(),  # the pattern's memo, shared
    )


# ----------------------------------------------------------------------
# plan execution
# ----------------------------------------------------------------------
def _quick_feasible(plan: JoinPlan, table: EdgeTable) -> bool:
    if plan.num_vertices > table.num_vertices:
        return False
    if plan.num_edges > table.num_edges:
        return False
    if not plan.label_sensitive:
        return True
    for label, count in plan.vertex_label_counts.items():
        if table.vertex_label_counts.get(label, 0) < count:
            return False
    for signature, count in plan.edge_signature_counts.items():
        if table.edge_signature_counts.get(signature, 0) < count:
            return False
    return True


def _empty(plan: JoinPlan) -> np.ndarray:
    return np.empty((0, len(plan.levels)), dtype=np.int64)


def _seed_candidates(plan: JoinPlan, level: JoinLevel, table: EdgeTable) -> np.ndarray:
    """All target vertices satisfying a level's unary constraints."""
    if plan.label_sensitive:
        code = table.vlabel_codes.get(level.vlabel)
        if code is None:
            return np.empty(0, dtype=np.int64)
        verts = table.verts_by_vlabel[code]
    else:
        verts = np.arange(table.num_vertices, dtype=np.int64)
    return verts[table.degrees[verts] >= level.degree]


def execute_join_plan(plan: JoinPlan, table: EdgeTable) -> np.ndarray:
    """All injective assignments of the plan's variables into the table.

    Returns an ``(num_mappings, num_levels)`` int array of target vertex
    *indices* (column ``i`` is the image of ``plan.levels[i].vertex``), in
    the engine's deterministic discovery order.  Raises
    :class:`GenericJoinOverflow` when any level's frontier exceeds the cap.
    """
    if not _quick_feasible(plan, table):
        return _empty(plan)
    n = table.num_vertices
    assign: np.ndarray | None = None
    for li, level in enumerate(plan.levels):
        if assign is None:
            cands = _seed_candidates(plan, level, table)
            if cands.size == 0:
                return _empty(plan)
            assign = cands[:, None]
            continue
        if not level.back_edges:
            # component start (or isolated vertex): cross product + injectivity
            cands = _seed_candidates(plan, level, table)
            if cands.size == 0 or assign.shape[0] == 0:
                return _empty(plan)
            total = assign.shape[0] * cands.size
            if total > _MAX_OPEN_BRANCHES:
                raise GenericJoinOverflow(f"{total} open branches at level {li}")
            branch_idx = np.repeat(np.arange(assign.shape[0]), cands.size)
            cand = np.tile(cands, assign.shape[0])
        else:
            # seed from adjacency of the first bound neighbour, then filter
            (b0, elabel0), *rest = level.back_edges
            bound = assign[:, b0]
            starts = table.offsets[bound]
            counts = table.offsets[bound + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return _empty(plan)
            if total > _MAX_OPEN_BRANCHES:
                raise GenericJoinOverflow(f"{total} open branches at level {li}")
            branch_idx = np.repeat(np.arange(assign.shape[0]), counts)
            row_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(row_start, counts)
                + np.repeat(starts, counts)
            )
            cand = table.dst[pos]
            mask = table.degrees[cand] >= level.degree
            if plan.label_sensitive:
                vcode = table.vlabel_codes.get(level.vlabel)
                ecode0 = table.elabel_codes.get(elabel0)
                if vcode is None or ecode0 is None:
                    return _empty(plan)
                mask &= table.vlabels[cand] == vcode
                mask &= table.elabels[pos] == ecode0
            # remaining back edges: membership via searchsorted on edge codes
            for bj, elabelj in rest:
                codes = assign[branch_idx, bj] * n + cand
                idx = np.minimum(
                    np.searchsorted(table.edge_codes, codes), len(table.edge_codes) - 1
                )
                hit = table.edge_codes[idx] == codes
                if plan.label_sensitive:
                    ecodej = table.elabel_codes.get(elabelj)
                    if ecodej is None:
                        return _empty(plan)
                    hit &= table.elabels[idx] == ecodej
                mask &= hit
            branch_idx = branch_idx[mask]
            cand = cand[mask]
        if cand.size == 0:
            return _empty(plan)
        prev = assign[branch_idx]
        keep = ~(prev == cand[:, None]).any(axis=1)  # injectivity
        prev = prev[keep]
        cand = cand[keep]
        if cand.size == 0:
            return _empty(plan)
        assign = np.concatenate([prev, cand[:, None]], axis=1)
    assert assign is not None
    return assign


# ----------------------------------------------------------------------
# public matching API
# ----------------------------------------------------------------------
def _run(
    pattern: LabeledGraph, target: LabeledGraph, label_sensitive: bool
) -> tuple[np.ndarray, JoinPlan, EdgeTable]:
    plan = compile_join_plan(pattern, label_sensitive)
    table = compile_edge_table(target)
    return execute_join_plan(plan, table), plan, table


def pattern_exists(
    pattern: LabeledGraph, target: LabeledGraph, label_sensitive: bool = True
) -> bool:
    """``pattern ⊆iso target`` via the generic-join engine (VF2 on overflow)."""
    if pattern.num_vertices == 0:
        return True
    try:
        assignments, _, _ = _run(pattern, target, label_sensitive)
    except GenericJoinOverflow:
        return VF2Matcher(pattern, target, label_sensitive=label_sensitive).exists()
    return assignments.shape[0] > 0


def first_mapping(
    pattern: LabeledGraph, target: LabeledGraph, label_sensitive: bool = True
) -> dict[VertexId, VertexId] | None:
    """One witnessing mapping, or None (VF2 fallback on overflow)."""
    if pattern.num_vertices == 0:
        return {}
    try:
        assignments, plan, table = _run(pattern, target, label_sensitive)
    except GenericJoinOverflow:
        return VF2Matcher(pattern, target, label_sensitive=label_sensitive).first_mapping()
    if assignments.shape[0] == 0:
        return None
    row = assignments[0]
    return {
        level.vertex: table.vertex_ids[row[i]] for i, level in enumerate(plan.levels)
    }


def all_mappings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = None,
    label_sensitive: bool = True,
) -> list[dict[VertexId, VertexId]]:
    """All injective mappings (up to ``limit``), in discovery order."""
    if pattern.num_vertices == 0:
        return [{}]
    try:
        assignments, plan, table = _run(pattern, target, label_sensitive)
    except GenericJoinOverflow:
        return VF2Matcher(pattern, target, label_sensitive=label_sensitive).all_mappings(
            limit=limit
        )
    if limit is not None:
        assignments = assignments[:limit]
    ids = table.vertex_ids
    vertices = [level.vertex for level in plan.levels]
    return [
        {vertices[i]: ids[row[i]] for i in range(len(vertices))} for row in assignments
    ]


def match_block(
    pattern: LabeledGraph,
    graphs,
    label_sensitive: bool = True,
    method: str | None = None,
) -> list[bool]:
    """``pattern ⊆iso g`` for every graph in the block.

    The pattern's join plan is compiled once and shared across the block;
    per-graph edge tables come from (or populate) each graph's cache.
    """
    graphs = list(graphs)
    if pattern.num_vertices == 0:
        return [True] * len(graphs)
    if resolve_engine(method) == "vf2":
        return [
            VF2Matcher(pattern, g, label_sensitive=label_sensitive).exists()
            for g in graphs
        ]
    return [pattern_exists(pattern, g, label_sensitive=label_sensitive) for g in graphs]


class GenericJoinMatcher:
    """Drop-in sibling of :class:`VF2Matcher` backed by the join engine."""

    def __init__(
        self,
        pattern: LabeledGraph,
        target: LabeledGraph,
        label_sensitive: bool = True,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.label_sensitive = label_sensitive

    def exists(self) -> bool:
        if self.pattern.num_vertices == 0:
            return True
        return pattern_exists(self.pattern, self.target, self.label_sensitive)

    def first_mapping(self) -> dict[VertexId, VertexId] | None:
        if self.pattern.num_vertices == 0:
            return {}
        return first_mapping(self.pattern, self.target, self.label_sensitive)

    def all_mappings(self, limit: int | None = None) -> list[dict[VertexId, VertexId]]:
        if self.pattern.num_vertices == 0:
            return [{}]
        return all_mappings(self.pattern, self.target, limit, self.label_sensitive)


# ----------------------------------------------------------------------
# embedding extraction (consumed by repro.isomorphism.embeddings)
# ----------------------------------------------------------------------
def enumerate_embedding_sets(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None,
    label_sensitive: bool = True,
) -> tuple[list[tuple[frozenset, frozenset]], bool]:
    """Distinct embeddings as ``(edge_keys, vertices)`` frozenset pairs.

    Automorphic mappings that cover the same edge set are collapsed; results
    come back in discovery order (first mapping that produced each edge set)
    and are truncated at ``limit`` with a ``truncated`` flag.  Falls back to
    the recursive matcher on frontier overflow (same fallback the boolean
    wrappers use), signalled by raising :class:`GenericJoinOverflow` so the
    caller can reuse its streaming VF2 path.
    """
    assignments, plan, table = _run(pattern, target, label_sensitive)
    if assignments.shape[0] == 0:
        return [], False
    n = table.num_vertices
    columns = []
    for i, j in plan.pattern_edges:
        a = assignments[:, i]
        b = assignments[:, j]
        columns.append(np.minimum(a, b) * n + np.maximum(a, b))
    codes = np.stack(columns, axis=1)
    codes.sort(axis=1)  # edge-set signature: order within a mapping is irrelevant
    # first occurrence of each distinct signature row, in discovery order
    # (lexsort + reduceat is much cheaper than np.unique(axis=0))
    order = np.lexsort(codes.T)
    ranked = codes[order]
    boundary = np.empty(order.size, dtype=bool)
    boundary[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=boundary[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(boundary))
    first.sort()
    truncated = limit is not None and first.size > limit
    if truncated:
        first = first[:limit]
    ids = table.vertex_ids
    results = []
    for row_index in first:
        row = assignments[row_index]
        edges = frozenset(
            edge_key(ids[row[i]], ids[row[j]]) for i, j in plan.pattern_edges
        )
        vertices = frozenset(ids[v] for v in row)
        results.append((edges, vertices))
    return results, truncated
