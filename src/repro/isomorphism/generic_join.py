"""Vectorized generic-join subgraph matching (worst-case-optimal style).

This is the matching engine: every ``rq ⊆iso f`` / ``f ⊆iso gc`` test and
every embedding enumeration goes through it.  A pattern is compiled **once** into a
:class:`JoinPlan` — a vertex elimination order plus, per level, the
constraints that bind the new variable (vertex-label equality, adjacency to
already-bound variables with the right edge label, degree feasibility,
injectivity).  The unit of matching is a **block** of target graphs: an
:class:`EdgeTable` concatenates their vertex index spaces under one shared
label dictionary, with a ``graph_of`` column and CSR offsets / edge codes over
the stacked space.  A single graph is the block of one, compiled once and
cached on the graph; larger blocks are stacked from those cached tables.
Executing a plan advances every open branch of every graph of the block one
*level* at a time with whole-array gathers, ``searchsorted`` membership tests
and boolean masks: one join per (pattern, block), no Python-level work per
graph or per candidate vertex (ARCHITECTURE.md, "The matching engine").

The engine is pure and deterministic — no randomness, no hashing of ids
(vertices are indexed in sorted order, ``repr`` order for heterogeneous ids)
— and a graph's rows in a block's result are exactly the rows, in the same
discovery order, that the block of that one graph produces.

Memory stays bounded: a level whose frontier (two rows or more), summed over
the block, would open more than ``_MAX_OPEN_BRANCHES`` branches raises
:class:`GenericJoinOverflow` from the one pass, and the entry points then run
the join depth first (:func:`_join`): an overflowing frontier is split in
halves, each carried through the remaining levels before the next, so the
same rows come out in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph, VertexId, edge_key
from repro.graphs.variant_rows import VariantRows

__all__ = [
    "EdgeTable",
    "GenericJoinOverflow",
    "GraphBlock",
    "JoinLevel",
    "JoinPlan",
    "VariantFamily",
    "compile_edge_table",
    "compile_join_plan",
    "compile_variant_family",
    "connectivity_order",
    "is_subgraph_isomorphic",
    "match_block",
]

# Hard cap on the number of simultaneously open branches at any join level.
# Beyond this the vectorized frontier would start costing real memory, so the
# frontier is split instead (one row's own expansion, bounded by the vertices
# of one graph, is never split).
_MAX_OPEN_BRANCHES = 1 << 18


class GenericJoinOverflow(RuntimeError):
    """Raised when a join level would open more branches than the cap allows."""


def connectivity_order(pattern: LabeledGraph) -> list[VertexId]:
    """Connectivity-aware vertex elimination order of a join plan.

    BFS from the highest-degree vertex of each component, always taking the
    frontier vertex with the most already-placed neighbours (ties broken by
    degree, then repr).  Placed-neighbour counts are maintained incrementally
    so the whole ordering is O(V + E) selections over the frontier instead of
    re-sorting the frontier on every pop.
    """
    degree = {v: pattern.degree(v) for v in pattern.vertices()}
    neighbors = {v: tuple(pattern.neighbors(v)) for v in degree}
    placed_count = dict.fromkeys(degree, 0)
    order: list[VertexId] = []
    placed: set[VertexId] = set()
    remaining = set(degree)
    while remaining:
        start = max(remaining, key=lambda v: (degree[v], repr(v)))
        frontier = [start]
        in_frontier = {start}
        while frontier:
            current = min(
                frontier,
                key=lambda v: (-placed_count[v], -degree[v], repr(v)),
            )
            frontier.remove(current)
            in_frontier.discard(current)
            order.append(current)
            placed.add(current)
            remaining.discard(current)
            for neighbor in neighbors[current]:
                if neighbor in placed:
                    continue
                placed_count[neighbor] += 1
                if neighbor not in in_frontier:
                    frontier.append(neighbor)
                    in_frontier.add(neighbor)
    return order


# ----------------------------------------------------------------------
# compiled artifacts
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Columnar, both-directions edge table of a block of target graphs.

    Graph ``g`` owns the stacked vertices ``vertex_offsets[g]:vertex_offsets[g
    + 1]`` (in its own sorted-id order) and ``graph_of`` maps a stacked vertex
    back to ``g``.  ``src``/``dst``/``elabels`` hold every edge twice (once
    per direction), lexsorted by ``(src, dst)``; ``offsets`` is the CSR row
    index over ``src`` and ``edge_codes = src * num_vertices + dst`` is
    strictly ascending, so adjacency is a slice and edge membership is a
    ``searchsorted``.  Label codes come from one dictionary per block.

    ``max_vertices`` / ``max_edges`` and the two count dictionaries bound, per
    key, what any one graph of the block holds: exact for a block of one, an
    upper bound (so a necessary condition for a match) for a stacked block.
    """

    vertex_ids: tuple
    vertex_offsets: np.ndarray
    graph_of: np.ndarray
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
    num_graphs: int
    max_vertices: int
    max_edges: int
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
    vertex_label_counts: dict
    edge_signature_counts: dict


def _memoised(graph: LabeledGraph, slot: str, build):
    """``build(graph)``, cached in the graph's ``__dict__`` (``LabeledGraph``
    is unhashable by design) until its ``mutation_version`` moves."""
    version = graph.mutation_version
    cached = graph.__dict__.get(slot)
    if cached is None or cached[0] != version:
        cached = graph.__dict__[slot] = (version, build(graph))
    return cached[1]


def compile_edge_table(graph: LabeledGraph) -> EdgeTable:
    """Compile (and cache) the edge table of ``graph`` — the block of one."""
    return _memoised(graph, "_generic_join_table", _build_edge_table)


def _build_edge_table(graph: LabeledGraph) -> EdgeTable:
    vertex_ids = list(graph.vertices())
    try:
        vertex_ids.sort()
    except TypeError:
        vertex_ids.sort(key=repr)
    index = {vid: i for i, vid in enumerate(vertex_ids)}
    vlabel_codes: dict = {}
    elabel_codes: dict = {}
    vlabels = [
        vlabel_codes.setdefault(graph.vertex_label(vid), len(vlabel_codes)) for vid in vertex_ids
    ]
    rows = []  # both directions of every edge: (src, dst, edge-label code)
    for edge in graph.edges():
        iu, iv = index[edge.u], index[edge.v]
        code = elabel_codes.setdefault(edge.label, len(elabel_codes))
        rows += ((iu, iv, code), (iv, iu, code))
    rows.sort()
    src, dst, elabels = np.ascontiguousarray(np.array(rows, dtype=np.int64).reshape(-1, 3).T)
    return _assemble(
        tuple(vertex_ids),
        np.array([0, len(vertex_ids)]),
        np.array(vlabels, dtype=np.int64),
        vlabel_codes,
        elabel_codes,
        src,
        dst,
        elabels,
        max_edges=graph.num_edges,
        vertex_label_counts=dict(graph.vertex_label_counts()),
        edge_signature_counts=graph.edge_signature_counts(),  # the graph's memo, shared
    )


def _assemble(
    vertex_ids, vertex_offsets, vlabels, vlabel_codes, elabel_codes, src, dst, elabels, **bounds
) -> EdgeTable:
    """Derive the CSR index, edge codes and label pools of a stacked space."""
    n = len(vertex_ids)
    sizes = np.diff(vertex_offsets)
    offsets = np.searchsorted(src, np.arange(n + 1))
    by_label = np.argsort(vlabels, kind="stable")  # ascending vertices within a label
    pools = np.searchsorted(vlabels[by_label], np.arange(len(vlabel_codes) + 1))
    return EdgeTable(
        vertex_ids=vertex_ids,
        vertex_offsets=vertex_offsets,
        graph_of=np.repeat(np.arange(len(sizes)), sizes),
        vlabels=vlabels,
        vlabel_codes=vlabel_codes,
        elabel_codes=elabel_codes,
        src=src,
        dst=dst,
        elabels=elabels,
        offsets=offsets,
        edge_codes=src * n + dst,
        degrees=np.diff(offsets),
        verts_by_vlabel={
            code: by_label[pools[code] : pools[code + 1]] for code in vlabel_codes.values()
        },
        num_vertices=n,
        num_graphs=len(sizes),
        max_vertices=int(sizes.max()),
        **bounds,
    )


def _stack_edge_tables(tables: list[EdgeTable]) -> EdgeTable:
    """One table over the concatenated vertex spaces of ``tables`` (in order)."""
    if len(tables) == 1:
        return tables[0]
    vertex_offsets = np.concatenate(([0], np.cumsum([t.num_vertices for t in tables])))
    shift = np.repeat(vertex_offsets[:-1], [len(t.src) for t in tables])
    vlabel_codes, vlabels = _shared_codes([(t.vlabel_codes, t.vlabels) for t in tables])
    elabel_codes, elabels = _shared_codes([(t.elabel_codes, t.elabels) for t in tables])
    # bounds for the quick filter: a label or signature that occurs anywhere
    # in the block occurs at most largest-graph many times in one graph
    max_vertices = max(t.max_vertices for t in tables)
    max_edges = max(t.max_edges for t in tables)
    signatures = set().union(*(t.edge_signature_counts for t in tables))
    return _assemble(
        tuple(chain.from_iterable(t.vertex_ids for t in tables)),
        vertex_offsets,
        vlabels,
        vlabel_codes,
        elabel_codes,
        np.concatenate([t.src for t in tables]) + shift,
        np.concatenate([t.dst for t in tables]) + shift,
        elabels,
        max_edges=max_edges,
        vertex_label_counts=dict.fromkeys(vlabel_codes, max_vertices),
        edge_signature_counts=dict.fromkeys(signatures, max_edges),
    )


def _shared_codes(per_graph: list[tuple[dict, np.ndarray]]) -> tuple[dict, np.ndarray]:
    """One label dictionary for a block, and the graphs' (dictionary, code
    column) pairs as one concatenated column recoded under it."""
    dictionaries, columns = zip(*per_graph)
    shared: dict = {}
    remap = np.array(
        [shared.setdefault(label, len(shared)) for local in dictionaries for label in local],
        dtype=np.int64,
    )
    # graph k's local code c sits at remap[first_slot[k] + c]
    first_slot = np.cumsum([0] + [len(local) for local in dictionaries[:-1]])
    slots = np.concatenate(columns) + np.repeat(first_slot, [len(c) for c in columns])
    return shared, remap[slots]


class GraphBlock:
    """A list of target graphs and its stacked :class:`EdgeTable`.

    Every block entry point takes a plain iterable of graphs (stacked on the
    fly from the cached per-graph tables) or a ``GraphBlock``: a caller that
    sweeps many patterns over one list — the miner's skeletons, an index
    build, a verifier's candidates — stacks it once.  The graphs must not be
    mutated while the block is in use.
    """

    __slots__ = ("graphs", "table")

    def __init__(self, graphs) -> None:
        self.graphs = list(graphs)
        # an empty block has nothing to join against: entry points return []
        tables = [compile_edge_table(graph) for graph in self.graphs]
        self.table = _stack_edge_tables(tables) if tables else None

    @classmethod
    def of(cls, targets) -> "GraphBlock":
        return targets if isinstance(targets, cls) else cls(targets)


def compile_join_plan(pattern: LabeledGraph, label_sensitive: bool = True) -> JoinPlan:
    """Compile (and cache, per ``label_sensitive`` flag) the join plan of
    ``pattern``: a feature matched against many blocks is compiled once."""
    slot = "_generic_join_plan" if label_sensitive else "_generic_join_plan_unlabeled"
    return _memoised(pattern, slot, lambda graph: _build_join_plan(graph, label_sensitive))


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
            JoinLevel(vertex, pattern.vertex_label(vertex), pattern.degree(vertex), tuple(back))
        )
    pattern_edges = tuple((level_of[u], level_of[v]) for u, v in pattern.edge_keys())
    return JoinPlan(
        levels=tuple(levels),
        label_sensitive=label_sensitive,
        pattern_edges=pattern_edges,
        vertex_label_counts=dict(pattern.vertex_label_counts()),
        edge_signature_counts=pattern.edge_signature_counts(),  # the pattern's memo, shared
    )


# ----------------------------------------------------------------------
# plan execution
# ----------------------------------------------------------------------
def _quick_feasible(plan: JoinPlan, table: EdgeTable) -> bool:
    """False when the block's per-key bounds rule the pattern out of every graph."""
    if len(plan.levels) > table.max_vertices or len(plan.pattern_edges) > table.max_edges:
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


def _expand(starts: np.ndarray, counts: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Open ``counts[r]`` branches from frontier row ``r``: per branch its row and
    its pool position ``starts[r] + 0 .. counts[r] - 1``.  Enforces the branch cap
    on a frontier of two rows or more (one row's expansion cannot be split)."""
    total = int(counts.sum())
    if total > _MAX_OPEN_BRANCHES and counts.size > 1:
        raise GenericJoinOverflow(f"{total} open branches at level {level}")
    branch = np.repeat(np.arange(counts.size), counts)
    pos = np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return branch, pos


def _has_edge(table: EdgeTable, u: np.ndarray, v: np.ndarray, elabel: int | None) -> np.ndarray:
    """Is ``u[r] - v[r]`` an edge of the block (labelled ``elabel`` unless None)?
    ``searchsorted`` on the ascending edge codes; an unbound ``u`` (-1) never is."""
    codes = u * table.num_vertices + v
    at = np.minimum(np.searchsorted(table.edge_codes, codes), len(table.edge_codes) - 1)
    found = table.edge_codes[at] == codes
    if elabel is not None:
        found &= table.elabels[at] == elabel
    return found


def _seed_pool(plan: JoinPlan, table: EdgeTable, level: JoinLevel) -> np.ndarray:
    """The block's vertices meeting a level's unary constraints, ascending."""
    if plan.label_sensitive:
        pool = table.verts_by_vlabel[table.vlabel_codes[level.vlabel]]
    else:
        pool = np.arange(table.num_vertices)
    return pool[table.degrees[pool] >= level.degree]


def _bind_level(plan: JoinPlan, table: EdgeTable, assign: np.ndarray, li: int) -> np.ndarray:
    """The frontier ``assign`` (levels ``0 .. li - 1`` bound) extended by every
    feasible image of level ``li``: a row's extensions stay together, in pool
    order.  Raises :class:`GenericJoinOverflow` past the branch cap."""
    level = plan.levels[li]
    if level.back_edges:
        # candidates: the neighbours of the first bound neighbour
        (b0, elabel0), *rest = level.back_edges
        pool = table.dst
        starts = table.offsets[assign[:, b0]]
        counts = table.offsets[assign[:, b0] + 1] - starts
    else:
        # component start (or isolated vertex): the seed pool of the branch's
        # own graph, never another's
        pool = _seed_pool(plan, table, level)
        graph = table.graph_of[assign[:, 0]]
        starts = np.searchsorted(pool, table.vertex_offsets[graph])
        counts = np.searchsorted(pool, table.vertex_offsets[graph + 1]) - starts
    branch, pos = _expand(starts, counts, li)
    cand = pool[pos]
    # injectivity, then (for an adjacency level) the unary constraints,
    # the seeding edge's label and every remaining back edge
    keep = ~(assign[branch] == cand[:, None]).any(axis=1)
    if level.back_edges:
        keep &= table.degrees[cand] >= level.degree
        if plan.label_sensitive:
            keep &= table.vlabels[cand] == table.vlabel_codes[level.vlabel]
            keep &= table.elabels[pos] == table.elabel_codes[elabel0]
        for bj, elabelj in rest:
            code = table.elabel_codes[elabelj] if plan.label_sensitive else None
            keep &= _has_edge(table, assign[branch, bj], cand, code)
    return np.concatenate([assign[branch[keep]], cand[keep, None]], axis=1)


def execute_join_plan(plan: JoinPlan, table: EdgeTable) -> np.ndarray:
    """All injective assignments of the plan's variables into every graph of
    the block, in one level-at-a-time pass.

    Returns an ``(num_mappings, num_levels)`` int array of *stacked* target
    vertex indices (column ``i`` is the image of ``plan.levels[i].vertex``),
    graph-major and, within a graph, in the deterministic discovery order —
    the rows and the order the block of that one graph produces.  Raises
    :class:`GenericJoinOverflow` when a level's frontier exceeds the cap.
    """
    # a pattern that passes the filter has a code for each of its labels
    if not _quick_feasible(plan, table):
        return _empty(plan)
    assign = _seed_pool(plan, table, plan.levels[0])[:, None]
    for li in range(1, len(plan.levels)):
        assign = _bind_level(plan, table, assign, li)
        if not assign.shape[0]:
            return _empty(plan)
    return assign


def _join(plan: JoinPlan, table: EdgeTable, settle_at: int | None = None) -> np.ndarray:
    """:func:`execute_join_plan`, carried on depth first when it overflows.

    The depth-first pass keeps a stack of frontiers: one that would overflow
    is split in halves and each half goes through the remaining levels
    before the next, so the complete rows, concatenated, are the one pass's
    rows in its order.  With ``settle_at``, a graph whose rows have covered
    that many distinct edge sets is settled and its pending frontier dropped:
    its rows are then a prefix of the one pass's — an existence test needs
    one edge set, a capped enumeration ``limit + 1``.
    """
    try:
        return execute_join_plan(plan, table)
    except GenericJoinOverflow:
        pass  # the one pass's frontiers are released before the split pass
    ends = np.array(plan.pattern_edges, dtype=np.int64).reshape(-1, 2).T
    done = seen = None  # settle state: built with the first complete rows
    chunks = []
    stack = [(1, _seed_pool(plan, table, plan.levels[0])[:, None])]
    while stack:
        li, assign = stack.pop()
        if done is not None:
            assign = assign[~done[table.graph_of[assign[:, 0]]]]
        if not assign.shape[0]:
            continue
        if li < len(plan.levels):
            try:
                stack.append((li + 1, _bind_level(plan, table, assign, li)))
            except GenericJoinOverflow:
                half = assign.shape[0] // 2
                stack += [(li, assign[half:]), (li, assign[:half])]
            continue
        chunks.append(assign)
        if settle_at is not None:
            codes = _edge_codes(assign, ends, table)
            codes.sort(axis=1)
            keys = np.column_stack([table.graph_of[assign[:, 0]], codes])
            if done is None:
                done, seen = np.zeros(table.num_graphs, dtype=bool), keys[:0]
            seen = np.unique(np.concatenate([seen, keys]), axis=0)
            done |= np.bincount(seen[:, 0], minlength=table.num_graphs) >= settle_at
            seen = seen[~done[seen[:, 0]]]
    return np.concatenate(chunks) if chunks else _empty(plan)


# ----------------------------------------------------------------------
# the variant family: every relaxed variant of a query in one pass
# ----------------------------------------------------------------------
_POOL, _ABSENT = -1, -2  # VariantFamily.seed: component start / vertex dropped


@dataclass(frozen=True, eq=False)
class VariantFamily:
    """The deletion variants of one query, compiled for one shared join.

    A member is the query minus edges on the query's own vertex ids, so all
    share ``levels`` — per vertex of the query's :func:`connectivity_order`,
    ``(vertex label, back edges as (earlier level, edge label, edge e))`` —
    and differ in ``required[k, e]`` (member ``k`` kept query edge ``e``, whose
    levels are ``edge_ends[:, e]``), ``degree[k, l]`` and ``seed[k, l]``: the
    position of the first back edge of level ``l`` it kept, ``_POOL`` at a
    component start, ``_ABSENT`` for a dropped vertex.
    """

    levels: tuple
    edge_ends: np.ndarray
    required: np.ndarray
    degree: np.ndarray
    seed: np.ndarray


def compile_variant_family(query: LabeledGraph, variants) -> VariantFamily:
    """Compile ``variants`` — the relaxed set of ``query`` (its
    :class:`~repro.graphs.variant_rows.VariantRows`, read as they are) or any
    list of graphs, each of them ``query`` minus some edges — into a
    :class:`VariantFamily`: the rows' columns permuted to the level-major edge
    order, degrees and seeds as array passes over them."""
    rows = VariantRows.of(query, variants)
    order = connectivity_order(query)
    level_of = {vertex: i for i, vertex in enumerate(order)}
    # per level as in a JoinLevel; per query edge, level-major: its key, its
    # (earlier, later) levels and its rank among the back edges of its level
    back, keys, ends, rank = [], [], [], []
    for li, vertex in enumerate(order):
        prev = sorted((level_of[n], n) for n in query.neighbors(vertex) if level_of[n] < li)
        back.append(
            tuple((lo, query.edge_label(vertex, n), e) for e, (lo, n) in enumerate(prev, len(keys)))
        )
        keys += [edge_key(vertex, n) for _, n in prev]
        ends += [(lo, li) for lo, _ in prev]
        rank += range(len(prev))
    column = {key: e for e, key in enumerate(rows.edges)}
    required = rows.kept[:, [column[key] for key in keys]]
    held = rows.present[:, [rows.vertices.index(vertex) for vertex in order]]
    edge_ends = np.array(ends, dtype=np.int16).reshape(len(keys), 2).T
    incidence = np.zeros((len(keys), len(order)), dtype=np.int16)
    incidence[np.arange(len(keys)), edge_ends] = 1
    # the first back edge a member kept at each level; len(keys): it kept none
    first = np.full(held.shape, len(keys), dtype=np.int16)
    member, edge = required.nonzero()
    np.minimum.at(first, (member, edge_ends[1, edge]), np.array(rank, dtype=np.int16)[edge])
    return VariantFamily(
        levels=tuple((query.vertex_label(vertex), level) for vertex, level in zip(order, back)),
        edge_ends=edge_ends,
        required=required,
        degree=required @ incidence,
        seed=np.where(first < len(keys), first, np.where(held, _POOL, _ABSENT)).astype(np.int16),
    )


def execute_variant_family(
    family: VariantFamily, table: EdgeTable
) -> tuple[np.ndarray, np.ndarray]:
    """All injective assignments of every member of ``family`` into every
    graph of the block, from one level-at-a-time pass over one frontier.

    Returns ``(assign, variant)``: row ``r`` maps member ``variant[r]``, column
    ``l`` is the stacked image of level ``l``, -1 where the member dropped the
    vertex (such a row passes the level unbound; ARCHITECTURE.md, "The matching
    engine").  Raises :class:`GenericJoinOverflow` past the branch cap.
    """
    members, graphs = family.required.shape[0], table.num_graphs
    variant, graph = np.divmod(np.arange(members * graphs), graphs)  # a row per pair, unbound
    assign = np.empty((variant.size, 0), dtype=np.int64)
    owned = table.vertex_offsets
    for li, (vlabel, back) in enumerate(family.levels):
        vcode = table.vlabel_codes.get(vlabel, -1)
        ecodes = [table.elabel_codes.get(elabel, -1) for _, elabel, _ in back]
        seeded_by = family.seed[variant, li]
        absent = (seeded_by == _ABSENT).nonzero()[0]
        kept_rows, images = [absent], [np.full(absent.size, -1)]
        for seed in range(_POOL, len(back)):
            rows = (seeded_by == seed).nonzero()[0]
            if not rows.size:
                continue
            if seed == _POOL:  # no kept back edge: the label pool slice of the row's own graph
                pool, own = table.verts_by_vlabel.get(vcode, owned[:0]), graph[rows]
                starts, stops = np.searchsorted(pool, (owned[own], owned[own + 1]))
            else:  # the neighbours of the vertex at the other end of the first kept back edge
                pool, bound = table.dst, assign[rows, back[seed][0]]
                starts, stops = table.offsets[bound], table.offsets[bound + 1]
            branch, pos = _expand(starts, stops - starts, li)
            cand, branch = pool[pos], rows[branch]
            member = variant[branch]
            keep = table.degrees[cand] >= family.degree[member, li]
            keep &= ~(assign[branch] == cand[:, None]).any(axis=1)  # -1 equals no vertex
            if seed != _POOL:
                keep &= table.vlabels[cand] == vcode
                keep &= table.elabels[pos] == ecodes[seed]
                for (lo, _, e), ecode in zip(back[seed + 1 :], ecodes[seed + 1 :]):
                    found = _has_edge(table, assign[branch, lo], cand, ecode)
                    keep &= found | ~family.required[member, e]
            kept_rows.append(branch[keep])
            images.append(cand[keep])
        rows = np.concatenate(kept_rows)
        assign = np.concatenate([assign[rows], np.concatenate(images)[:, None]], axis=1)
        variant, graph = variant[rows], graph[rows]
    return assign, variant


# ----------------------------------------------------------------------
# public matching API
# ----------------------------------------------------------------------
def match_block(pattern: LabeledGraph, graphs, label_sensitive: bool = True) -> list[bool]:
    """``pattern ⊆iso g`` for every graph of the block (an iterable of graphs
    or a :class:`GraphBlock`): one join against the stacked table, the
    surviving assignments counted per graph (past the cap, each graph's join
    stops at its first row)."""
    block = GraphBlock.of(graphs)
    size = len(block.graphs)
    if pattern.num_vertices == 0 or size == 0:
        return [True] * size
    rows = _join(compile_join_plan(pattern, label_sensitive), block.table, settle_at=1)
    return (np.bincount(block.table.graph_of[rows[:, 0]], minlength=size) > 0).tolist()


def is_subgraph_isomorphic(
    pattern: LabeledGraph, target: LabeledGraph, label_sensitive: bool = True
) -> bool:
    """``pattern ⊆iso target`` (Definition 5): :func:`match_block` on the block of one."""
    return match_block(pattern, (target,), label_sensitive)[0]


# ----------------------------------------------------------------------
# embedding extraction (consumed by repro.isomorphism.embeddings)
# ----------------------------------------------------------------------
def _edge_codes(rows: np.ndarray, ends: np.ndarray, table: EdgeTable) -> np.ndarray:
    """Per row, the code of the block edge that pattern edge ``e`` (joining
    columns ``ends[:, e]``) lands on: a stacked vertex pair names one edge of
    one graph."""
    a, b = rows[:, ends[0]], rows[:, ends[1]]
    return np.minimum(a, b) * table.num_vertices + np.maximum(a, b)


def edge_set_runs(
    rows: np.ndarray, ends: np.ndarray, table: EdgeTable, required=None, ties: tuple = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort assignment ``rows`` by the edge set they cover: a row's signature
    is its ascending edge codes (:func:`_edge_codes`; -1 where not
    ``required[r, e]``).  Returns the order that makes equal signatures adjacent
    (``ties``: less significant keys), the signatures in that order and a mask of
    the rows that open a distinct one (much cheaper than ``np.unique(axis=0)``)."""
    codes = _edge_codes(rows, ends, table)
    if required is not None:
        codes[~required] = -1
    codes.sort(axis=1)
    order = np.lexsort((*ties, *codes.T))
    codes = codes[order]
    boundary = np.ones(order.size, dtype=bool)
    np.any(codes[1:] != codes[:-1], axis=1, out=boundary[1:])
    return order, codes, boundary


def distinct_embedding_rows(
    pattern: LabeledGraph, table: EdgeTable, limit: int | None, label_sensitive: bool = True
) -> tuple[JoinPlan, np.ndarray, np.ndarray, np.ndarray]:
    """One assignment row per distinct embedding of ``pattern`` in the block.

    Mappings that cover the same edge set collapse to the first one
    discovered, over all rows at once; the survivors are split by graph id
    and each graph keeps its first ``limit`` — its rows are in its own
    discovery order, so the cap picks what the block of that one graph picks.
    Returns the plan, the kept rows (graph-major), how many each graph owns
    and which graphs the cap cut.
    """
    plan = compile_join_plan(pattern, label_sensitive)
    rows = _join(plan, table, settle_at=None if limit is None else limit + 1)
    if rows.shape[0] == 0:
        none = np.zeros(table.num_graphs, dtype=np.int64)
        return plan, rows, none, none > 0
    if rows.shape[0] > 1:
        # first occurrence of each distinct edge set, in discovery order
        order, _, boundary = edge_set_runs(rows, np.array(plan.pattern_edges).T, table)
        first = np.minimum.reduceat(order, np.flatnonzero(boundary))
        first.sort()
        rows = rows[first]
    counts = np.bincount(table.graph_of[rows[:, 0]], minlength=table.num_graphs)
    truncated = np.zeros_like(counts, dtype=bool) if limit is None else counts > limit
    if truncated.any():
        rank = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = rows[rank < limit]
        counts = np.minimum(counts, limit)
    return plan, rows, counts, truncated
