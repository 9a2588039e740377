"""The vectorized batch verification kernel — the single owner of
verification arithmetic: clause weights, the exact union over a narrow
support, array-at-a-time possible-world sampling and the batched Karp-Luby
coverage estimator.

Instead of one world at a time — a Python dict per sample, joint probability
tables conditioned through ``Factor.condition``, events tested by frozenset
containment (the scalar sampler of :mod:`repro.reference`, which the tests
hold this module to) — the inner loop is numpy kernels:

* :func:`compile_world_model` compiles a graph once into integer edge-index
  arrays, per-factor probability tables and the connected components of its
  factors (:class:`CompiledWorldModel` / :class:`CompiledFactor`);
* events are mask matrices in rank space (:mod:`repro.probability.events`),
  read here through a per-model table of each column's bit (built on the
  first read, never by :func:`compile_world_model`); :func:`event_masks` is
  how an edge-key-set argument of the public entry points becomes one;
* :func:`clause_weights` reads ``Pr(Bf)`` — the probability that every edge
  of an event exists — off the compiled model: a product over the factor
  components the event touches, one cached masked sum per single-factor
  component (every edge-partitioned graph) and variable elimination with a
  cached ``Z`` per multi-factor (overlapping) component.  It is the one
  source of weights for the Karp-Luby estimator and exact
  inclusion-exclusion;
* :func:`support_union_probability` sums ``Pr(∪ events)`` exactly over the
  assignments of the few columns the events mention — the verifier's route
  whenever that support is at most :data:`EXACT_SUPPORT_LIMIT` wide;
* :class:`BatchWorldSampler` draws an ``S x E`` edge-presence matrix in one
  shot — a single uniform matrix compare on the independent-edge fast path,
  and a per-factor categorical draw (grouped by the conditioning pattern of
  evidence and already-assigned overlap edges) on the correlated path;
* :func:`estimate_union_probability_batch` runs Algorithm 5's Karp-Luby
  coverage estimator over those matrices: one vectorized weighted event
  choice for all samples, **one** world batch for the whole estimate in
  which row ``s`` is conditioned on its own chosen event, and one boolean
  matrix product for the canonical-clause coverage test.

Column ``c`` of the model is not bit ``c`` of a mask: the columns stay in
``repr`` order (the independent fast path draws its uniforms in column
order), the bits are in rank order, and every reader goes through the table.

**Determinism contract.**  The kernel defines one *canonical draw order*
anchored on the caller's ``random.Random`` stream (in the query pipeline:
the generator of ``derive_seed(root, VERIFY_STREAM, global graph id)``): the stream is
collapsed into a numpy ``Generator`` via :func:`repro.utils.rng.numpy_generator`,
event picks are drawn first as one array; then the world batch walks the
factors once, in graph order, and within a factor draws one uniform vector
per conditioning pattern (which slots are known — from the row's event or
from an earlier overlapping factor — and their values) in ascending pattern
code order, rows in ascending order within a pattern.  On the independent
fast path the batch is a single ``n x E`` uniform matrix.  Every step is a
pure function of the generator and the (graph, events) pair — never of
event discovery order, block composition, or how many candidates ran
before — so a graph's estimate is byte-identical across sequential,
top-k-replay, catalog and service executions.  The exact
route consumes no randomness at all: it is a pure function of (graph, events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import ConfigurationError, ProbabilityError
from repro.probability.events import (
    edge_ranks,
    mask_bits,
    mask_words,
    normalize_masks,
    pack_bits,
)
from repro.probability.junction_tree import VariableEliminationEngine
from repro.probability.sampling import (
    DEFAULT_TAU,
    DEFAULT_XI,
    check_sample_count,
    monte_carlo_sample_size,
)
from repro.utils.rng import RandomLike, ensure_rng, numpy_generator

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import ProbabilisticGraph

__all__ = [
    "BatchWorldSampler",
    "CompiledFactor",
    "CompiledWorldModel",
    "clause_weights",
    "compile_events",
    "compile_world_model",
    "enumerate_factor_product",
    "estimate_union_probability_batch",
    "event_masks",
    "support_union_probability",
]

# Widest factor for which the independent-product structure test enumerates
# the full assignment grid; wider factors always take the general path.
_MAX_PRODUCT_CHECK_WIDTH = 12

# A conditioning pattern packs a factor's known-slot mask and the known
# values into one int64 code (two bits per slot).  Wider factors keep exact
# weights (through the elimination engine) but cannot be batch-sampled.
_MAX_FACTOR_WIDTH = 31

# Widest support (:func:`support_union_probability`) that verification sums
# over exactly instead of sampling.  Measured per estimate, events normalised
# beforehand on both sides: 205 event lists (1-161 events) of 5-7-edge queries
# at δ 1-2 over 24 max-correlated 28-edge graphs with 2 vertex labels, best of
# three, median per width, two runs, ms — enumerate | draw N=1000 | 200 | 100:
#    5  0.03      | 0.51    | 0.26    | 0.22        10  0.12 | 1.7 | 0.83 | 0.59
#   14  0.49-0.56 | 3.0-4.0 | 1.8-2.0 | 1.5-1.9
#   16  0.95-1.04 | 2.8-3.4 | 1.2-1.7 | 1.3-1.5
#   17  1.7-2.1   | 3.5-4.2 | 1.6-2.2 | 1.3-1.6
#   18  4.7-5.2   | 4.5-4.6 | 1.7-2.6 | 1.6-1.7
# Enumeration doubles per column and hardly sees the event count; the sides
# cross between 16 and 17 up to N = 200 and at 18 for N = 1000.  (The columns
# of a multi-factor component cost more — 0.6 ms at 11 against a 4-5 ms draw,
# 8.1 at 15 against 6-7 — and no generator here builds one that wide.)
EXACT_SUPPORT_LIMIT = 16


@dataclass(frozen=True, eq=False)
class CompiledFactor:
    """One neighbor-edge factor, flattened into arrays.

    ``positions`` maps the factor's edges (in ``factor.edges`` order) to
    columns of the model's presence matrix; ``assignments``/``values`` list
    the JPT's non-zero entries in table insertion order, which is also the
    order the scalar ``Factor.sample`` walks.
    """

    positions: np.ndarray  # (w,) int64 — model column of each factor edge
    assignments: np.ndarray  # (n_entries, w) uint8, table insertion order
    values: np.ndarray  # (n_entries,) float64
    cumulative: np.ndarray  # (n_entries,) float64 running sum of values
    # conditional-distribution cache: (slot mask, value bits) ->
    # (entry indices, cumulative values, total mass)
    _conditionals: dict = field(default_factory=dict, repr=False, compare=False)
    # marginal cache: slot mask -> (model columns of its slots, table over them)
    _marginals: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def width(self) -> int:
        return int(self.positions.size)

    @property
    def total(self) -> float:
        """This factor's own partition function (1 for a normalized JPT)."""
        return float(self.cumulative[-1])

    def codes(self) -> np.ndarray:
        """Each entry's assignment packed into one integer (slot ``j`` in
        bit ``j``)."""
        return self.assignments @ _slot_bits(self.width)

    def dense(self) -> np.ndarray:
        """The table as a dense array by bit code (:meth:`codes`); 0 where it has no entry."""
        table = np.zeros(1 << self.width, dtype=np.float64)
        table[self.codes()] = self.values
        return table

    def marginal(self, mask: int) -> tuple[list[int], np.ndarray]:
        """The distribution over the slots in ``mask`` alone: their model columns
        and a table by the bit code of their values (``j``-th such slot, bit ``j``)."""
        cached = self._marginals.get(mask)
        if cached is None:
            slots = [slot for slot in range(self.width) if mask >> slot & 1]
            table = _marginal_table(self.assignments, self.values, slots)
            cached = self._marginals[mask] = (self.positions[slots].tolist(), table)
        return cached

    def restricted(self, mask: int, bits: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Entries whose slots in ``mask`` take the values in ``bits``.

        Both arguments are bit codes over this factor's slots (slot ``j`` in
        bit ``j``; ``bits`` is zero outside ``mask``).  Returns the matching
        entry indices, the running sum of their values and their total mass
        — which is zero, with empty arrays, for an impossible pattern.
        """
        key = (mask, bits)
        cached = self._conditionals.get(key)
        if cached is None:
            keep = np.flatnonzero((self.codes() & mask) == bits)
            cumulative = np.cumsum(self.values[keep])
            total = float(cumulative[-1]) if keep.size else 0.0
            cached = self._conditionals[key] = (keep, cumulative, total)
        return cached

    def conditional(self, mask: int, bits: int) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`restricted`, for sampling: raises :class:`ProbabilityError`
        on zero conditional mass, mirroring the scalar sampler."""
        restricted = self.restricted(mask, bits)
        if restricted[2] <= 0.0:
            raise ProbabilityError(
                f"conditioning pattern (slot mask {mask:#b}, values {bits:#b}) "
                "has zero probability mass"
            )
        return restricted


@dataclass(frozen=True, eq=False)
class CompiledWorldModel:
    """A probabilistic graph compiled for array-at-a-time world sampling."""

    edges: tuple  # canonical edge-key order (graph.edge_variables())
    index: dict  # EdgeKey -> column
    factors: tuple  # CompiledFactor per graph factor, in graph order
    marginals: np.ndarray | None  # (E,) — set iff the fast path is valid
    # per column: the first factor that covers it and its slot there
    edge_factor: tuple
    edge_slot: tuple
    # per factor: None when the factor shares no edge with any other (it is
    # a connected component by itself — every factor of an edge partition)
    # and is narrow enough for bit-coded masked sums, else the ascending
    # positions of all factors in its component
    factor_group: tuple
    # per factor, the bit mask of its slots an earlier factor also covers
    # (all zero on an edge partition)
    overlap_masks: tuple
    # Z of each component with a factor_group, by first factor position;
    # filled on first use by clause_weights
    _component_z: dict = field(default_factory=dict, repr=False, compare=False)
    # the rank-space bit of each column, filled on the first mask read
    _bits: list = field(default_factory=list, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def is_independent(self) -> bool:
        """True when the graph partitions into product-form factors."""
        return self.marginals is not None

    def columns(self, keys) -> list[int]:
        """Ascending columns of edge keys; an unknown key is a :class:`ProbabilityError`."""
        try:
            return sorted(self.index[key] for key in keys)
        except KeyError:
            unknown = sorted(repr(key) for key in keys if key not in self.index)
            raise ProbabilityError(f"edges without probability factors: {unknown[:5]}") from None


_MODEL_CACHE: "WeakKeyDictionary[ProbabilisticGraph, CompiledWorldModel]" = (
    WeakKeyDictionary()
)


def compile_world_model(
    graph: "ProbabilisticGraph", allow_fast_path: bool = True
) -> CompiledWorldModel:
    """Compile (and cache) a graph's factors into the kernel representation.

    Compilation happens once per graph per process; repeated verification of
    the same candidate (different queries, different events) reuses the
    arrays.  ``allow_fast_path=False`` forces the general factor-conditioned
    sampler even for independent-product graphs (used by tests to exercise
    both paths on the same input).
    """
    if allow_fast_path:
        cached = _MODEL_CACHE.get(graph)
        if cached is not None:
            return cached
    edges = tuple(graph.edge_variables())
    index = {key: column for column, key in enumerate(edges)}
    compiled = []
    for factor in graph.factors:
        entries = list(factor.jpt.table.items())
        assignments = np.array([a for a, _ in entries], dtype=np.uint8)
        values = np.array([v for _, v in entries], dtype=np.float64)
        compiled.append(
            CompiledFactor(
                positions=np.array([index[e] for e in factor.edges], dtype=np.int64),
                assignments=assignments,
                values=values,
                cumulative=np.cumsum(values),
            )
        )
    marginals = None
    if allow_fast_path and graph.is_edge_partition():
        marginals = _independent_marginals(compiled, len(edges))
    model = CompiledWorldModel(
        edges=edges,
        index=index,
        factors=tuple(compiled),
        marginals=marginals,
        **_factor_components(compiled, len(edges)),
    )
    if allow_fast_path:
        _MODEL_CACHE[graph] = model
    return model


def _slot_bits(width: int) -> np.ndarray:
    """``[1, 2, 4, ...]``: a 0/1 slot matrix times this is its bit code."""
    return 1 << np.arange(width, dtype=np.int64)


def _marginal_table(states: np.ndarray, weights: np.ndarray, keep: list[int]) -> np.ndarray:
    """Weighted 0/1 rows summed down to their ``keep`` columns and normalised:
    entry ``c`` is the share of the rows with ``keep[j]`` at bit ``j`` of ``c``."""
    total = float(weights.sum())
    if total <= 0.0:
        raise ProbabilityError("zero partition function; the factor component is degenerate")
    codes = states[:, keep] @ _slot_bits(len(keep))
    return np.bincount(codes, weights=weights, minlength=1 << len(keep)) / total


def _factor_components(factors: list[CompiledFactor], num_edges: int) -> dict:
    """How the factors hang together through shared edge columns: the
    ``edge_factor``, ``edge_slot``, ``factor_group`` and ``overlap_masks``
    fields of :class:`CompiledWorldModel` (connected components by
    union-find)."""
    parent = list(range(len(factors)))

    def find(position: int) -> int:
        while parent[position] != position:
            parent[position] = parent[parent[position]]
            position = parent[position]
        return position

    edge_factor = [-1] * num_edges
    edge_slot = [0] * num_edges
    overlap_masks = [0] * len(factors)
    for position, cf in enumerate(factors):
        for slot, column in enumerate(cf.positions.tolist()):
            if edge_factor[column] < 0:
                edge_factor[column] = position
                edge_slot[column] = slot
            else:
                overlap_masks[position] |= 1 << slot
                parent[find(position)] = find(edge_factor[column])
    members: dict[int, list[int]] = {}
    for position in range(len(factors)):
        members.setdefault(find(position), []).append(position)
    groups = {
        root: tuple(group)
        for root, group in members.items()
        if len(group) > 1 or factors[group[0]].width > _MAX_FACTOR_WIDTH
    }
    return {
        "edge_factor": tuple(edge_factor),
        "edge_slot": tuple(edge_slot),
        "factor_group": tuple(groups.get(find(position)) for position in range(len(factors))),
        "overlap_masks": tuple(overlap_masks),
    }


def _independent_marginals(
    factors: list[CompiledFactor], num_edges: int
) -> np.ndarray | None:
    """Per-edge marginals when every factor is an independent product table."""
    marginals = np.empty(num_edges, dtype=np.float64)
    for cf in factors:
        w = cf.width
        if w > _MAX_PRODUCT_CHECK_WIDTH:
            return None
        total = cf.total
        p = (cf.values @ cf.assignments) / total  # marginal P(edge = 1) per slot
        dense = cf.dense() / total
        grid = (np.arange(1 << w)[:, None] >> np.arange(w)) & 1
        expected = np.where(grid == 1, p, 1.0 - p).prod(axis=1)
        if not np.allclose(dense, expected, rtol=1e-9, atol=1e-12):
            return None
        marginals[cf.positions] = p
    return marginals


# ----------------------------------------------------------------------
# events: rank-space masks against the model's columns
# ----------------------------------------------------------------------
def _column_bits(model: CompiledWorldModel) -> np.ndarray:
    """The mask bit of each column: ``E - 1 -`` its edge's rank, cached on the
    model (derived from ``model.edges``, it cannot disagree with the model)."""
    if not model._bits:
        model._bits.append(model.num_edges - 1 - edge_ranks(model.edges))
    return model._bits[0]


def _event_columns(model: CompiledWorldModel, masks: np.ndarray) -> np.ndarray:
    """Events as an ``(m, E)`` boolean requirement matrix over model columns."""
    return mask_bits(masks, _column_bits(model))


def _key_masks(model: CompiledWorldModel, events) -> np.ndarray:
    """Edge-key sets as mask rows, in the order given and not normalised; an
    unknown key is a :class:`ProbabilityError`."""
    columns = [model.columns(event) for event in events]
    bits = np.full((len(columns), max(map(len, columns), default=0)), -1, dtype=np.int64)
    for row, listed in enumerate(columns):
        bits[row, : len(listed)] = listed
    bits[bits >= 0] = _column_bits(model)[bits[bits >= 0]]
    return pack_bits(bits, mask_words(model.num_edges))


def event_masks(graph: "ProbabilisticGraph", events) -> np.ndarray:
    """One graph's events as its normalised mask matrix
    (:func:`repro.probability.events.normalize_masks`).

    ``events`` is an iterable of edge-key sets, encoded through the model, or a
    mask matrix already normalised — what
    :func:`~repro.isomorphism.embeddings.find_family_events_block` and this
    function return — which comes back as it is.
    """
    if isinstance(events, np.ndarray):
        return events
    return normalize_masks(_key_masks(compile_world_model(graph), events))[0]


# ----------------------------------------------------------------------
# clause weights: Pr(Bf) from the compiled model
# ----------------------------------------------------------------------
def _touched_components(model: CompiledWorldModel, columns) -> dict:
    """The factor components covering ``columns``, each by its first factor:
    the slot mask of those columns in a single-factor component, the columns
    themselves (in the order given) in a multi-factor one."""
    touched: dict = {}
    for column in columns:
        position = model.edge_factor[column]
        group = model.factor_group[position]
        if group is None:
            touched[position] = touched.get(position, 0) | 1 << model.edge_slot[column]
        else:
            touched.setdefault(group[0], []).append(column)
    return touched


def clause_weights(graph: "ProbabilisticGraph", events) -> list[float]:
    """``Pr(all edges of the event present)`` for every event, in order:
    every row of a mask matrix, or every edge-key set (none normalised).

    The ``Pr(Bf)`` of Algorithm 5.  Factors outside the components an event
    touches cancel, so the weight is a product over touched components of
    ``Z(component | event edges = 1) / Z(component)``.  The model records
    which factors stand alone and which hang together, and that picks the
    arithmetic: a single-factor component (all of an edge-partitioned graph)
    is one masked sum over the factor's table, cached per edge subset on the
    compiled factor; a multi-factor component — or a lone factor too wide
    for bit codes — goes through :class:`VariableEliminationEngine`
    restricted to that component, with its ``Z`` cached on the model.  An
    impossible event weighs 0.

    Callers treat the returned list as the clause weights of *one*
    estimator run: the Karp-Luby estimator and exact inclusion-exclusion
    take their weights from here.
    """
    model = compile_world_model(graph)
    if not isinstance(events, np.ndarray):
        events = _key_masks(model, list(events))
    engine: VariableEliminationEngine | None = None
    weights = []
    for required in _event_columns(model, events):
        touched = _touched_components(model, np.flatnonzero(required).tolist())
        weight = 1.0
        for first, hit in touched.items():
            group = model.factor_group[first]
            if group is None:
                cf = model.factors[first]
                weight *= cf.restricted(hit, hit)[2] / cf.total
            else:
                if engine is None:
                    engine = VariableEliminationEngine(graph)
                z = model._component_z.get(first)
                if z is None:
                    z = model._component_z[first] = engine.partition_function(group)
                if z <= 0:
                    raise ProbabilityError(
                        "zero partition function; the factor component is degenerate"
                    )
                evidence = {model.edges[column]: 1 for column in hit}
                weight *= engine.partition_function(group, evidence) / z
            if weight <= 0.0:
                break
        weights.append(min(1.0, max(0.0, weight)))
    return weights


# ----------------------------------------------------------------------
# exact union probability over the events' support
# ----------------------------------------------------------------------
def enumerate_factor_product(factors, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every 0/1 state of ``columns`` (row ``w`` has ``columns[c]`` present
    iff bit ``c`` of ``w`` is set) and the product of the entries the
    ``factors`` — all inside ``columns`` — hold for it: Equation 1,
    unnormalized where factors overlap."""
    local = {column: rank for rank, column in enumerate(columns)}
    states = (np.arange(1 << len(columns))[:, None] >> np.arange(len(columns)) & 1).astype(bool)
    weights = np.ones(states.shape[0])
    for cf in factors:
        own = [local[column] for column in cf.positions.tolist()]
        weights *= cf.dense()[states[:, own] @ _slot_bits(cf.width)]
    return states, weights


def support_union_probability(graph: "ProbabilisticGraph", events) -> float | None:
    """``Pr(∪ events)`` exactly, by one weighted enumeration of the events'
    support — None when that is wider than :data:`EXACT_SUPPORT_LIMIT`.

    ``events``: what :func:`event_masks` takes.  Factor components are
    independent, so the joint over the columns the
    (normalised) events mention is an outer product of one table per touched
    component, in ascending first-factor order: a single-factor component's
    :meth:`CompiledFactor.marginal`; a multi-factor component's factor
    product over *all* its columns — they all count towards the width —
    divided by its sum and summed down to the mentioned ones.  An event is a
    state of that joint (one matrix product maps every row to its state) and
    the answer is the mass of the states that contain any event's.  A pure
    function of (graph, events): nothing is drawn.
    """
    masks = event_masks(graph, events)
    model = compile_world_model(graph)
    required = _event_columns(model, masks)
    touched = _touched_components(model, np.flatnonzero(required.any(axis=0)).tolist())
    width, whole = 0, {}  # whole: every column of a touched multi-factor component
    for first, hit in touched.items():
        group = model.factor_group[first]
        if group is not None:
            whole[first] = sorted({c for f in group for c in model.factors[f].positions.tolist()})
        width += hit.bit_count() if group is None else len(whole[first])
    if width > EXACT_SUPPORT_LIMIT:
        return None
    joint_columns: list[int] = []  # the column of each bit of a joint state
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
        joint_columns += mentioned
        joint = np.multiply.outer(table, joint).ravel()
    satisfied = np.zeros(joint.size, dtype=bool)
    satisfied[required[:, joint_columns] @ _slot_bits(len(joint_columns))] = True
    # upward closure: a state holds an event iff it holds the event's state
    for bit in range(len(joint_columns)):
        halves = satisfied.reshape(-1, 2, 1 << bit)
        halves[:, 1] |= halves[:, 0]
    return min(1.0, max(0.0, float(joint[satisfied].sum())))


class BatchWorldSampler:
    """Draws many possible worlds of one graph as an ``S x E`` boolean matrix.

    Independent-product graphs take one uniform-matrix compare; correlated
    graphs walk factors in graph order, condition each JPT on the
    already-assigned overlap/evidence columns, and draw each
    conditioning-pattern group with one categorical batch.  The draw order
    is canonical (see the module docstring), so equal generators yield equal
    matrices in every process.
    """

    def __init__(self, source) -> None:
        if isinstance(source, CompiledWorldModel):
            self.model = source
        else:
            self.model = compile_world_model(source)

    def sample_presence(
        self,
        generator: np.random.Generator,
        num_samples: int,
        evidence=None,
    ) -> np.ndarray:
        """``(num_samples, num_edges)`` boolean edge-presence matrix.

        ``evidence`` maps edge keys to forced 0/1 values, shared by every
        row — the one-pattern case of the routine the Karp-Luby estimator
        drives with one evidence pattern per row.  Raises
        :class:`ProbabilityError` when the evidence is impossible under some
        factor, mirroring the scalar sampler.
        """
        model = self.model
        if num_samples < 0:
            raise ConfigurationError(f"num_samples must be >= 0, got {num_samples!r}")
        known = np.zeros((1, model.num_edges), dtype=bool)
        values = np.zeros((1, model.num_edges), dtype=bool)
        for key, value in (evidence or {}).items():
            if value not in (0, 1):
                raise ProbabilityError(
                    f"evidence values must be 0/1, got {dict(evidence)!r}"
                )
            known[0, model.index[key]] = True
            values[0, model.index[key]] = bool(value)
        which = np.zeros(num_samples, dtype=np.intp)
        return _draw_worlds(model, generator, known, values, which)


def _draw_worlds(
    model: CompiledWorldModel,
    generator: np.random.Generator,
    known: np.ndarray,
    values: np.ndarray,
    which: np.ndarray,
    read_columns: np.ndarray | None = None,
) -> np.ndarray:
    """One world per row, each row conditioned on its own evidence pattern.

    ``known`` / ``values`` are ``(k, E)`` boolean tables of evidence
    patterns — the edges a pattern fixes and their 0/1 values (read only
    where ``known``) — and row ``s`` of the result is drawn given pattern
    ``which[s]``.  This is the kernel's only sampling loop: the independent
    fast path is one uniform-matrix compare; the general path walks the
    factors once and, per factor, groups the rows by conditioning pattern —
    which slots are known (row evidence, or any edge an earlier overlapping
    factor assigned) and their values — drawing one categorical batch per
    (factor, pattern) in ascending pattern-code order.

    ``read_columns`` (ascending) names the only columns the caller will
    read.  Factor components are independent of each other, so the general
    path then skips every component covering none of them, leaving those
    columns at their evidence fill.
    """
    num_rows = which.size
    fixed = known & values
    if model.is_independent:
        marginals = model.marginals
        used = np.unique(which)  # a pattern no row carries conditions nothing
        impossible = (fixed[used] & (marginals <= 0.0)) | (
            known[used] & ~values[used] & (marginals >= 1.0)
        )
        if impossible.any():
            column = int(np.flatnonzero(impossible.any(axis=0))[0])
            raise ProbabilityError(
                f"evidence on edge {model.edges[column]!r} has zero probability"
            )
        present = generator.random((num_rows, model.num_edges)) < marginals
        return np.where(known[which], values[which], present)

    drawn = range(len(model.factors))
    if read_columns is not None:
        touched = _touched_components(model, read_columns.tolist())
        drawn = sorted({f for first in touched for f in model.factor_group[first] or (first,)})
    worlds = fixed.view(np.uint8)[which]
    for position in drawn:
        cf = model.factors[position]
        columns, width = cf.positions, cf.width
        if width > _MAX_FACTOR_WIDTH:
            raise ConfigurationError(
                f"factor over {width} edges is wider than the batch sampler "
                f"supports ({_MAX_FACTOR_WIDTH})"
            )
        overlap = model.overlap_masks[position]
        # conditioning pattern per row: the known-slot mask and the known
        # values as bit codes (slot j in bit j), packed side by side
        slot_bits = _slot_bits(width)
        masks = (known[:, columns] @ slot_bits)[which] | overlap
        if overlap:  # values of overlap slots come from the earlier draws
            bits = (worlds[:, columns] @ slot_bits) & masks
        else:
            bits = (fixed[:, columns] @ slot_bits)[which]
        codes = (masks << width) | bits
        full_mask = (1 << width) - 1
        for code in np.unique(codes).tolist():
            mask, known_bits = code >> width, code & full_mask
            if mask == full_mask:
                continue  # every edge of the factor is already known
            rows = np.flatnonzero(codes == code)
            keep, cumulative, total = cf.conditional(mask, known_bits)
            picks = generator.random(rows.size) * total
            entry = keep[_categorical(cumulative, picks)]
            pending = [slot for slot in range(width) if not mask >> slot & 1]
            worlds[rows[:, None], columns[pending]] = cf.assignments[entry][:, pending]
    return worlds.view(bool)


def _categorical(cumulative: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """First index with ``cumulative >= pick`` — ``Factor.sample`` semantics."""
    return np.minimum(
        np.searchsorted(cumulative, picks, side="left"), cumulative.size - 1
    )


# ----------------------------------------------------------------------
# the batched Karp-Luby coverage estimator (Algorithm 5)
# ----------------------------------------------------------------------
def compile_events(model: CompiledWorldModel, events) -> np.ndarray:
    """Edge-key sets as an ``(m, E)`` boolean requirement matrix over model
    columns: the PMI's witness events, which the index build compiles without
    touching a mask table (the estimator reads its masks instead)."""
    required = np.zeros((len(events), model.num_edges), dtype=bool)
    for row, event in enumerate(events):
        for key in event:
            required[row, model.index[key]] = True
    return required


def estimate_union_probability_batch(
    graph: "ProbabilisticGraph",
    events,
    xi: float = DEFAULT_XI,
    tau: float = DEFAULT_TAU,
    num_samples: int | None = None,
    rng: RandomLike = None,
) -> float:
    """Batched Karp-Luby coverage estimate of the union probability (Algorithm 5).

    The paper's pseudo-code returns ``Cnt/N``; the unbiased coverage
    estimator is ``V * Cnt / N`` with ``V = Σ Pr(Bfi)`` (:func:`clause_weights`),
    which is what this returns, clamped to [0, 1].  Every per-sample step is
    an array operation and the draw order is the kernel's canonical one
    (module docstring).  The sample count defaults to ``(4 ln(2/ξ)) / τ²``;
    ``events``: what :func:`event_masks` takes.
    """
    check_sample_count(num_samples)
    masks = event_masks(graph, events)
    if not len(masks):
        return 0.0
    generator = ensure_rng(rng)
    weights = clause_weights(graph, masks)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return 0.0
    n = num_samples if num_samples is not None else monte_carlo_sample_size(xi, tau)
    model = compile_world_model(graph)
    required = _event_columns(model, masks)
    count = _count_canonical(model, required, weights, total_weight, n, generator)
    estimate = total_weight * count / n
    return min(1.0, max(0.0, estimate))


def _canonical_clause_count(
    worlds: np.ndarray, required: np.ndarray, chosen: np.ndarray
) -> int:
    """Samples whose chosen event is the first event their world satisfies.

    ``(~worlds) @ required.T`` is a boolean matrix product: entry ``(s, j)``
    is True iff some edge event ``j`` requires is absent in world ``s`` — so
    event ``j`` covers world ``s`` exactly when the entry is False.  Row
    ``s`` was conditioned on event ``chosen[s]``, which therefore covers it;
    the sample counts when no *earlier* event does (the canonical-clause
    check of Algorithm 5, vectorized).
    """
    missing_any = ~worlds @ required.T
    first_covered = missing_any.argmin(axis=1)
    return int((first_covered == chosen).sum())


def _count_canonical(model, required, weights, total_weight, n, generator):
    """Canonical draw order: event picks first, then one world batch."""
    np_generator = numpy_generator(generator)
    cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))
    picks = np_generator.random(n) * total_weight
    chosen = _categorical(cumulative, picks)
    # row s is conditioned on containing every edge of event chosen[s]; only
    # the columns some event requires are ever read back, and skipping the
    # factor components outside them is most of a correlated estimate's cost
    # (verify_heavy query_p50_ms 12.9 ms without the skip, 7.2 ms with it)
    read = np.flatnonzero(required.any(axis=0))
    worlds = _draw_worlds(model, np_generator, required, required, chosen, read)
    return _canonical_clause_count(worlds[:, read], required[:, read], chosen)
