"""A graph's possible worlds as arrays: the world collection the PMI build
measures every SIP bound of one row over.

:class:`WorldBatch` is ``S`` worlds as rows of a boolean presence matrix over
a compiled world model's edge columns, with one weight per world.
:func:`sample_world_batch` fills it with a Monte-Carlo draw of the batch
kernel (unit weights — Algorithm 3's shared batch);
:func:`enumerate_world_batch` with all ``2^E`` worlds and their product
weights (small graphs: tests and the exact baseline).  Consumers treat the
two alike, which is what gives the bound arithmetic one path instead of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import VerificationError
from repro.probability.batch_kernel import (
    _MODEL_CACHE,
    BatchWorldSampler,
    CompiledWorldModel,
    compile_world_model,
    enumerate_factor_product,
)
from repro.utils.rng import RandomLike, numpy_generator

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.graphs.probabilistic_graph import ProbabilisticGraph

__all__ = ["WorldBatch", "enumerate_world_batch", "sample_world_batch"]


@dataclass(frozen=True, eq=False)
class WorldBatch:
    """``S`` worlds of one graph and the weight each carries."""

    model: CompiledWorldModel  # names the columns of ``presence``
    presence: np.ndarray  # (S, E) bool
    weights: np.ndarray  # (S,) float64, unnormalized


def _compile_unretained(graph: "ProbabilisticGraph") -> CompiledWorldModel:
    """The graph's compiled model, without leaving it in the kernel's cache.

    An index build compiles every graph of the database once; retained, the
    models would hold ~37 KB per indexed graph for the sake of the few graphs
    a query later verifies (a ~1 ms compile when that happens).  A model some
    query already cached is reused and stays cached.
    """
    retained = graph in _MODEL_CACHE
    model = compile_world_model(graph)
    if not retained:
        _MODEL_CACHE.pop(graph, None)
    return model


def sample_world_batch(
    graph: "ProbabilisticGraph", num_samples: int, rng: RandomLike = None
) -> WorldBatch:
    """``num_samples`` worlds in the batch kernel's canonical draw order.

    ``rng`` is collapsed into one numpy generator
    (:func:`~repro.utils.rng.numpy_generator`), so the batch is a pure
    function of (stream, graph).  Raises :class:`ConfigurationError` for a
    factor wider than the batch sampler's conditioning-pattern code.
    """
    model = _compile_unretained(graph)
    presence = BatchWorldSampler(model).sample_presence(numpy_generator(rng), num_samples)
    return WorldBatch(model, presence, np.ones(num_samples))


def enumerate_world_batch(graph: "ProbabilisticGraph", max_edges: int) -> WorldBatch:
    """All ``2^E`` worlds, each weighted by the product of its factor entries
    (Equation 1; unnormalized where factors overlap).  World ``w`` has edge
    column ``c`` present iff bit ``c`` of ``w`` is set."""
    model = _compile_unretained(graph)
    if model.num_edges > max_edges:
        raise VerificationError(
            f"refusing to enumerate 2**{model.num_edges} possible worlds; "
            f"limit is 2**{max_edges}"
        )
    presence, weights = enumerate_factor_product(
        model.factors, list(range(model.num_edges))
    )
    return WorldBatch(model, presence, weights)
