"""Random-number-generator helpers and the per-graph stream registry.

Every stochastic entry point in the library accepts either ``None`` (use a
fresh default generator), an integer seed, or an existing
:class:`random.Random` instance.  :func:`ensure_rng` normalizes the three
forms so internal code always works with a ``random.Random``.

**Stream derivation.**  Reproducibility across batching, candidate order,
and — since the mutable catalog — database mutation rests on one rule: every
stochastic per-graph task draws from ``derive_rng(root, STREAM, graph_id)``
where ``graph_id`` is the graph's *stable external id* (for a static
database that is simply its row position), never its current row position or
visit order.  The stream tags below are the canonical registry; modules
re-export the ones they use.  Because streams are keyed by stable id, a
graph keeps the same random draws when it is verified in another block,
the database is mutated around it, or compacted — which is what makes catalog answers
byte-identical to a from-scratch rebuild.
"""

from __future__ import annotations

import random

import numpy as np

RandomLike = random.Random | int | None

# Canonical stream tags for derive_rng(root, STREAM, stable graph id).
# PRUNE/VERIFY are consumed at query time (core.pipeline), BUILD at index
# time (pmi.index and the catalog's appended rows).
PRUNE_STREAM = 1
VERIFY_STREAM = 2
BUILD_STREAM = 3


def ensure_rng(rng: RandomLike = None) -> random.Random:
    """Return a :class:`random.Random` for any accepted ``rng`` argument.

    Parameters
    ----------
    rng:
        ``None`` for a nondeterministic generator, an ``int`` seed for a
        reproducible generator, or an existing ``random.Random`` which is
        returned unchanged.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool):  # bool is an int subclass; reject it explicitly
        raise TypeError("rng must be None, an int seed, or a random.Random instance")
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(f"rng must be None, an int seed, or a random.Random instance, got {rng!r}")


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def rng_root(rng: RandomLike = None) -> int:
    """Collapse any accepted ``rng`` argument into a 64-bit root seed.

    The root is the anchor of the per-item stream derivation used by the
    planner and the sharded executor: every stochastic sub-task derives its
    own generator as ``derive_rng(root, *salts)``, so results depend only on
    ``(root, salts)`` — never on how work was ordered or partitioned across
    shards and worker processes.

    ``None`` draws a fresh nondeterministic root; an ``int`` seed maps to
    itself (masked to 64 bits), so re-passing the same seed reproduces the
    same streams; a ``random.Random`` instance is consumed for one 64-bit
    draw, preserving sequential-consumption semantics across a batch.
    """
    if rng is None:
        return random.Random().getrandbits(64)
    if isinstance(rng, random.Random):
        return rng.getrandbits(64)
    if isinstance(rng, bool):
        raise TypeError("rng must be None, an int seed, or a random.Random instance")
    if isinstance(rng, int):
        return rng & _MASK64
    raise TypeError(f"rng must be None, an int seed, or a random.Random instance, got {rng!r}")


def derive_seed(root: int, *salts: int) -> int:
    """Stable 64-bit seed for the sub-stream ``(root, salts)``.

    A splitmix64-style finalizer mixes each salt in turn, so nearby salts
    (consecutive graph ids, stage tags) give statistically unrelated seeds.
    The function is pure: the same ``(root, salts)`` yields the same seed in
    every process, which is what makes sharded execution bit-reproducible.
    """
    state = root & _MASK64
    for salt in salts:
        state = (state + _GOLDEN + (salt & _MASK64)) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


def derive_rng(root: int, *salts: int) -> random.Random:
    """A fresh generator for the sub-stream ``(root, salts)``."""
    return random.Random(derive_seed(root, *salts))


def numpy_generator(rng: RandomLike = None) -> np.random.Generator:
    """One canonical numpy :class:`~numpy.random.Generator` from a stream.

    Consumes exactly one 64-bit draw from ``rng`` (after :func:`ensure_rng`
    normalization) and seeds a PCG64 generator with it.  This is how the
    batch verification kernel anchors its vectorized draw order on the same
    per-graph streams (``derive_rng(root, VERIFY_STREAM, stable graph id)``)
    the scalar pipeline uses: equal streams yield equal generators, and
    therefore equal sample matrices, in every process and execution
    strategy.
    """
    return np.random.Generator(np.random.PCG64(ensure_rng(rng).getrandbits(64)))
