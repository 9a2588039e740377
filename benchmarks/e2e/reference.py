"""A fixed piece of work that tells how fast the box is right now.

The shared box slows every process down by 1.2-1.5x in phases that last from
a third of a second to several minutes (README, "Noise").  The phases are
multiplicative: wall time, CPU time, queries, mutations and recovery all
stretch by about the same factor, and so does this kernel when it runs right
before and right after a round.  Dividing a round's timings by the kernel's
own slowdown takes the phase out and leaves the program's cost at reference
speed; over two sets of ten runs that cut the run-to-run quartile distance of
the round metrics from a median of 0.056 to 0.036 (README, "Reference speed").

The kernel shares no code with the program (a change to ``src/`` cannot move
it) but does the same kinds of work: a pure-Python walk over a small graph
that allocates tuples and probes dicts and sets, then NumPy sampling of
possible worlds with a boolean test per embedding, Karp-Luby style.  Its
inputs are constants.
"""

from __future__ import annotations

import numpy as np

from benchmarks.e2e.measure import median, now

REFERENCE_SECONDS = 0.0100  # one kernel run on this box (2 vCPU sandbox) when nothing disturbs it
SAMPLES = 3  # kernel runs on each side of a round

_VERTICES, _EDGES, _PATH_EDGES, _EMBEDDINGS, _WORLDS, _REPEATS = 30, 45, 5, 64, 1000, 12


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20120827)
        edges: list[tuple[int, int]] = []
        while len(edges) < _EDGES:
            a, b = (int(v) for v in rng.integers(0, _VERTICES, size=2))
            if a != b and (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
        self.adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(_VERTICES)}
        for index, (a, b) in enumerate(edges):
            self.adjacency[a].append((b, index))
            self.adjacency[b].append((a, index))
        self.presence = rng.uniform(0.35, 0.75, size=_EDGES)

    def run(self) -> float:
        """Do the fixed work once; returns its wall time in seconds."""
        started = now()
        paths = set()
        for root in self.adjacency:
            stack = [(root, (root,), ())]
            while stack:
                vertex, seen, used = stack.pop()
                if len(used) == _PATH_EDGES:
                    paths.add(tuple(sorted(used)))
                    continue
                for neighbour, edge in self.adjacency[vertex]:
                    if neighbour not in seen:
                        stack.append((neighbour, (*seen, neighbour), (*used, edge)))
        embeddings = [list(path) for path in sorted(paths)[:_EMBEDDINGS]]
        rng = np.random.default_rng(7)
        for _ in range(_REPEATS):
            worlds = rng.random((_WORLDS, _EDGES)) < self.presence
            union = np.zeros(_WORLDS, dtype=bool)
            for embedding in embeddings:
                union |= worlds[:, embedding].all(axis=1)
            if not 0.0 < float(union.mean()) <= 1.0:  # consume the result
                raise AssertionError("reference kernel computed nonsense")
        return now() - started

    def samples(self) -> list[float]:
        return [self.run() for _ in range(SAMPLES)]


def slowdown(before: list[float], after: list[float]) -> float:
    """How much slower than reference speed the box ran around a round."""
    return median(before + after) / REFERENCE_SECONDS
