"""Reference implementations the tests and benchmarks compare production against.

* :mod:`repro.reference.vf2` — the recursive VF2 matcher (:class:`VF2Matcher`)
  and the existence and embedding oracles built on it, held equal to the
  generic join;
* :mod:`repro.reference.events` — events as frozensets of edge keys, their
  :func:`normalize_events` / :func:`canonical_event_key`, and
  :func:`mask_events`, which decodes a mask matrix into them: the oracle of
  the mask normaliser in :mod:`repro.probability.events`;
* :mod:`repro.reference.sampling` — the scalar :class:`WorldSampler`, the
  one-world-at-a-time Karp-Luby estimator and its replay through the batch
  kernel's arrays, held equal (bit for bit) or close (in distribution) to
  :mod:`repro.probability.batch_kernel`.

No production module imports this package (a test walks ``src/repro`` to
hold that).
"""

from repro.reference.events import (
    NormalizedEvents,
    canonical_event_key,
    mask_events,
    normalize_events,
)
from repro.reference.sampling import (
    WorldSampler,
    estimate_union_probability,
    replay_union_probability,
)
from repro.reference.vf2 import VF2Matcher, vf2_embeddings, vf2_exists

__all__ = [
    "NormalizedEvents",
    "VF2Matcher",
    "WorldSampler",
    "canonical_event_key",
    "estimate_union_probability",
    "mask_events",
    "normalize_events",
    "replay_union_probability",
    "vf2_embeddings",
    "vf2_exists",
]
