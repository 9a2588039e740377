"""Reference implementations the tests and benchmarks compare production against.

* :mod:`repro.reference.vf2` — the recursive VF2 matcher (:class:`VF2Matcher`)
  and the existence and embedding oracles built on it, held equal to the
  generic join;
* :mod:`repro.reference.sampling` — the scalar :class:`WorldSampler`, the
  one-world-at-a-time Karp-Luby estimator and its replay through the batch
  kernel's arrays, held equal (bit for bit) or close (in distribution) to
  :mod:`repro.probability.batch_kernel`.

No production module imports this package (a test walks ``src/repro`` to
hold that).
"""

from repro.reference.sampling import (
    WorldSampler,
    estimate_union_probability,
    replay_union_probability,
)
from repro.reference.vf2 import VF2Matcher, vf2_embeddings, vf2_exists

__all__ = [
    "VF2Matcher",
    "WorldSampler",
    "estimate_union_probability",
    "replay_union_probability",
    "vf2_embeddings",
    "vf2_exists",
]
