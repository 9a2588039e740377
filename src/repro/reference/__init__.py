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
  :mod:`repro.probability.batch_kernel`;
* :mod:`repro.reference.worlds` — possible-world semantics by enumeration:
  :func:`factor_probability`, :func:`world_weight`, :func:`world_graph`,
  :func:`enumerate_possible_worlds`,
  the exact SIP and ``Pr(q ⊆sim g)`` read off the worlds;
* :mod:`repro.reference.mcs` — subgraph distance by search (Definitions 7
  and 8) and the scalar signature bound the structural index's postings are
  held equal to;
* :mod:`repro.reference.set_cover` — the optimal weighted set cover the
  greedy ``Usim`` cover is checked against;
* :mod:`repro.reference.neighbor_edges` — Definition 1's
  :func:`is_neighbor_edge_set`, which every set of the neighbor-edge
  partition must satisfy.

No production module imports this package (a test walks ``src/repro`` to
hold that).
"""

from repro.reference.events import (
    NormalizedEvents,
    canonical_event_key,
    mask_events,
    normalize_events,
)
from repro.reference.mcs import (
    is_subgraph_similar,
    maximum_common_subgraph_size,
    signature_distance_lower_bound,
    subgraph_distance,
)
from repro.reference.sampling import (
    WorldSampler,
    estimate_union_probability,
    replay_union_probability,
)
from repro.reference.neighbor_edges import is_neighbor_edge_set
from repro.reference.set_cover import exhaustive_weighted_set_cover
from repro.reference.vf2 import VF2Matcher, vf2_embeddings, vf2_exists
from repro.reference.worlds import (
    PossibleWorld,
    enumerate_possible_worlds,
    exact_sip,
    factor_probability,
    similarity_probability_by_enumeration,
    total_world_mass,
    world_graph,
    world_weight,
)

__all__ = [
    "NormalizedEvents",
    "PossibleWorld",
    "VF2Matcher",
    "WorldSampler",
    "canonical_event_key",
    "enumerate_possible_worlds",
    "estimate_union_probability",
    "exact_sip",
    "exhaustive_weighted_set_cover",
    "factor_probability",
    "is_neighbor_edge_set",
    "is_subgraph_similar",
    "mask_events",
    "maximum_common_subgraph_size",
    "normalize_events",
    "replay_union_probability",
    "signature_distance_lower_bound",
    "similarity_probability_by_enumeration",
    "subgraph_distance",
    "total_world_mass",
    "vf2_embeddings",
    "vf2_exists",
    "world_graph",
    "world_weight",
]
