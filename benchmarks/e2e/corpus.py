"""Workload profiles, the pinned corpus, and the seeded request stream.

The corpus (database graphs, query templates in their order, arriving graphs)
is generated from ``CORPUS_SEED``, a constant: it plays the role the fixed
STRING dataset plays in the paper.  ``--seed`` gives every request its
Monte-Carlo root, so the same seed gives the same inputs.  The split is
deliberate: regenerating the corpus per seed moved the mean query cost by
+-12 % between seeds on identical code, and shuffling the request order per
seed moved ``service_mixed``'s median latency by +-10 % (which requests share
a batch, which repeat) — more than any bound this benchmark could then
enforce (README, "Corpus and seed").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.core import SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.pmi import BoundConfig, FeatureSelectionConfig

from benchmarks.e2e.measure import now

CORPUS_SEED = 20120827
BUILD_SEED = 20120831  # index build root, shared by systems and parity twins
ARRIVAL_ID_BASE = 1_000_000  # external ids of graphs added by the mutation schedule
TOP_K_CHOICES = (1, 2, 4)

FEATURE_CONFIG = FeatureSelectionConfig(max_vertices=3, max_features=16)
BOUND_CONFIG = BoundConfig(num_samples=60)


@dataclass(frozen=True)
class Profile:
    """Sizes of one workload.  Shapes are fixed by the issue; counts are tuned
    so that a round takes about a second: three set-ups, a warm-up round and
    twelve or more measured rounds then fit the driver's per-run budget, and
    the median across rounds has enough rounds to stand on (README, "Rounds")."""

    name: str
    graphs: int
    families: int
    query_edges: int
    templates: int  # distinct query templates replayed every round
    epsilon: float
    delta: int
    samples: int  # Karp-Luby samples per verified candidate
    top_k_every: int  # every n-th template is a top-k query; 0 = none
    shards: int
    workers: int  # pool processes; 0 = shards run in-process
    triples: int  # remove/add/update triples per round (net-zero)

    @property
    def search_config(self) -> SearchConfig:
        return SearchConfig(
            verification=VerificationConfig(method="sampling", num_samples=self.samples)
        )


PROFILES = {
    "verify_heavy": Profile("verify_heavy", 100, 4, 5, 12, 0.3, 2, 1000, 0, 1, 0, 2),
    "filter_heavy": Profile("filter_heavy", 200, 8, 6, 12, 0.6, 1, 100, 4, 2, 2, 2),
    "service_mixed": Profile("service_mixed", 100, 4, 5, 36, 0.4, 1, 200, 5, 2, 0, 1),
    "catalog_churn": Profile("catalog_churn", 100, 4, 5, 15, 0.4, 1, 200, 0, 2, 2, 1),
}
WORKLOADS = tuple(PROFILES)


def profile_for(name: str, smoke: bool) -> Profile:
    profile = PROFILES[name]
    if not smoke:
        return profile
    return replace(
        profile,
        graphs=12,
        families=2,
        templates=8,
        samples=min(profile.samples, 60),
        triples=1,
    )


@dataclass(frozen=True)
class Request:
    kind: str  # "query" (T-PS) or "top_k"
    query: object
    param: float  # epsilon for "query", k for "top_k"
    root: int  # this request's Monte-Carlo root


@dataclass
class Corpus:
    profile: Profile
    graphs: list
    templates: list[tuple[str, object, float]]
    arrivals: list  # 2 * triples graphs: the first half is added, the second replaces victims
    victims: list[int]  # external ids updated every round
    generate_s: float


def build_corpus(name: str, smoke: bool) -> Corpus:
    profile = profile_for(name, smoke)
    salt = WORKLOADS.index(name)
    started = now()
    dataset = PPIDatasetConfig(
        num_graphs=profile.graphs,
        num_families=profile.families,
        vertices_per_graph=10 if smoke else 30,
        edges_per_graph=13 if smoke else 45,
        motif_vertices=3 if smoke else 5,
        motif_edges=3 if smoke else 6,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    )
    graphs = generate_ppi_database(dataset, rng=CORPUS_SEED + salt).graphs
    arrivals = generate_ppi_database(
        replace(dataset, num_graphs=2 * profile.triples), rng=CORPUS_SEED + 100 + salt
    ).graphs
    queries = generate_query_workload(
        graphs,
        query_size=min(profile.query_edges, 4) if smoke else profile.query_edges,
        num_queries=profile.templates,
        rng=CORPUS_SEED + 200 + salt,
    ).queries()
    templates = []
    for index, query in enumerate(queries):
        if profile.top_k_every and index % profile.top_k_every == profile.top_k_every - 1:
            k = TOP_K_CHOICES[(index // profile.top_k_every) % len(TOP_K_CHOICES)]
            templates.append(("top_k", query, k))
        else:
            templates.append(("query", query, profile.epsilon))
    victims = [
        (slot + 1) * profile.graphs // (profile.triples + 1) for slot in range(profile.triples)
    ]
    return Corpus(profile, graphs, templates, arrivals, victims, now() - started)


def build_requests(corpus: Corpus, seed: int) -> list[Request]:
    """The round's request list: every template once, in corpus order, each
    with its own seeded root.  Every round replays exactly this list."""
    stream = random.Random(seed)
    return [Request(*template, root=stream.getrandbits(48)) for template in corpus.templates]


def mutation_schedule(corpus: Corpus) -> list[tuple[str, int, object]]:
    """One round's mutations, net-zero: each triple removes the graph the
    previous round added under that id, adds it again, and replaces a victim.
    The live (id -> graph) state is therefore the same at the same point of
    every round, which is what lets answers be compared byte for byte."""
    triples = corpus.profile.triples
    ops = []
    for slot in range(triples):
        ops.append(("remove", ARRIVAL_ID_BASE + slot, None))
        ops.append(("add", ARRIVAL_ID_BASE + slot, corpus.arrivals[slot]))
        ops.append(("update", corpus.victims[slot], corpus.arrivals[triples + slot]))
    return ops
