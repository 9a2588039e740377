"""Probability engine: joint probability tables, factor algebra, variable
elimination, batched possible-world sampling and Karp-Luby DNF estimation."""

from repro.probability.factors import Factor
from repro.probability.jpt import JointProbabilityTable
from repro.probability.junction_tree import VariableEliminationEngine
from repro.probability.sampling import monte_carlo_sample_size
from repro.probability.dnf import exact_union_probability
from repro.probability.batch_kernel import (
    BatchWorldSampler,
    compile_world_model,
    estimate_union_probability_batch,
)

__all__ = [
    "Factor",
    "JointProbabilityTable",
    "VariableEliminationEngine",
    "BatchWorldSampler",
    "compile_world_model",
    "monte_carlo_sample_size",
    "estimate_union_probability_batch",
    "exact_union_probability",
]
