"""Unit tests for joint probability tables (correlated and independent)."""

from __future__ import annotations

import pytest

from repro.exceptions import ProbabilityError
from repro.probability import JointProbabilityTable


class TestValidation:
    def test_must_sum_to_one(self):
        with pytest.raises(ProbabilityError):
            JointProbabilityTable(("x",), {(0,): 0.3, (1,): 0.3})

    def test_normalize_flag_rescales(self):
        jpt = JointProbabilityTable(("x",), {(0,): 1.0, (1,): 3.0}, normalize=True)
        assert jpt.value({"x": 1}) == pytest.approx(0.75)

    def test_zero_mass_rejected(self):
        with pytest.raises(ProbabilityError):
            JointProbabilityTable(("x",), {(0,): 0.0}, normalize=True)


class TestIndependentConstruction:
    def test_marginals_preserved(self):
        jpt = JointProbabilityTable.from_independent_marginals({"a": 0.2, "b": 0.9})
        assert jpt.edge_marginal("a") == pytest.approx(0.2)
        assert jpt.edge_marginal("b") == pytest.approx(0.9)
        assert jpt.is_normalized()

    def test_joint_value_is_product(self):
        jpt = JointProbabilityTable.from_independent_marginals({"a": 0.5, "b": 0.5})
        assert jpt.value({"a": 1, "b": 0}) == pytest.approx(0.25)

    def test_rejects_bad_marginal(self):
        with pytest.raises(ProbabilityError):
            JointProbabilityTable.from_independent_marginals({"a": 1.4})


class TestMaxDominanceConstruction:
    def test_table_is_normalized(self):
        jpt = JointProbabilityTable.from_max_dominance({"a": 0.6, "b": 0.3, "c": 0.8})
        assert jpt.is_normalized()

    def test_single_edge_reduces_to_bernoulli(self):
        jpt = JointProbabilityTable.from_max_dominance({"a": 0.7})
        assert jpt.edge_marginal("a") == pytest.approx(0.7)

    def test_assignments_weighted_by_strongest_member(self):
        # With p(a)=0.9 and p(b)=0.5 every assignment containing a=1 gets raw
        # weight at least 0.9, so worlds where the strong edge is present
        # dominate the normalized table.
        jpt = JointProbabilityTable.from_max_dominance({"a": 0.9, "b": 0.5})
        present = jpt.value({"a": 1, "b": 1}) + jpt.value({"a": 1, "b": 0})
        absent = jpt.value({"a": 0, "b": 1}) + jpt.value({"a": 0, "b": 0})
        assert present > absent

    def test_introduces_correlation(self):
        # the max-dominance joint is not the product of its own marginals
        jpt = JointProbabilityTable.from_max_dominance({"a": 0.8, "b": 0.2})
        pa = jpt.edge_marginal("a")
        pb = jpt.edge_marginal("b")
        joint_present = jpt.value({"a": 1, "b": 1})
        assert joint_present != pytest.approx(pa * pb, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ProbabilityError):
            JointProbabilityTable.from_max_dominance({})
