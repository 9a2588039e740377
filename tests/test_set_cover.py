"""Tests for the greedy and exhaustive weighted set cover (tightest Usim)."""

from __future__ import annotations

import pytest

from repro.core.set_cover import SetCoverSolution, WeightedSet, greedy_weighted_set_cover
from repro.reference import exhaustive_weighted_set_cover


def ws(set_id, members, weight):
    return WeightedSet(set_id=set_id, members=frozenset(members), weight=weight)


class TestGreedy:
    def test_paper_example3(self):
        """Figure 5: s1={rq1,rq2} w=0.4, s2={rq2,rq3} w=0.1, s3={rq1,rq3} w=0.5.

        The possible covers weigh 0.5 (s1+s2), 0.9 (s1+s3) and 0.6 (s2+s3);
        the tightest Usim is 0.5.
        """
        universe = {"rq1", "rq2", "rq3"}
        sets = [
            ws(1, {"rq1", "rq2"}, 0.4),
            ws(2, {"rq2", "rq3"}, 0.1),
            ws(3, {"rq1", "rq3"}, 0.5),
        ]
        solution = greedy_weighted_set_cover(universe, sets)
        assert solution.covered
        assert solution.total_weight == pytest.approx(0.5)
        assert set(solution.chosen_ids) == {1, 2}

    def test_single_set_cover(self):
        solution = greedy_weighted_set_cover({"a", "b"}, [ws(1, {"a", "b"}, 0.3)])
        assert solution.covered
        assert solution.chosen_ids == (1,)

    def test_uncoverable_universe(self):
        solution = greedy_weighted_set_cover({"a", "b"}, [ws(1, {"a"}, 0.3)])
        assert not solution.covered
        assert solution.chosen_ids == (1,)

    def test_no_candidates(self):
        solution = greedy_weighted_set_cover({"a"}, [])
        assert not solution.covered

    def test_empty_universe_is_trivially_covered(self):
        solution = greedy_weighted_set_cover(set(), [ws(1, {"a"}, 0.5)])
        assert solution.covered
        assert solution.total_weight == 0.0

    def test_greedy_prefers_cheap_per_element_sets(self):
        universe = {1, 2, 3, 4}
        sets = [
            ws(1, {1, 2, 3, 4}, 1.0),
            ws(2, {1, 2}, 0.1),
            ws(3, {3, 4}, 0.1),
        ]
        solution = greedy_weighted_set_cover(universe, sets)
        assert set(solution.chosen_ids) == {2, 3}
        assert solution.total_weight == pytest.approx(0.2)


class TestExhaustive:
    def test_matches_greedy_on_easy_instance(self):
        universe = {"x", "y"}
        sets = [ws(1, {"x"}, 0.2), ws(2, {"y"}, 0.2), ws(3, {"x", "y"}, 0.5)]
        greedy = greedy_weighted_set_cover(universe, sets)
        optimal = exhaustive_weighted_set_cover(universe, sets)
        assert optimal.total_weight <= greedy.total_weight
        assert optimal.total_weight == pytest.approx(0.4)

    def test_optimal_beats_greedy_on_adversarial_instance(self):
        """Classic instance where greedy picks the big set first."""
        universe = {1, 2, 3, 4}
        sets = [
            ws(1, {1, 2, 3}, 0.30),
            ws(2, {1, 2}, 0.21),
            ws(3, {3, 4}, 0.21),
            ws(4, {4}, 0.25),
        ]
        greedy = greedy_weighted_set_cover(universe, sets)
        optimal = exhaustive_weighted_set_cover(universe, sets)
        assert optimal.total_weight <= greedy.total_weight + 1e-12
        assert optimal.total_weight == pytest.approx(0.42)

    def test_uncoverable(self):
        result = exhaustive_weighted_set_cover({1, 2}, [ws(1, {1}, 0.1)])
        assert not result.covered

    def test_instance_size_guard(self):
        sets = [ws(i, {i}, 0.1) for i in range(20)]
        with pytest.raises(ValueError):
            exhaustive_weighted_set_cover(set(range(20)), sets, max_sets=16)

    def test_solution_dataclass_shape(self):
        solution = SetCoverSolution((1,), 0.5, True)
        assert solution.chosen_ids == (1,)
        assert solution.covered
