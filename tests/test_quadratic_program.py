"""Tests for the relaxed QP + randomized rounding (tightest Lsim)."""

from __future__ import annotations

import random

import pytest

from repro.core.quadratic_program import (
    QPResult,
    QPSet,
    rounding_passes,
    solve_lsim_rounding,
    solve_relaxed_qp,
)


def qp_set(set_id, members, lower, upper):
    return QPSet(set_id=set_id, members=frozenset(members), lower_weight=lower, upper_weight=upper)


class TestRelaxedQP:
    def test_single_set_is_selected(self):
        sets = [qp_set(0, {"rq1"}, 0.4, 0.5)]
        x = solve_relaxed_qp(sets, frozenset({"rq1"}))
        assert len(x) == 1
        assert x[0] >= 0.99  # coverage forces selection

    def test_empty_input(self):
        assert len(solve_relaxed_qp([], frozenset())) == 0

    def test_fractional_solution_within_bounds(self):
        sets = [
            qp_set(0, {"a", "b"}, 0.3, 0.6),
            qp_set(1, {"b", "c"}, 0.2, 0.1),
            qp_set(2, {"a", "c"}, 0.25, 0.2),
        ]
        x = solve_relaxed_qp(sets, frozenset({"a", "b", "c"}))
        assert all(-1e-9 <= value <= 1 + 1e-9 for value in x)

    def test_solution_does_not_depend_on_how_the_universe_is_numbered(self):
        """One constraint per distinct membership pattern, in sorted order:
        SLSQP read the rows in element order before, and its ``x*`` moved in
        the last bits for half of all renumberings."""
        stream = random.Random(5)
        for _ in range(60):
            size = stream.randint(2, 6)
            sets = [
                qp_set(
                    set_id,
                    {e for e in range(size) if stream.random() < 0.5} or {stream.randrange(size)},
                    low := stream.uniform(0.01, 0.5),
                    low + stream.uniform(0.0, 0.3),
                )
                for set_id in range(stream.randint(2, 5))
            ]
            renumbered = list(range(size))
            stream.shuffle(renumbered)
            moved = [
                qp_set(s.set_id, {renumbered[e] for e in s.members}, s.lower_weight, s.upper_weight)
                for s in sets
            ]
            universe = frozenset(range(size))
            assert (
                solve_relaxed_qp(sets, universe).tobytes()
                == solve_relaxed_qp(moved, universe).tobytes()
            )


class TestRounding:
    def test_rounding_passes_formula(self):
        import math

        assert rounding_passes(1) >= 1
        assert rounding_passes(10) == math.ceil(2 * math.log(10))

    def test_paper_example4_shape(self, rng):
        """Example 4: s1={rq1} (0.28, 0.36), s2={rq1,rq2,rq3} (0.08, 0.15)."""
        universe = frozenset({"rq1", "rq2", "rq3"})
        sets = [
            qp_set(1, {"rq1"}, 0.28, 0.36),
            qp_set(2, {"rq1", "rq2", "rq3"}, 0.08, 0.15),
        ]
        result = solve_lsim_rounding(universe, sets, rng=rng)
        assert result.covered
        # s2 must be chosen for coverage; adding s1 changes the objective to
        # 0.36 - 0.51^2 ≈ 0.0999, versus 0.08 - 0.15^2 ≈ 0.0575 for s2 alone,
        # so the best rounded solution includes both.
        assert 2 in result.chosen_ids
        assert result.lower_bound == pytest.approx(0.36 - 0.51**2, abs=1e-6) or (
            result.lower_bound == pytest.approx(0.08 - 0.15**2, abs=1e-6)
        )

    def test_lower_bound_never_negative(self, rng):
        universe = frozenset({"a"})
        sets = [qp_set(0, {"a"}, 0.1, 0.9)]
        result = solve_lsim_rounding(universe, sets, rng=rng)
        assert result.lower_bound >= 0.0

    def test_uncoverable_universe(self, rng):
        universe = frozenset({"a", "b"})
        sets = [qp_set(0, {"a"}, 0.5, 0.1)]
        result = solve_lsim_rounding(universe, sets, rng=rng)
        assert not result.covered
        assert result.lower_bound == 0.0

    def test_empty_inputs(self, rng):
        assert solve_lsim_rounding(frozenset(), [], rng=rng) == QPResult((), 0.0, 0.0, False)

    def test_reported_bound_matches_selection(self, rng):
        universe = frozenset({"a", "b"})
        sets = [
            qp_set(0, {"a"}, 0.3, 0.2),
            qp_set(1, {"b"}, 0.4, 0.3),
            qp_set(2, {"a", "b"}, 0.5, 0.9),
        ]
        result = solve_lsim_rounding(universe, sets, rng=rng)
        assert result.covered
        chosen = [s for s in sets if s.set_id in result.chosen_ids]
        lower_sum = sum(s.lower_weight for s in chosen)
        upper_sum = sum(s.upper_weight for s in chosen)
        assert result.lower_bound == pytest.approx(max(0.0, lower_sum - upper_sum**2))

    def test_better_than_trivial_choice(self, rng):
        """The rounded solution should avoid the heavy-upper-weight set."""
        universe = frozenset({"a", "b"})
        sets = [
            qp_set(0, {"a"}, 0.3, 0.2),
            qp_set(1, {"b"}, 0.4, 0.3),
            qp_set(2, {"a", "b"}, 0.5, 0.95),
        ]
        result = solve_lsim_rounding(universe, sets, rng=rng)
        # picking only set 2 would give 0.5 - 0.9025 < 0; sets {0,1} give
        # 0.7 - 0.25 = 0.45, which the rounding should find (or beat)
        assert result.lower_bound >= 0.20
