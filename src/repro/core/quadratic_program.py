"""Tightest lower bound ``Lsim(q)`` via relaxed QP + randomized rounding
(Section 3.2.2, Definition 11, Algorithm 2, Theorem 5).

Features that are *super*graphs of relaxed queries define sets
``si = {rqj : rqj ⊆iso fi}`` with pair weights ``(wL, wU) = (LowerB(fi),
UpperB(fi))``.  Choosing a sub-collection ``C`` covering ``U`` yields the
valid lower bound (Theorem 4)

    Σ_{i∈C} wL(si)  −  Σ_{i,j∈C} wU(si)·wU(sj).

Maximizing this is an integer quadratic program; the paper relaxes the 0/1
indicators to [0, 1] (the relaxation is a concave maximization because the
quadratic term is −(Σ x_i wU_i)² over ordered pairs), solves the convex QP,
and rounds with ``2·ln|U|`` independent randomized passes.  We solve the
relaxation with SciPy's SLSQP and fall back to a projected-gradient loop when
SciPy declines, then apply Algorithm 2's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomLike, ensure_rng

try:  # SciPy is a hard dependency of the package, but keep the import local
    from scipy.optimize import minimize
except ImportError:  # pragma: no cover - exercised only without SciPy
    minimize = None


@dataclass(frozen=True)
class QPSet:
    """One candidate set for the Lsim program."""

    set_id: int
    members: frozenset
    lower_weight: float
    upper_weight: float


@dataclass(frozen=True)
class QPResult:
    """Outcome of the relaxation + rounding."""

    chosen_ids: tuple[int, ...]
    lower_bound: float
    relaxed_objective: float
    covered: bool


def _objective(x: np.ndarray, wl: np.ndarray, wu: np.ndarray) -> float:
    """The (to be maximized) objective Σ x·wL − (Σ x·wU)²  (ordered pairs)."""
    linear = float(np.dot(x, wl))
    quadratic = float(np.dot(x, wu)) ** 2
    return linear - quadratic


def solve_relaxed_qp(sets: list[QPSet], universe: frozenset) -> np.ndarray:
    """Solve the continuous relaxation; returns the optimal x* in [0,1]^n."""
    n = len(sets)
    if n == 0:
        return np.zeros(0)
    wl = np.array([s.lower_weight for s in sets], dtype=float)
    wu = np.array([s.upper_weight for s in sets], dtype=float)
    # one coverage constraint per distinct membership pattern, in sorted order:
    # the program does not depend on how the universe's elements are numbered
    membership = np.unique(
        [[float(element in s.members) for s in sets] for element in sorted(universe, key=repr)],
        axis=0,
    )

    def negative_objective(x: np.ndarray) -> float:
        return -_objective(x, wl, wu)

    def negative_gradient(x: np.ndarray) -> np.ndarray:
        return -(wl - 2.0 * float(np.dot(x, wu)) * wu)

    constraints = [
        {"type": "ineq", "fun": lambda x, row=row: float(membership[row] @ x) - 1.0}
        for row in range(len(membership))
    ]
    x0 = np.full(n, 0.5)
    if minimize is not None:
        solution = minimize(
            negative_objective,
            x0,
            jac=negative_gradient,
            bounds=[(0.0, 1.0)] * n,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-9},
        )
        if solution.success or solution.status in (4, 8):  # accept near-feasible results
            return np.clip(solution.x, 0.0, 1.0)
    return _projected_gradient(wl, wu, membership, x0)


def _projected_gradient(
    wl: np.ndarray, wu: np.ndarray, membership: np.ndarray, x0: np.ndarray, steps: int = 300
) -> np.ndarray:
    """Simple projected ascent fallback honouring coverage by clamping.

    After each gradient step, any uncovered universe element pushes the
    largest-membership coordinate upward; the result is feasible whenever a
    cover exists.
    """
    x = x0.copy()
    step = 0.05
    for _ in range(steps):
        gradient = wl - 2.0 * float(np.dot(x, wu)) * wu
        x = np.clip(x + step * gradient, 0.0, 1.0)
        coverage = membership @ x
        for row in np.where(coverage < 1.0)[0]:
            columns = np.where(membership[row] > 0)[0]
            if columns.size:
                x[columns[np.argmax(wl[columns])]] = 1.0
    return x


def rounding_passes(universe_size: int) -> int:
    """Algorithm 2 runs ``2 ln|U|`` independent rounding passes (at least 1)."""
    import math

    return max(1, int(np.ceil(2.0 * math.log(max(2, universe_size)))))


def solve_lsim_rounding(
    universe: frozenset | set,
    sets: list[QPSet],
    rng: RandomLike = None,
) -> QPResult:
    """Full Algorithm 2: relaxed QP, randomized rounding, objective evaluation.

    The rounding keeps the best (feasible-first) selection across passes and
    always includes a greedy repair that forces coverage, so the reported
    bound corresponds to an actual cover whenever one exists.
    """
    universe = frozenset(universe)
    if not sets or not universe:
        return QPResult((), 0.0, 0.0, covered=False)
    generator = ensure_rng(rng)
    fractional = solve_relaxed_qp(sets, universe)
    relaxed_value = _objective(
        fractional,
        np.array([s.lower_weight for s in sets]),
        np.array([s.upper_weight for s in sets]),
    )

    best_selection: list[int] | None = None
    best_value = -np.inf
    passes = rounding_passes(len(universe))
    for _ in range(passes):
        picked = [i for i, p in enumerate(fractional) if generator.random() < p]
        picked = _repair_cover(picked, sets, universe)
        value, covered = _evaluate(picked, sets, universe)
        if covered and value > best_value:
            best_value = value
            best_selection = picked
    if best_selection is None:
        # final deterministic fallback: take everything
        picked = list(range(len(sets)))
        value, covered = _evaluate(picked, sets, universe)
        best_selection, best_value = picked, value
        if not covered:
            return QPResult((), 0.0, relaxed_value, covered=False)
    chosen_ids = tuple(sorted(sets[i].set_id for i in best_selection))
    return QPResult(
        chosen_ids=chosen_ids,
        lower_bound=max(0.0, best_value),
        relaxed_objective=relaxed_value,
        covered=True,
    )


def _repair_cover(picked: list[int], sets: list[QPSet], universe: frozenset) -> list[int]:
    """Greedily add sets until the universe is covered (if possible)."""
    covered = set()
    for index in picked:
        covered |= sets[index].members
    missing = set(universe) - covered
    result = list(picked)
    while missing:
        best_index = None
        best_gain = 0
        for index, candidate in enumerate(sets):
            if index in result:
                continue
            gain = len(candidate.members & missing)
            if gain > best_gain:
                best_gain = gain
                best_index = index
        if best_index is None:
            break
        result.append(best_index)
        missing -= sets[best_index].members
    return result


def _evaluate(picked: list[int], sets: list[QPSet], universe: frozenset) -> tuple[float, bool]:
    """Objective value of an integer selection and whether it covers U."""
    covered = set()
    lower_sum = 0.0
    upper_sum = 0.0
    for index in picked:
        covered |= sets[index].members
        lower_sum += sets[index].lower_weight
        upper_sum += sets[index].upper_weight
    value = lower_sum - upper_sum * upper_sum
    return value, universe <= covered
