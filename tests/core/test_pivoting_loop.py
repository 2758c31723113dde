"""The one pivoting loop (``run_pivoting``) driven through a fake candidate set.

The fake scripts every split, so the loop's own control flow — the target
arithmetic, the lt/eq/gt decision, the iteration cap, the terminal pick and
the interval-keyed caches — is checked independently of any trimmer, and
therefore for the serial and the sharded candidate sets alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile import CappedCache, PivotStep, run_pivoting
from repro.exceptions import SolverError
from repro.query.predicates import WeightInterval
from repro.ranking.minmax import MaxRanking


class ScriptedAnswers(list):
    """A scripted terminal: assignment dicts, already in weight order."""

    def assignment(self, index):
        return self[index]


class ScriptedCandidates:
    """A candidate set whose splits and terminals are looked up by handle."""

    ranking = MaxRanking(["x"])  # an answer weighs its "x"

    def __init__(self, steps=None, answers=None):
        self.steps = steps or {}
        self.answers = answers or {}
        self.splits = []
        self.terminals = []

    def split(self, interval, handle):
        self.splits.append((interval, handle))
        return self.steps[handle]

    def terminal(self, interval, handle):
        self.terminals.append((interval, handle))
        return ScriptedAnswers(self.answers.get(handle, []))


def step(weight, count_lt, count_gt, lt="lt", gt="gt", c=0.5):
    return PivotStep(
        pivot_assignment={"x": weight, "helper": -1},
        pivot_weight=weight,
        pivot_c=c,
        count_lt=count_lt,
        count_gt=count_gt,
        lt=lt,
        gt=gt,
    )


def run(candidates, total=10, termination_size=0, **kwargs):
    return run_pivoting(candidates, "root", total, ["x"], termination_size, **kwargs)


class TestBranches:
    def test_eq_returns_the_projected_pivot(self):
        # 3 below, 4 above, so ranks 3..5 carry the pivot's weight.
        candidates = ScriptedCandidates({"root": step(50, 3, 4)})
        result = run(candidates, index=4)
        assert result.weight == 50
        assert result.assignment == {"x": 50}
        assert result.target_index == 4
        assert result.total_answers == 10
        assert result.iterations == 1
        [stat] = result.stats
        assert (stat.chosen, stat.count_eq, stat.candidate_count) == ("eq", 3, 3)

    def test_lt_branch_materializes_below_the_pivot(self):
        low = [{"x": w, "helper": 0} for w in (10, 20, 30)]
        candidates = ScriptedCandidates({"root": step(50, 3, 4)}, {"lt": low})
        result = run(candidates, termination_size=3, index=1)
        assert (result.weight, result.assignment) == (20, {"x": 20})
        assert candidates.terminals == [
            (WeightInterval().with_high(50, strict=True), "lt")
        ]
        assert result.stats[0].chosen == "lt"

    def test_gt_branch_rebases_the_remaining_index(self):
        high = [{"x": w} for w in (60, 70, 80, 90)]
        candidates = ScriptedCandidates({"root": step(50, 3, 4)}, {"gt": high})
        # Index 8 skips 3 lower and 3 equal answers: position 2 above.
        result = run(candidates, termination_size=4, index=8)
        assert result.weight == 80
        assert candidates.terminals == [
            (WeightInterval().with_low(50, strict=True), "gt")
        ]

    def test_lossy_terminal_clamps_to_the_last_survivor(self):
        # The counts promised 4 answers above the pivot, 2 survived.
        candidates = ScriptedCandidates(
            {"root": step(50, 3, 4)}, {"gt": [{"x": 60}, {"x": 70}]}
        )
        assert run(candidates, termination_size=4, index=9).weight == 70

    def test_empty_terminal_is_a_solver_error(self):
        candidates = ScriptedCandidates({"root": step(50, 3, 4)})
        with pytest.raises(SolverError, match="no candidate answers remained"):
            run(candidates, termination_size=4, index=9)


class TestIterationCap:
    def test_explicit_cap(self):
        # A split that never shrinks the candidates: every rank stays "lt".
        candidates = ScriptedCandidates({"root": step(50, 10, 0, lt="root")})
        with pytest.raises(SolverError, match="did not converge within 3 iterations"):
            run(candidates, index=5, max_iterations=3)

    def test_derived_cap_follows_the_pivot_quality(self):
        candidates = ScriptedCandidates({"root": step(50, 10, 0, lt="root", c=0.5)})
        # ceil(log(10) / -log(1 - 0.5)) + 20 == 24
        with pytest.raises(SolverError, match="did not converge within 24 iterations"):
            run(candidates, index=5)


class TestCaches:
    def test_steps_and_terminals_are_reused_per_interval(self):
        candidates = ScriptedCandidates(
            {"root": step(50, 3, 4)}, {"lt": [{"x": w} for w in (10, 20, 30)]}
        )
        steps, answers = {}, {}
        for index in (0, 1, 2):
            result = run(
                candidates,
                termination_size=3,
                index=index,
                pivot_cache=steps,
                answer_cache=answers,
            )
            assert result.weight == (10, 20, 30)[index]
        assert len(candidates.splits) == 1
        assert len(candidates.terminals) == 1

    def test_capped_cache_at_zero_stores_nothing(self):
        candidates = ScriptedCandidates({"root": step(50, 3, 4)})
        steps = CappedCache(0)
        run(candidates, index=4, pivot_cache=steps)
        run(candidates, index=4, pivot_cache=steps)
        assert len(steps) == 0
        assert len(candidates.splits) == 2


class AdversarialCandidates:
    """Splits report arbitrary (overlapping, lossy-looking) counts."""

    def __init__(self, rng):
        self.rng = rng

    def split(self, interval, handle):
        return step(
            self.rng.randrange(100),
            self.rng.randrange(0, 60),
            self.rng.randrange(0, 60),
            lt=handle + 1,
            gt=handle + 1,
        )


@settings(max_examples=200, deadline=None)
@given(total=st.integers(1, 50), data=st.data())
def test_continued_branch_is_never_empty(total, data):
    """Whatever counts a split reports, the partition the search continues
    in still holds the target rank, so with termination size 0 the loop can
    only end on a pivot (or at the iteration cap), never on an empty set."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    index = data.draw(st.integers(0, total - 1))
    try:
        result = run_pivoting(
            AdversarialCandidates(rng), 0, total, ["x"], 0,
            index=index, max_iterations=30,
        )
    except SolverError as error:
        assert "did not converge" in str(error)
        return
    assert result.stats[-1].chosen == "eq"
    assert all(s.candidate_count >= 1 for s in result.stats)
