"""The pivoting quantile algorithm (Algorithm 1, Sections 3 and 3.1).

Given an acyclic join query, a database, a ranking function, a requested
position, and a trimmer for the ranking's inequalities, the algorithm
repeatedly

1. selects a c-pivot among the current candidate answers (Section 4),
2. trims the less-than and greater-than partitions from the *original*
   database, restricted to the current candidate interval, and
3. counts the partitions to decide where the requested index falls,

until the index falls into the equal-to partition (the pivot is returned) or
the candidate set is small enough to materialize with the Yannakakis
algorithm and finish with plain selection.

With an exact trimmer the returned answer is an exact φ-quantile; with an
ε-lossy trimmer it is a (φ ± ε)-quantile (Lemmas 3.3 and 3.6).

The loop itself (:func:`run_pivoting`) only sees a :class:`CandidateSet`:
something that can split an interval's candidates at a pivot and
materialize a terminal interval.  :class:`LocalCandidates` keeps the
candidates in this process as trimmed (query, database) pairs; the sharded
path (:class:`repro.parallel.merger.RankMerger`) keeps them across worker
processes and sums their counts.  Both run the same loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, MutableMapping
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.data.database import Database
from repro.exceptions import EmptyResultError, SolverError, ValidationError
from repro.joins.counting import count_answers
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import AnswerRows, evaluate
from repro.kernels import active_backend
from repro.core.result import IterationStats, QuantileResult
from repro.pivot.pivot_selection import select_pivot
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint
from repro.trim.base import Trimmer

Assignment = dict[str, Any]


def target_index_for(phi: float, total: int) -> int:
    """The 0-based index of the φ-quantile in a sorted list of ``total`` answers.

    Follows Algorithm 1 (line 4): ``⌊φ·|Q(D)|⌋``, clamped to ``[0, total−1]``.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValidationError(f"phi must be in [0, 1], got {phi}")
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    return min(total - 1, max(0, int(math.floor(phi * total))))


def phi_for_index(index: int, total: int) -> float:
    """The φ value whose quantile is the answer at 0-based ``index``.

    Exact inverse of :func:`target_index_for`: for every valid index,
    ``target_index_for(phi_for_index(i, total), total) == i``.  The midpoint
    ``(i + ½)/total`` keeps ``φ·total`` half a unit away from the integer
    boundaries, so the ``⌊φ·total⌋`` rounding of the forward direction cannot
    drift to a neighbouring rank through floating-point error (``i/total``
    does: e.g. ``⌊(15/22)·22⌋ == 14``).
    """
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    if not 0 <= index < total:
        raise ValidationError(f"index {index} out of range [0, {total})")
    return (index + 0.5) / total


class CappedCache(dict[Any, Any]):
    """A dict that silently stops accepting new keys past a size limit.

    Bounds the memory held by the interval-keyed step and answer caches;
    existing entries keep being served, and overwriting an existing key is
    always allowed.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.limit and key not in self:
            return
        super().__setitem__(key, value)


@dataclass(frozen=True)
class PivotStep:
    """Memoized outcome of one pivoting iteration for a candidate interval.

    The pivoting loop is deterministic given the candidate set: the same
    candidate interval always yields the same pivot and the same partition
    counts.  A :class:`PreparedQuery` therefore shares a ``{interval:
    PivotStep}`` cache across φ values — repeated quantile queries reuse the
    expensive early iterations (which scan the full database) and only pay
    for the suffix of the search path where their target ranks diverge.

    ``lt`` and ``gt`` are opaque handles on the two partitions, meaningful
    only to the :class:`CandidateSet` that produced the step.  ``stats``
    holds the loop's diagnostics for each way it left the step: they are
    immutable, so φ values walking the same cached step share them instead
    of allocating fresh ones on every call.
    """

    pivot_assignment: Assignment
    pivot_weight: Any
    pivot_c: float
    count_lt: int
    count_gt: int
    lt: Any
    gt: Any
    stats: dict[str, IterationStats] = field(
        default_factory=dict, compare=False, repr=False
    )


class Terminal(Protocol):
    """A terminal interval's materialized candidates, sorted by weight."""

    def __len__(self) -> int: ...

    def assignment(self, index: int) -> Assignment:
        """The candidate at sorted position ``index``, as a dict."""
        ...


class CandidateSet(Protocol):
    """Where the candidate answers of the pivoting loop live.

    A *handle* names the candidates inside one weight interval; the loop
    starts from a root handle holding every answer and only ever passes
    back handles this set returned in a :class:`PivotStep`.
    """

    @property
    def ranking(self) -> RankingFunction:
        """The ranking the candidates are ordered by."""
        ...

    def split(self, interval: WeightInterval, handle: Any) -> PivotStep:
        """Select a c-pivot among ``handle``'s candidates and count the
        candidates of ``interval`` strictly below and above its weight."""
        ...

    def terminal(self, interval: WeightInterval, handle: Any) -> Terminal:
        """Materialize ``handle``'s candidates, sorted by weight (ties in a
        deterministic order)."""
        ...


def run_pivoting(
    candidates: CandidateSet,
    root: Any,
    total: int,
    variables: Iterable[str],
    termination_size: int,
    phi: float | None = None,
    index: int | None = None,
    strategy: str = "exact-pivot",
    exact: bool = True,
    epsilon: float | None = None,
    max_iterations: int | None = None,
    pivot_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
) -> QuantileResult:
    """Algorithm 1 over any :class:`CandidateSet`.

    ``root`` is the handle on all ``total`` answers.  Each iteration splits
    the current interval at a pivot and continues in the partition holding
    the target rank, until the rank falls on the pivot's weight or at most
    ``termination_size`` candidates remain, which are then materialized and
    selected from.  The returned assignment is projected onto
    ``variables``.  See :func:`pivoting_quantile` for the caches and
    ``max_iterations``.
    """
    if (phi is None) == (index is None):
        raise ValidationError("exactly one of phi and index must be provided")
    if total == 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    if index is not None:
        if not 0 <= index < total:
            raise ValidationError(f"index {index} out of range [0, {total})")
        target = index
    else:
        target = target_index_for(phi, total)  # type: ignore[arg-type]
    keep = set(variables)
    stats: list[IterationStats] = []

    def result(weight: Any, assignment: Assignment) -> QuantileResult:
        return QuantileResult(
            # Drop helper variables introduced by canonicalization or trimming.
            assignment={v: value for v, value in assignment.items() if v in keep},
            weight=weight,
            target_index=target,
            total_answers=total,
            strategy=strategy,
            exact=exact,
            epsilon=epsilon,
            iterations=len(stats),
            stats=tuple(stats),
        )

    interval = WeightInterval()
    handle = root
    current_count = total
    # Invariant: 0 <= remaining_index < current_count.  Both branches below
    # keep it whatever counts the candidate set reports, so the partition
    # the search continues in is never empty.
    remaining_index = target
    iteration_cap = max_iterations if max_iterations is not None else 0

    while current_count > termination_size:
        checkpoint("quantile.iteration")
        step = pivot_cache.get(interval) if pivot_cache is not None else None
        if step is None:
            step = candidates.split(interval, handle)
            if pivot_cache is not None:
                pivot_cache[interval] = step
        if iteration_cap == 0:
            # Derive a generous cap from the guaranteed elimination fraction.
            c = max(step.pivot_c, 1e-3)
            iteration_cap = int(math.ceil(math.log(max(total, 2)) / -math.log(1 - c))) + 20
        if len(stats) >= iteration_cap:
            raise SolverError(
                f"pivoting did not converge within {iteration_cap} iterations; "
                "this indicates an inconsistent trimmer"
            )
        count_lt, count_gt = step.count_lt, step.count_gt
        count_eq = max(0, current_count - count_lt - count_gt)

        if remaining_index < count_lt:
            chosen = "lt"
            interval = interval.with_high(step.pivot_weight, strict=True)
            handle = step.lt
            current_count = count_lt
        elif remaining_index < count_lt + count_eq:
            chosen = "eq"
        else:
            chosen = "gt"
            remaining_index -= count_lt + count_eq
            interval = interval.with_low(step.pivot_weight, strict=True)
            handle = step.gt
            current_count = count_gt
        # Memoized per branch to keep allocations off the warm path: a
        # garbage collection inside a ~1 ms warm batch (path-max-batch's
        # warm_batch_s) costs up to half of it.  ``chosen`` is the only
        # part that varies, since the counts are fixed by the interval.
        record = step.stats.get(chosen)
        if record is None:
            record = step.stats[chosen] = IterationStats(
                pivot_weight=step.pivot_weight,
                c=step.pivot_c,
                count_lt=count_lt,
                count_eq=count_eq,
                count_gt=count_gt,
                candidate_count=count_eq if chosen == "eq" else current_count,
                chosen=chosen,
            )
        stats.append(record)
        if chosen == "eq":
            return result(step.pivot_weight, step.pivot_assignment)

    # Materialize the remaining candidates and finish with plain selection.
    # The sorted candidates of a terminal interval are shared across calls
    # through answer_cache (calls whose targets land in the same interval pay
    # the materialize-and-sort once).
    answers = answer_cache.get(interval) if answer_cache is not None else None
    if answers is None:
        answers = candidates.terminal(interval, handle)
        if not answers:
            raise SolverError("no candidate answers remained to materialize")
        if answer_cache is not None:
            answer_cache[interval] = answers
    # A lossy trimmer may have dropped answers: clamp to the last survivor.
    answer = answers.assignment(min(remaining_index, len(answers) - 1))
    return result(candidates.ranking.weight_of(answer), answer)


@dataclass(frozen=True)
class LocalCandidates:
    """The candidates of one process: handles are ``(query, database)`` pairs.

    Every partition is trimmed from the (canonical, possibly semijoin-
    reduced) base restricted to the full accumulated interval: re-applying a
    trimmer to its own output would compound the copy factors of the
    segment/partition constructions (and, for lossy trimmers, the answer
    loss).  ``tree_cache`` shares one materialized tree per pair between its
    counting pass, the next pivot selection and terminal enumeration.
    """

    base_query: JoinQuery
    base_db: Database
    ranking: RankingFunction
    trimmer: Trimmer
    tree_cache: TreeCache

    def split(self, interval: WeightInterval, handle: Any) -> PivotStep:
        query, db = handle
        trees = self.tree_cache
        pivot = select_pivot(query, db, self.ranking, tree=trees.get(query, db))
        lt = self.trimmer.trim_interval(
            self.base_query, self.base_db, interval.with_high(pivot.weight, strict=True)
        )
        gt = self.trimmer.trim_interval(
            self.base_query, self.base_db, interval.with_low(pivot.weight, strict=True)
        )
        return PivotStep(
            pivot_assignment=pivot.assignment,
            pivot_weight=pivot.weight,
            pivot_c=pivot.c,
            count_lt=count_answers(
                lt.query, lt.database, tree=trees.get(lt.query, lt.database)
            ),
            count_gt=count_answers(
                gt.query, gt.database, tree=trees.get(gt.query, gt.database)
            ),
            lt=(lt.query, lt.database),
            gt=(gt.query, gt.database),
        )

    def terminal(self, interval: WeightInterval, handle: Any) -> AnswerRows:
        # Weigh whole columns and sort once; only the permuted row-index
        # columns are kept, and the loop builds the one dict it returns.
        query, db = handle
        answers = evaluate(query, db, tree=self.tree_cache.get(query, db))
        return answers.reordered(active_backend().argsort(answers.weights(self.ranking)))


def pivoting_quantile(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    trimmer: Trimmer,
    phi: float | None = None,
    index: int | None = None,
    epsilon: float | None = None,
    termination_size: int | None = None,
    max_iterations: int | None = None,
    strategy_name: str | None = None,
    total: int | None = None,
    pivot_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
    tree_cache: TreeCache | None = None,
) -> QuantileResult:
    """Run Algorithm 1 and return the requested (approximate) quantile.

    Exactly one of ``phi`` (relative position) and ``index`` (absolute 0-based
    position, the *selection problem*) must be given.

    Parameters
    ----------
    trimmer:
        The trimming construction for the ranking's inequalities; its
        ``lossy`` flag decides whether the result is exact.
    epsilon:
        Reported approximation parameter (for lossy trimmers).
    termination_size:
        Materialize-and-select once at most this many candidates remain
        (default: the database size, as in Algorithm 1).
    max_iterations:
        Safety bound on pivoting iterations (default: derived from the pivot
        quality and the answer count).
    total:
        Precomputed ``|Q(D)|`` for the (canonical) query/database pair, so a
        prepared query does not recount on every call.
    pivot_cache:
        Mutable mapping from candidate interval to :class:`PivotStep`, shared
        across calls with the same (query, db, ranking, trimmer) to amortize
        pivot selection, trimming, and counting over repeated φ values.
    answer_cache:
        Mutable mapping from terminal candidate interval to its weight-sorted
        :class:`~repro.joins.yannakakis.AnswerRows`, sharing the final
        materialize-and-select step across calls that end in the same
        interval.
    tree_cache:
        Shared :class:`~repro.joins.tree_cache.TreeCache` so pivot
        selection, partition counting, and terminal materialization reuse
        one materialized tree per (query, database) pair instead of each
        rebuilding it.
    """
    ranking.validate_for(query.variables)
    base_query, base_db = ensure_canonical(query, db)
    if tree_cache is None:
        # Even a one-shot call profits: the tree of each candidate pair is
        # shared between its counting pass and the next pivot selection.
        tree_cache = TreeCache()
    if total is None:
        total = count_answers(
            base_query, base_db, tree=tree_cache.get(base_query, base_db)
        )
    exact = not trimmer.lossy
    return run_pivoting(
        LocalCandidates(base_query, base_db, ranking, trimmer, tree_cache),
        (base_query, base_db),
        total,
        query.variables,
        max(base_db.size, 1) if termination_size is None else termination_size,
        phi=phi,
        index=index,
        strategy=strategy_name or ("exact-pivot" if exact else "approx-pivot"),
        exact=exact,
        epsilon=epsilon,
        max_iterations=max_iterations,
        pivot_cache=pivot_cache,
        answer_cache=answer_cache,
    )
