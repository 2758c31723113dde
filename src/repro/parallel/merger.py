"""Coordinator side of sharded pivoting: mergeable rank counts.

Because the shard plan makes per-shard answer sets **disjoint** with union
``Q(D)`` (every answer binds the partition variable to one value), rank
counts are *mergeable summaries* in the sense of Agarwal et al. (PODS'12):
for any weight interval, the global candidate count is the sum of the
per-shard counts.

:class:`RankMerger` is therefore just another
:class:`~repro.core.quantile.CandidateSet` for the one pivoting loop,
:func:`~repro.core.quantile.run_pivoting`: its handle on an interval's
candidates is the tuple of per-shard counts.  Splitting asks the largest
surviving shard to *propose* a pivot and fans the lt/gt counting out to
every surviving shard; the terminal step gathers each shard's
weight-sorted columns and merges them with one stable argsort.  The
returned weight, target index, and total are bit-identical to the serial
path (the pivot trajectory may differ, which only changes iteration
diagnostics, never the selected rank).

:class:`ParallelSession` owns the pool plus per-shard bookkeeping and
threads the runtime guardrails through: in process mode each task carries
``(remaining deadline, row budget / K)`` and the coordinator charges the
workers' reported row usage back to the ambient context; cancellation is
observed at the loop's per-iteration checkpoint and at every merge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, MutableMapping
from dataclasses import dataclass
from itertools import chain
from typing import Any

import repro.exceptions as _exceptions
from repro.core.quantile import Assignment, PivotStep, Terminal, run_pivoting
from repro.core.result import QuantileResult
from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ReproError,
    SolverError,
)
from repro.kernels import active_backend
from repro.parallel.planner import ShardPlan
from repro.parallel.pool import ShardFuture, ShardPool, create_pool
from repro.parallel.worker import TaskResult
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint, current_context


@dataclass(frozen=True)
class MergedAnswers:
    """A merged sharded terminal: one weight-sorted value column per variable.

    Columns are tuples: once the garbage collector has seen that they hold
    only atomic values it stops tracking them, so a cached terminal costs
    later collections nothing.
    """

    variables: tuple[str, ...]
    columns: tuple[tuple[Any, ...], ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def cells(self) -> int:
        """Number of stored column entries (answers times variables)."""
        return len(self) * len(self.columns)

    def assignment(self, index: int) -> Assignment:
        """Answer ``index`` as a dict in ``variables`` order."""
        return {variable: column[index] for variable, column in zip(self.variables, self.columns)}


class ParallelSession:
    """A live pool of initialized shards for one prepared (query, db, ranking).

    Built by :class:`~repro.engine.PreparedQuery` from a
    :class:`~repro.parallel.planner.ShardPlan`; :meth:`start` ships every
    shard to its worker, reduces and counts it there, and records per-shard
    totals.  After that the session is a thin RPC layer: it computes
    per-task guards from the ambient execution context, converts the
    ``(status, payload, rows)`` envelopes back into typed exceptions, and
    charges worker-reported row usage to the coordinator's context.
    """

    def __init__(
        self,
        plan: ShardPlan,
        ranking: RankingFunction,
        mode: str | None = None,
    ) -> None:
        self.plan = plan
        self.ranking = ranking
        self._pool: ShardPool = create_pool(plan.num_shards, mode)
        self.shard_totals: tuple[int, ...] = ()
        self.total = 0
        self.reduced_rows = 0
        self.var_order: tuple[str, ...] = tuple(
            sorted({v for _, variables in plan.atoms for v in variables})
        )

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def inline(self) -> bool:
        return self._pool.inline

    @property
    def closed(self) -> bool:
        return self._pool.closed

    def close(self) -> None:
        self._pool.close()

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Ship, reduce, and count every shard; record per-shard totals."""
        checkpoint("parallel.init", rows=self.plan.total_rows)
        atoms = [list(entry) for entry in self.plan.atoms]
        outcomes = self.fan_out(
            (
                shard,
                "init",
                {
                    "atoms": atoms,
                    "relations": self.plan.shard_relations[shard],
                    "ranking": self.ranking,
                },
            )
            for shard in range(self.num_shards)
        )
        self.shard_totals = tuple(total for total, _ in outcomes)
        self.total = sum(self.shard_totals)
        self.reduced_rows = sum(reduced for _, reduced in outcomes)

    # ------------------------------------------------------------------ #
    def fan_out(self, tasks: Iterable[tuple[int, str, Any]]) -> list[Any]:
        """Run ``(shard, op, payload)`` tasks, returning payloads in order.

        Submits everything first (process lanes run concurrently), then
        gathers; worker-reported row usage is charged to the ambient context
        in one ``parallel.merge`` checkpoint, which is also where the
        coordinator observes deadlines and cancellation between rounds.
        """
        guards = self._guards()
        submitted: list[tuple[int, ShardFuture]] = [
            (shard, self._pool.submit(shard, op, payload, guards))
            # repro-analysis: allow RPR001 -- O(K) fan-out, K = shard count
            for shard, op, payload in tasks
        ]
        payloads: list[Any] = []
        rows = 0
        for shard, future in submitted:
            # repro-analysis: allow RPR001 -- O(K) gather, K = shard count
            payload, used = self._unwrap(shard, self._pool.result(shard, future))
            payloads.append(payload)
            rows += used
        checkpoint("parallel.merge", rows=rows)
        return payloads

    def _guards(self) -> tuple[float | None, int | None] | None:
        """Split the ambient budget across workers (process mode only).

        Inline tasks run under the coordinator's own context — handing them
        a split budget would double-charge every row.  Process tasks get the
        full remaining deadline (they run concurrently, wall-clock is
        shared) and a ``1/K`` slice of the remaining row budget (work is
        additive across shards).
        """
        if self._pool.inline:
            return None
        context = current_context()
        if context is None:
            return None
        time_left = context.remaining_time()
        rows_left = context.remaining_rows()
        if time_left is None and rows_left is None:
            return None
        row_slice = (
            None
            if rows_left is None
            else max(1, math.ceil(rows_left / self.num_shards))
        )
        return (time_left, row_slice)

    def _unwrap(self, shard: int, outcome: TaskResult) -> tuple[Any, int]:
        """Convert a worker envelope back into a payload or typed exception."""
        status, payload, rows = outcome
        if status == "ok":
            return payload, rows
        if status == "budget":
            message, budget, trip = payload
            raise BudgetExceededError(message, budget=budget, checkpoint=trip)
        if status == "cancelled":
            message, trip = payload
            raise ExecutionCancelledError(message, checkpoint=trip)
        name, message = payload
        exc_type = getattr(_exceptions, name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
            raise exc_type(f"shard {shard}: {message}")
        raise SolverError(f"shard {shard} worker failed: {name}: {message}")


class RankMerger:
    """The sharded :class:`~repro.core.quantile.CandidateSet`.

    A handle is the tuple of per-shard candidate counts of an interval: the
    merger needs them to pick the next proposer and to skip empty shards.
    The shards themselves keep the trimmed candidates, keyed by interval.
    """

    def __init__(self, session: ParallelSession) -> None:
        self.session = session

    @property
    def ranking(self) -> RankingFunction:
        return self.session.ranking

    def solve(
        self,
        phi: float | None,
        index: int | None,
        variables: Iterable[str],
        termination_size: int,
        pivot_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
        answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
    ) -> QuantileResult:
        """Answer one quantile (or selection) query over the sharded order."""
        session = self.session
        return run_pivoting(
            self,
            session.shard_totals,
            session.total,
            variables,
            termination_size,
            phi=phi,
            index=index,
            pivot_cache=pivot_cache,
            answer_cache=answer_cache,
        )

    # ------------------------------------------------------------------ #
    def split(self, interval: WeightInterval, handle: tuple[int, ...]) -> PivotStep:
        """One pivoting round: the largest shard proposes, everyone counts."""
        session = self.session
        active = [s for s in range(session.num_shards) if handle[s] > 0]
        if not active:
            raise SolverError("no shard holds candidates for the current interval")
        # Largest surviving shard proposes (ties break to the lowest shard):
        # its local candidate distribution is the best stand-in for the
        # global one, so its c-pivot keeps the global elimination fraction.
        proposer = max(active, key=lambda s: (handle[s], -s))
        [pivot] = session.fan_out([(proposer, "pivot", interval)])
        if pivot is None:
            raise SolverError(
                f"shard {proposer} reported no candidates despite a nonzero count"
            )
        pivot_weight, pivot_assignment, pivot_c = pivot
        outcomes = session.fan_out(
            (shard, "counts", (interval, pivot_weight)) for shard in active
        )
        lt_counts = [0] * session.num_shards
        gt_counts = [0] * session.num_shards
        # repro-analysis: allow RPR001 -- O(K) merge, K = shard count
        for shard, (count_lt, count_gt) in zip(active, outcomes):
            lt_counts[shard] = count_lt
            gt_counts[shard] = count_gt
        return PivotStep(
            pivot_assignment=dict(pivot_assignment),
            pivot_weight=pivot_weight,
            pivot_c=pivot_c,
            count_lt=sum(lt_counts),
            count_gt=sum(gt_counts),
            lt=tuple(lt_counts),
            gt=tuple(gt_counts),
        )

    def terminal(
        self, interval: WeightInterval, handle: tuple[int, ...]
    ) -> MergedAnswers:
        """Gather and merge the surviving shards' weight-sorted columns.

        The per-shard columns are concatenated in shard order and merged
        with one stable argsort of the weight column, so equal weights keep
        shard order and, within a shard, the shard's own order — the result
        is deterministic across runs.
        """
        session = self.session
        active = [s for s in range(session.num_shards) if handle[s] > 0]
        if not active:
            return MergedAnswers(session.var_order, tuple(() for _ in session.var_order))
        outcomes = session.fan_out(
            (shard, "terminal", interval) for shard in active
        )
        kernel = active_backend()
        weights = list(chain.from_iterable(shard_weights for shard_weights, _ in outcomes))
        order = kernel.argsort(weights)
        checkpoint("parallel.merge", rows=len(weights))
        columns = (
            list(chain.from_iterable(values[slot] for _, values in outcomes))
            for slot in range(len(session.var_order))
        )
        return MergedAnswers(
            session.var_order,
            tuple(tuple(kernel.take(column, order)) for column in columns),
        )


__all__ = [
    "MergedAnswers",
    "ParallelSession",
    "RankMerger",
]
