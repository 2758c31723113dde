"""Merge correctness: parallel answers are bit-identical to serial ones.

All tests here run the pools inline (``REPRO_PARALLEL_MODE=inline``) so
they are deterministic and fork-free; real process pools are exercised in
``test_process_pool.py``.
"""

from __future__ import annotations

import pytest

from repro.baselines import materialize_quantile
from repro.core.quantile import LocalCandidates
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.kernels import active_backend, set_backend
from repro.parallel.merger import RankMerger
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.workloads.path import path_workload

PHIS = [(i + 1) / 20 for i in range(19)]


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    if request.param == "numpy":
        pytest.importorskip("numpy")
    previous = active_backend().name
    set_backend(request.param)
    yield request.param
    set_backend(previous)


def result_key(result):
    """The bit-equality contract: weight, rank, and total must match the
    serial path exactly (the pivot trajectory may legitimately differ)."""
    return (result.weight, result.target_index, result.total_answers, result.exact)


def skewed_db(rows=90, domain=4):
    """A binary join whose x2 column hash-partitions unevenly."""
    r = Relation("R", ("x1", "x2"), [(i, i % domain) for i in range(rows)])
    s = Relation("S", ("x2", "x3"), [(i % domain, i % 11) for i in range(rows // 2)])
    return Database([r, s])


class TestParallelMatchesSerial:
    def test_phi_sweep_bit_equality_both_backends(
        self, inline_mode, fanout_workload, backend
    ):
        workload = fanout_workload
        serial = Engine(workload.db).prepare(workload.query, workload.ranking)
        parallel = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel=3
        )
        assert parallel.shards == 3
        serial_batch = serial.quantiles(PHIS)
        parallel_batch = parallel.quantiles(PHIS)
        assert [result_key(r) for r in parallel_batch] == [
            result_key(r) for r in serial_batch
        ]
        assert all(not r.degraded for r in parallel_batch)

    def test_pivot_iterations_actually_run(self, inline_mode, fanout_workload):
        # Guard against the sweep silently short-circuiting to the terminal
        # materialize: with a forced termination_size of ~|D| the loop must
        # iterate, and the merged loop must still agree with serial.
        from repro.engine import PreparedQuery

        workload = fanout_workload
        serial = PreparedQuery(
            workload.query, workload.db, workload.ranking, termination_factor=1
        )
        parallel = PreparedQuery(
            workload.query,
            workload.db,
            workload.ranking,
            termination_factor=1,
            parallel=3,
        )
        for phi in (0.1, 0.5, 0.9):
            serial_result = serial.quantile(phi)
            parallel_result = parallel.quantile(phi)
            assert result_key(parallel_result) == result_key(serial_result)
            assert parallel_result.iterations >= 1

    def test_selection_sweep_covers_every_rank(self, inline_mode):
        # Exhaustive index selection hits every shard-boundary rank: the
        # cumulative-count handoff between lt/eq/gt branches and between
        # shards cannot be off by one anywhere.
        db = skewed_db(rows=24, domain=3)
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=3)
        total = serial.count()
        assert parallel.count() == total
        for index in range(total):
            assert result_key(parallel.selection(index)) == result_key(
                serial.selection(index)
            )

    def test_empty_shards_are_harmless(self, inline_mode):
        # K exceeds the number of distinct partition values: some shards
        # hold zero rows and zero answers, and the merge must skip them.
        db = skewed_db(rows=80, domain=2)  # x2 in {0, 1}, K = 5
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=5)
        assert parallel.shards == 5
        for phi in PHIS:
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )

    def test_all_rows_in_one_shard(self, inline_mode):
        # A constant partition column sends everything to a single shard;
        # the other shards are empty and the answer is still exact.
        r = Relation("R", ("x1", "x2"), [(i, 0) for i in range(60)])
        s = Relation("S", ("x2", "x3"), [(0, i) for i in range(9)])
        db = Database([r, s])
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=3)
        for phi in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )

    def test_phi_on_exact_shard_boundary(self, inline_mode):
        # Engineer a φ whose target index is exactly the cumulative count of
        # shard 0 — the first rank owned by the next shard in weight order.
        db = skewed_db(rows=40, domain=2)
        query, ranking = "R(x1,x2), S(x2,x3)", "sum(x1, x3)"
        serial = Engine(db).prepare(query, ranking)
        parallel = Engine(db).prepare(query, ranking, parallel=2)
        total = serial.count()
        assert parallel.count() == total
        # Per-shard totals partition the global count; probe both sides of
        # every per-shard cumulative boundary via index selection.
        boundaries = []
        running = 0
        for shard_total in parallel._parallel_session.shard_totals:
            running += shard_total
            if 0 < running < total:
                boundaries.extend([running - 1, running])
        assert boundaries, "expected at least one interior shard boundary"
        for index in boundaries:
            assert result_key(parallel.selection(index)) == result_key(
                serial.selection(index)
            )
            phi = index / total
            assert result_key(parallel.quantile(phi)) == result_key(
                serial.quantile(phi)
            )


class TestSessionLifecycle:
    def test_auto_resolves_on_this_host(self, inline_mode, fanout_workload):
        workload = fanout_workload
        prepared = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel="auto"
        )
        import os

        if (os.cpu_count() or 1) >= 2:
            assert prepared.shards == min(4, os.cpu_count())
        else:
            assert prepared.shards is None  # serial on a single core
        assert result_key(prepared.quantile(0.5)) == result_key(
            Engine(workload.db)
            .prepare(workload.query, workload.ranking)
            .quantile(0.5)
        )

    def test_engine_level_parallel_default(self, inline_mode, fanout_workload):
        workload = fanout_workload
        engine = Engine(workload.db, parallel=2)
        prepared = engine.prepare(workload.query, workload.ranking)
        assert prepared.shards == 2
        # Per-call override back to serial:
        serial = engine.prepare(workload.query, workload.ranking, parallel=None)
        assert serial.shards is None

    def test_closed_prepared_query_falls_back_silently(
        self, inline_mode, fanout_workload
    ):
        workload = fanout_workload
        serial = Engine(workload.db).prepare(workload.query, workload.ranking)
        parallel = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel=2
        )
        assert parallel.quantile(0.5).weight == serial.quantile(0.5).weight
        parallel.close()
        assert parallel.shards is None
        after = parallel.quantile(0.5)
        assert after.weight == serial.quantile(0.5).weight
        assert not after.degraded  # orderly close is not a degradation


RANKINGS = {
    "min": MinRanking(["x1", "x4"]),
    "max": MaxRanking(["x1", "x4"]),
    "lex": LexRanking(["x4", "x1"]),
    "sum": SumRanking(["x1", "x2", "x3"]),
}


@pytest.fixture(scope="module")
def family_workload():
    return path_workload(3, 50, join_domain=5, seed=13)


class TestOneLoopBothPaths:
    @pytest.mark.parametrize("termination_factor", [1, 12])
    @pytest.mark.parametrize("family", sorted(RANKINGS))
    def test_every_family_matches_serial(
        self, inline_mode, family_workload, backend, family, termination_factor
    ):
        db, query, ranking = family_workload.db, family_workload.query, RANKINGS[family]
        serial = PreparedQuery(
            query, db, ranking, termination_factor=termination_factor
        )
        sharded = PreparedQuery(
            query, db, ranking, termination_factor=termination_factor, parallel=2
        )
        phis = PHIS[::2]
        sharded_batch = sharded.quantiles(phis)
        assert [result_key(r) for r in sharded_batch] == [
            result_key(r) for r in serial.quantiles(phis)
        ]
        assert sharded.shards == 2
        assert any(r.iterations for r in sharded_batch)

    @pytest.mark.parametrize("parallel", [None, 2])
    def test_pivot_cache_limit_zero_disables_both_caches(
        self, inline_mode, family_workload, monkeypatch, parallel
    ):
        db, query, ranking = family_workload.db, family_workload.query, RANKINGS["sum"]
        prepared = PreparedQuery(
            query,
            db,
            ranking,
            termination_factor=1,
            pivot_cache_limit=0,
            parallel=parallel,
        )
        splits = []
        candidate_set = LocalCandidates if parallel is None else RankMerger
        original = candidate_set.split

        def counted(self, interval, handle):
            splits.append(interval)
            return original(self, interval, handle)

        monkeypatch.setattr(candidate_set, "split", counted)
        phis = (0.1, 0.3, 0.5, 0.7, 0.9)
        results = prepared.quantiles(phis)
        assert prepared.shards == parallel
        first = len(splits)
        assert first > 0
        prepared.quantiles(phis)
        # Nothing was memoized, so the repeat batch splits just as often.
        assert len(splits) == 2 * first
        assert prepared.pivot_cache_size == 0
        assert not any(prepared._answer_caches.values())
        for phi, result in zip(phis, results):
            expected = materialize_quantile(query, db, ranking, phi=phi)
            assert result_key(result) == result_key(expected)
