"""Real process-pool tests: K=2 equality and crash degradation.

These fork actual worker processes, so the workload is kept small; the
exhaustive equality sweeps live in ``test_merge.py`` (inline mode).
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.exceptions import DegradedResultWarning, WorkerCrashError, WorkerPoolClosedError
from repro.parallel.pool import WorkerPool
from repro.parallel.worker import crash_for_tests, run_shard_task


def result_key(result):
    return (result.weight, result.target_index, result.total_answers, result.exact)


class TestProcessEquality:
    def test_two_shard_batch_matches_serial(self, fanout_workload):
        workload = fanout_workload
        serial = Engine(workload.db).prepare(workload.query, workload.ranking)
        parallel = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel=2
        )
        try:
            assert parallel.shards == 2
            assert not parallel._parallel_session.inline
            phis = (0.1, 0.5, 0.9)
            assert [result_key(r) for r in parallel.quantiles(phis)] == [
                result_key(r) for r in serial.quantiles(phis)
            ]
        finally:
            parallel.close()


class TestCrashDegradation:
    def test_killed_worker_degrades_to_serial_without_hanging(self, fanout_workload):
        workload = fanout_workload
        prepared = Engine(workload.db).prepare(
            workload.query, workload.ranking, parallel=2
        )
        try:
            baseline = prepared.quantile(0.5)  # session is live
            assert prepared.shards == 2
            # Hard-kill lane 0's worker process out from under the session.
            pool = prepared._parallel_session._pool
            # Wait for the kill: the lane is marked broken before the
            # crash future fails, so the next submit sees a dead lane.
            pool._lanes[0].submit(crash_for_tests).exception(timeout=30)
            with pytest.warns(DegradedResultWarning):
                degraded = prepared.quantile(0.25)
            assert degraded.degraded
            assert degraded.degradation.startswith("parallel -> serial")
            assert degraded.exact  # the serial re-run is still exact
            # The session is gone; later calls are clean serial answers.
            assert prepared.shards is None
            assert "worker crashed" in prepared.parallel_note
            after = prepared.quantile(0.5)
            assert not after.degraded
            assert result_key(after) == result_key(baseline)
        finally:
            prepared.close()

    def test_pool_maps_broken_lane_to_worker_crash_error(self):
        pool = WorkerPool(1)
        try:
            pool._lanes[0].submit(crash_for_tests).exception(timeout=30)
            with pytest.raises((WorkerCrashError, WorkerPoolClosedError)):
                future = pool.submit(0, "pivot", None, None)
                pool.result(0, future)
        finally:
            pool.close()

    def test_closed_pool_raises_pool_closed(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(WorkerPoolClosedError):
            pool.submit(0, "pivot", None, None)
        pool.close()  # idempotent


class TestEnvelope:
    def test_unknown_op_travels_as_typed_error(self):
        status, payload, rows = run_shard_task(10_000, "bogus", None, None)
        assert status == "error"
        name, message = payload
        assert name == "ReproError"
        assert "bogus" in message
