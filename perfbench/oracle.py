"""The untimed correctness oracle: full materialization in other processes.

``repro.baselines.materialize.answer_weights`` materializes every answer and
sorts the weights.  It runs in forked children that regenerate the inputs
from the seed before any measurement starts, so neither its time nor its
memory reaches the measured process (``peak_rss_mb`` is that process's own
high-water mark).  Per instance and database state the children return
``|Q(D)|`` and the expected ``(target index, weight)`` of every φ the
workload asks for.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any

#: Spawned oracle processes (one per core of a 2-core host).
ORACLE_WORKERS = 2
#: ``{phi: (target_index, weight)}`` plus the total, for one database state.
Expected = tuple[int, dict[float, tuple[int, Any]]]


def target_index(phi: float, total: int) -> int:
    """Algorithm 1, line 4: ``⌊φ·|Q(D)|⌋`` clamped to ``[0, total − 1]``."""
    return min(total - 1, max(0, math.floor(phi * total)))


def instance_answers(workload_name: str, seed: int, instance: int) -> list[Expected]:
    """The oracle's answers for every database state of one instance."""
    from repro.baselines.materialize import answer_weights

    from workloads import WORKLOADS, instance_seed

    workload = WORKLOADS[workload_name]
    inputs = workload.instance(instance_seed(seed, instance))
    query, ranking = workload.parsed()
    phis = sorted(set(workload.cold_phis) | set(workload.warm_phis))
    states = []
    # Static workloads have one state (the base rows); live ones one per round.
    for rounds_applied in range(1, len(inputs.appends) + 1) or range(1):
        weights = answer_weights(query, inputs.database_at(rounds_applied), ranking)
        total = len(weights)
        per_phi = {}
        for phi in phis:
            index = target_index(phi, total)
            per_phi[phi] = (index, weights[index])
        states.append((total, per_phi))
        del weights
    return states


def compute_expected(workload_name: str, seed: int, instances: int) -> list[list[Expected]]:
    """The oracle's answers per instance, from two forked children.

    Forked, not spawned: a spawn context starts multiprocessing's resource
    tracker, a helper process that outlives the pool and would be left
    running after the benchmark exits.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=ORACLE_WORKERS, mp_context=context) as pool:
        futures = [
            pool.submit(instance_answers, workload_name, seed, j) for j in range(instances)
        ]
        return [future.result() for future in futures]


def check_batch(results: list[Any], phis: tuple[float, ...], expected: Expected) -> bool:
    """Whether every result of a φ-batch matches the oracle exactly."""
    total, per_phi = expected
    if len(results) != len(phis):
        return False
    for phi, result in zip(phis, results):
        index, weight = per_phi[phi]
        if (
            result.total_answers != total
            or result.target_index != index
            or result.weight != weight
        ):
            return False
    return True
