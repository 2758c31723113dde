"""The benchmark tracer's patch sites exist, are called, and are restored.

``perfbench/spans.py`` wraps layer functions at the module or class
attribute their callers look up.  A refactor that renames a traced site, or
stops calling it there, would otherwise only show up as a failing or
silently thinner ``perfbench/run.py --trace 1``; this test fails instead.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.workloads.path import path_workload

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: The sites the benchmark's per-layer metrics depend on, as
#: ``(module or class path, attribute)``.
REQUIRED_SITES = [
    ("repro.engine", "pivoting_quantile"),
    ("repro.engine", "ensure_canonical"),
    ("repro.engine", "build_join_tree"),
    ("repro.engine", "full_reduce"),
    ("repro.engine", "count_from_tree"),
    ("repro.core.quantile", "select_pivot"),
    ("repro.core.quantile", "count_answers"),
    ("repro.core.quantile", "evaluate"),
    ("repro.core.quantile", "ensure_canonical"),
    ("repro.parallel.worker", "full_reduce"),
    ("repro.parallel.worker", "count_from_tree"),
    ("repro.parallel.worker", "count_answers"),
    ("repro.parallel.worker", "evaluate"),
    ("repro.parallel.worker", "select_pivot"),
    ("repro.parallel.merger.RankMerger", "solve"),
    ("repro.parallel.merger.ParallelSession", "start"),
    ("repro.parallel.merger.ParallelSession", "fan_out"),
    ("repro.parallel.planner.ShardPlanner", "plan"),
    ("repro.joins.tree_cache.TreeCache", "get"),
]


def owner_path(owner):
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    # A module, or an object such as the active kernel backend.
    return getattr(owner, "__name__", f"{type(owner).__qualname__} instance")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    return importlib.import_module("spans")


def test_trace_sites_are_called_and_restored(spans, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")

    class SiteRecorder(spans.Tracer):
        """Counts calls per patched site and remembers what it replaced."""

        def __init__(self):
            super().__init__()
            self.originals = {}
            self.site_calls = Counter()

        def patch(self, owner, attribute, name, before=None, after=None):
            site = (owner_path(owner), attribute)
            self.originals[site] = (owner, attribute, vars(owner).get(attribute))

            def counting(args, kwargs):
                self.site_calls[site] += 1
                return before(args, kwargs) if before is not None else None

            super().patch(owner, attribute, name, counting, after)

    workload = path_workload(3, 60, join_domain=4, ranking=None, seed=7)
    query, ranking = "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "max(x1, x4)"
    phis = [0.05, 0.3, 0.5, 0.7, 0.95]
    tracer = SiteRecorder()
    with tracer.installed():
        # Factor 1 makes the loop pivot, factor 12 makes it reach the
        # terminal materialize-and-select.
        for parallel in (None, 2):
            for factor in (1, 12):
                prepared = Engine(workload.db).prepare(
                    query, ranking, termination_factor=factor, parallel=parallel
                )
                assert prepared.shards == parallel
                prepared.quantiles(phis)
                prepared.close()

    uncalled = [site for site in REQUIRED_SITES if tracer.site_calls[site] == 0]
    assert not uncalled, f"traced sites never called: {uncalled}"
    assert tracer.calls["core.loop"] and tracer.calls["parallel.merge"]
    for site, (owner, attribute, original) in tracer.originals.items():
        assert vars(owner).get(attribute) is original, f"{site} not restored"
