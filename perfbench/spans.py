"""Layer spans for the traced run, recorded from the benchmark's own code.

:class:`Tracer` wraps public layer functions *at their import sites* — the
module attribute or class attribute the caller actually looks up — so the
program itself is not edited.  Each wrapper opens a span on entry and closes
it on exit; a span's self time is its duration minus the time its child
spans cover.  Per layer the tracer keeps self seconds, call counts and the
layer's own work counts (rows, elements, bytes).

The tracer is installed around traced cycles only (:meth:`Tracer.installed`),
so untraced cycles run the unmodified program and the ratio of the two is
the tracing overhead.  Work done by a wrapper after its span closes (e.g.
pickling fan-out payloads to size them) is charged to no layer and taken
out of the covered wall time.
"""

from __future__ import annotations

import pickle
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: The kernel backend's fixed op set and the argument that sizes each call.
KERNEL_OPS = {
    "take": ("positions", 1),
    "argsort": ("values", 0),
    "group_by_hash": ("length", 1),
    "prefix_sum": ("values", 0),
    "masked_filter": ("mask", 0),
    "searchsorted": ("probes", 1),
    "sum_by_group": ("values", 1),
    "multiply": ("left", 0),
}

Hook = Callable[[Any, tuple, dict, Any], None]


class Tracer:
    """Aggregated layer spans over the traced part of one benchmark run."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Seconds spent inside wrappers outside any span (not program work).
        self.excluded_s = 0.0
        self._stack: list[list[Any]] = []
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _exclude(self, seconds: float) -> None:
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark code (e.g. building the database)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        before: Callable[[tuple, dict], Any] | None = None,
        after: Hook | None = None,
    ) -> Callable[..., Any]:
        """``function`` inside a ``name`` span.

        A call made while a span of the same name is open (a subclass
        calling ``super()``, ``Engine.prepare`` calling
        ``PreparedQuery.prepare``) is not counted again.  ``before`` runs
        before the span and its value is handed to ``after``, which runs
        after the span closes with ``(token, args, kwargs, result)``.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if any(frame[0] == name for frame in tracer._stack):
                return function(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            frame = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                started = time.perf_counter()
                after(token, args, kwargs, result)
                tracer._exclude(time.perf_counter() - started)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ #
    # Installation at import sites
    # ------------------------------------------------------------------ #
    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        before: Callable[[tuple, dict], Any] | None = None,
        after: Hook | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a traced version until uninstall."""
        had_own = attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, before, after))

        def restore() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._restore.append(restore)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every layer wrapper for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            while self._restore:
                self._restore.pop()()
            self._stack.clear()

    def _install(self) -> None:
        # Modules are looked up in sys.modules: ``repro.core.quantile`` is
        # shadowed as a package attribute by the re-exported ``quantile``.
        from repro.data.relation import Relation
        from repro.engine import Engine, PreparedQuery
        from repro.joins.tree_cache import TreeCache
        from repro.kernels import active_backend
        from repro.parallel.merger import ParallelSession, RankMerger
        from repro.parallel.planner import ShardPlanner
        from repro.trim.base import Trimmer

        engine = sys.modules["repro.engine"]
        loop = sys.modules["repro.core.quantile"]
        trees = sys.modules["repro.joins.message_passing"]
        shard = sys.modules["repro.parallel.worker"]
        counts = self.counts

        def count_rows(key: str) -> Hook:
            def hook(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
                counts[key] += len(result)

            return hook

        def loop_result(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
            counts["core.loop_iterations"] += result.iterations
            if not (result.stats and result.stats[-1].chosen == "eq"):
                counts["core.loop_terminals"] += 1

        def tree_misses(args: tuple, kwargs: dict) -> int:
            return args[0].misses

        def tree_hit(token: int, args: tuple, kwargs: dict, result: Any) -> None:
            if args[0].misses == token:
                counts["joins.tree_hits"] += 1

        def trim_rows(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
            counts["trim.rows_out"] += result.database.size

        def batch_iterations(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
            counts["core.iterations"] += sum(r.iterations for r in result)

        def payload_bytes(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
            counts["parallel.result_bytes"] += len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))

        def append_rows(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
            counts["data.append_rows"] += 1

        self.patch(engine, "ensure_canonical", "query.canonicalize")
        self.patch(loop, "ensure_canonical", "query.canonicalize")
        self.patch(engine, "build_join_tree", "query.join_tree")
        self.patch(trees, "build_join_tree", "query.join_tree")
        self.patch(engine, "full_reduce", "joins.reduce")
        self.patch(engine, "count_from_tree", "joins.count")
        self.patch(loop, "count_answers", "joins.count")
        self.patch(loop, "evaluate", "joins.evaluate", after=count_rows("joins.evaluate_rows"))
        self.patch(loop, "select_pivot", "pivot.select")
        # A shard's work, run inline under ``parallel.fan_out``.
        self.patch(shard, "full_reduce", "joins.reduce")
        self.patch(shard, "count_from_tree", "joins.count")
        self.patch(shard, "count_answers", "joins.count")
        self.patch(shard, "evaluate", "joins.evaluate", after=count_rows("joins.evaluate_rows"))
        self.patch(shard, "select_pivot", "pivot.select")
        self.patch(engine, "pivoting_quantile", "core.loop", after=loop_result)
        self.patch(TreeCache, "get", "joins.tree_get", before=tree_misses, after=tree_hit)
        for trimmer in _subclasses(Trimmer):
            if "trim_interval" in vars(trimmer):
                self.patch(trimmer, "trim_interval", "trim.interval", after=trim_rows)
        self.patch(Relation, "add", "data.append", after=append_rows)
        self.patch(Engine, "prepare", "engine.prepare")
        self.patch(PreparedQuery, "prepare", "engine.prepare")
        self.patch(PreparedQuery, "quantiles", "engine.execute", after=batch_iterations)
        self.patch(ShardPlanner, "plan", "parallel.plan")
        self.patch(ParallelSession, "start", "parallel.start")
        self.patch(ParallelSession, "fan_out", "parallel.fan_out", after=payload_bytes)
        self.patch(RankMerger, "solve", "parallel.merge")
        backend = active_backend()
        for op, (argument, position) in KERNEL_OPS.items():
            self.patch(backend, op, f"kernels.{op}", after=_element_counter(counts, op, argument, position))


def _element_counter(counts: Counter[str], op: str, argument: str, position: int) -> Hook:
    """Count the elements one kernel call processed (its sizing argument)."""
    key = f"kernels.{op}_elements"

    def hook(token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        value = kwargs[argument] if argument in kwargs else args[position]
        counts[key] += value if isinstance(value, int) else len(value)

    return hook


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
