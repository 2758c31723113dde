#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload path-max-batch --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

A run re-executes itself with a pinned ``PYTHONHASHSEED``, generates the
workload's inputs from ``--seed``, asks the oracle (:mod:`oracle`, forked
children) for the exact answers, then runs closed-loop
cycles for ``--seconds`` seconds, each after a sample of fixed reference
work, and checks every answer.  With ``--trace 0`` it reports the
end-to-end metrics, times scaled to the reference speed
(:func:`reference_s`); with ``--trace 1`` it
alternates untraced and traced cycles and reports the per-layer metrics
(:mod:`spans`).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (host, backend, sample counts, percentiles).  The
exit code is 0 when every answer matched the oracle, 1 when one did not,
and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Setup-only repeats per instance before the measured cycles (extra
#: ``setup_s`` samples; the first also finishes lazy imports).
SETUP_REPEATS = 3
#: Seed kept out of tuning, for confirming later claims (see README.md).
HELD_OUT_SEED = 1009
#: String hashing is randomized per process; every run pins it, so runs of
#: one seed iterate string sets and dicts in the same order.
HASH_SEED = "0"
#: Seconds the reference work takes at the speed end-to-end times are
#: reported at (see :func:`reference_s`).
REFERENCE_S = 0.07

Tamper = Callable[[list[Any]], list[Any]]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_available() -> bool:
    return (SOURCE / "repro" / "__init__.py").is_file()


TIMES = ("setup_s", "cold_batch_s", "warm_batch_s", "refresh_s")


class Samples:
    """Timings and outcomes collected by the cycles of one run.

    Timings are kept per instance.  A run's figure for a timing is the mean
    over instances of each instance's median: the median shrugs off a
    disturbed sample, and the mean over instances moves smoothly with the
    instances' mix, where a median pooled over instances whose times
    cluster apart (e.g. 0.1 s and 0.2 s) jumps from one cluster to the other.
    """

    def __init__(self) -> None:
        self.times: dict[str, dict[int, list[float]]] = {name: {} for name in TIMES}
        self.attempted = 0
        self.failed = 0
        #: Seconds of timed work (the wall time the traced layers must cover).
        self.timed_s = 0.0
        #: ``(pivot cache entries, estimated bytes)`` of each op's prepared query.
        self.gauges: list[tuple[int, int]] = []
        #: Seconds of each :func:`reference_s` sample taken between cycles.
        self.reference: list[float] = []

    def add(self, name: str, instance: int, seconds: float) -> None:
        self.times[name].setdefault(instance, []).append(seconds)

    def statistic(self, name: str) -> float | None:
        per_instance = self.times[name].values()
        if not per_instance:
            return None
        return statistics.mean(statistics.median(values) for values in per_instance)

    def summary(self, name: str) -> dict[str, Any]:
        """The statistic, the sample count, and the highest percentile of the
        pooled samples that has ten samples beyond it."""
        pooled = [v for values in self.times[name].values() for v in values]
        out: dict[str, Any] = {
            "n": len(pooled),
            "instances": len(self.times[name]),
            "mean_of_instance_medians": self.statistic(name),
        }
        if len(pooled) >= 20:
            percentile = int(100 * (1 - 10 / len(pooled)))
            out[f"p{percentile}"] = statistics.quantiles(pooled, n=100)[percentile - 1]
        else:
            out["tail"] = "fewer than 20 samples: no percentile has ten beyond it"
        return out


class Runner:
    """Runs setups and cycles of one workload's instances, checking every answer."""

    def __init__(self, workload: Any, instances: list[Any], expected: list[Any],
                 tamper: Tamper | None) -> None:
        self.workload = workload
        self.instances = instances
        self.expected = expected
        self.tamper = tamper

    def setup(self, samples: Samples, instance: int, tracer: Any = None) -> tuple[Any, Any]:
        """Rows -> Database -> ready prepared query; records ``setup_s``."""
        from workloads import build_database

        tables = self.instances[instance].tables
        started = time.perf_counter()
        if tracer is None:
            db = build_database(tables)
        else:
            with tracer.span("data.load"):
                db = build_database(tables)
        handle = self.workload.prepare(db)
        elapsed = time.perf_counter() - started
        samples.add("setup_s", instance, elapsed)
        samples.timed_s += elapsed
        return db, handle

    def cycle(self, samples: Samples, instance: int, tracer: Any = None) -> None:
        """One setup of ``instance`` and the ops that follow it (see :mod:`workloads`)."""
        from workloads import apply_appends

        workload = self.workload
        expected = self.expected[instance]
        gc.collect()
        try:
            db, handle = self.setup(samples, instance, tracer)
        except Exception:  # noqa: BLE001 - a failed setup fails its ops; keep running
            traceback.print_exc()
            samples.attempted += workload.ops_per_cycle
            samples.failed += workload.ops_per_cycle
            return
        if not workload.live:
            lead_s = samples.times["setup_s"][instance][-1]
            self.op(samples, instance, handle, lead_s, expected[0])
            return
        close(handle)
        for round_index, batch in enumerate(self.instances[instance].appends):
            gc.collect()
            try:
                started = time.perf_counter()
                apply_appends(db, batch)
                handle = workload.prepare(db)
                elapsed = time.perf_counter() - started
            except Exception:  # noqa: BLE001 - count the op as failed, go on
                traceback.print_exc()
                samples.attempted += 1
                samples.failed += 1
                continue
            samples.timed_s += elapsed
            self.op(samples, instance, handle, elapsed, expected[round_index])

    def op(self, samples: Samples, instance: int, handle: Any, lead_s: float,
           expected: Any) -> None:
        """Cold batch then warm batch on one prepared query, both checked.

        ``lead_s`` is the time from the data change to the ready prepared
        query, so ``refresh_s`` is the time from the change to its answers.
        """
        from oracle import check_batch

        workload = self.workload
        samples.attempted += 1
        try:
            started = time.perf_counter()
            cold = handle.quantiles(workload.cold_phis)
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = handle.quantiles(workload.warm_phis)
            warm_s = time.perf_counter() - started
            prepared = prepared_query(handle)
            sharded = workload.parallel is None or (
                prepared.shards == workload.parallel and prepared.parallel_note is None
            )
            samples.gauges.append((prepared.pivot_cache_size, prepared.estimated_bytes()))
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            traceback.print_exc()
            samples.failed += 1
            return
        finally:
            close(handle)
        if self.tamper is not None:
            cold = self.tamper(cold)
        ok = (
            sharded
            and check_batch(cold, workload.cold_phis, expected)
            and check_batch(warm, workload.warm_phis, expected)
        )
        if not ok:
            samples.failed += 1
            print(f"oracle mismatch: {workload.name} instance {instance}", file=sys.stderr)
            return
        samples.add("cold_batch_s", instance, cold_s)
        samples.add("warm_batch_s", instance, warm_s)
        samples.add("refresh_s", instance, lead_s + cold_s)
        samples.timed_s += cold_s + warm_s


def prepared_query(handle: Any) -> Any:
    """The ``PreparedQuery`` behind an engine handle or a ``QuantileSolver``."""
    return getattr(handle, "prepared", handle)


def close(handle: Any) -> None:
    """Release the prepared query's shard pool (inline shard states included)."""
    prepared_query(handle).close()


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """High-water resident memory of this process (the oracle runs elsewhere)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: Any, seed: int, instances: list[Any], expected: list[Any]) -> dict[str, Any]:
    """What tells a host, backend or input change apart from a code change."""
    from repro.kernels import backend_name

    from workloads import instance_seed

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    # The ceiling keeps git from looking above the checkout for a repository.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=git_env,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sizes = []
    for j, (inputs, states) in enumerate(zip(instances, expected)):
        rows = sum(len(table[2]) for table in inputs.tables)
        appended = sum(len(r) for batch in inputs.appends for r in batch.values())
        sizes.append({
            "instance_seed": instance_seed(seed, j),
            "database_size": [rows, rows + appended] if appended else rows,
            "answers": [states[0][0], states[-1][0]] if len(states) > 1 else states[0][0],
        })
    return {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "kernel_backend": backend_name(),
        "instances": sizes,
    }


def reference_s() -> float:
    """Seconds one pass of fixed work takes, none of it the program's code.

    The host's speed drifts by a third and more over minutes, nearly alike
    for every code path measured, which no statistic within one run
    averages out.  This work mixes interpreter-bound dict and tuple handling with
    C-bound sorting, as the program does; a run scales its times by
    ``REFERENCE_S`` over the median of its samples of it.
    """
    started = time.perf_counter()
    rng = random.Random(12345)
    for _ in range(4):
        rows = [(rng.randrange(1000), rng.randrange(50), rng.random()) for _ in range(5000)]
        groups: dict[int, list[int]] = {}
        for a, b, c in rows:
            groups.setdefault(b, []).append(a * 3 + int(c * 7))
        for key in sorted(groups):
            sorted(groups[key])
        column = [row[0] for row in rows]
        for _ in range(10):
            sorted(column)
    return time.perf_counter() - started


def speed_scale(samples: Samples) -> float:
    """Factor that brings this run's times to the reference speed."""
    return REFERENCE_S / statistics.median(samples.reference)


def end_to_end(samples: Samples) -> dict[str, float]:
    scale = speed_scale(samples)
    metrics = {name: samples.statistic(name) for name in TIMES}
    metrics = {name: value * scale for name, value in metrics.items() if value is not None}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def per_layer(traced: Samples, untraced: Samples, tracer: Any) -> dict[str, float]:
    """Per-op layer metrics of the traced cycles, plus coverage and overhead."""
    from spans import KERNEL_OPS

    ops = max(1, traced.attempted)
    seconds, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    for layer in (
        "query.canonicalize", "query.join_tree", "joins.reduce", "joins.count",
        "joins.evaluate", "pivot.select", "trim.interval", "joins.tree_get",
        "data.load", "data.append", "engine.prepare", "engine.execute",
        "parallel.plan", "parallel.start", "parallel.fan_out",
    ):
        metrics[f"{layer}_s"] = seconds[layer] / ops
    for layer in ("joins.count", "joins.evaluate", "pivot.select", "trim.interval",
                  "joins.tree_get", "parallel.fan_out"):
        metrics[f"{layer}_calls"] = calls[layer] / ops
    metrics["core.loop_self_s"] = seconds["core.loop"] / ops
    metrics["parallel.merge_self_s"] = seconds["parallel.merge"] / ops
    metrics["joins.evaluate_rows"] = counts["joins.evaluate_rows"] / ops
    metrics["trim.rows_out"] = counts["trim.rows_out"] / ops
    metrics["data.append_rows"] = counts["data.append_rows"] / ops
    metrics["parallel.result_bytes"] = counts["parallel.result_bytes"] / ops
    metrics["joins.tree_hit_ratio"] = ratio(counts["joins.tree_hits"], calls["joins.tree_get"])
    metrics["core.iterations"] = counts["core.iterations"] / ops
    metrics["core.pivot_cache_hit_ratio"] = ratio(
        counts["core.loop_iterations"] - calls["pivot.select"], counts["core.loop_iterations"]
    )
    metrics["core.answer_cache_hit_ratio"] = ratio(
        counts["core.loop_terminals"] - calls["joins.evaluate"], counts["core.loop_terminals"]
    )
    for op in KERNEL_OPS:
        metrics[f"kernels.{op}_s"] = seconds[f"kernels.{op}"] / ops
        metrics[f"kernels.{op}_calls"] = calls[f"kernels.{op}"] / ops
        metrics[f"kernels.{op}_elements"] = counts[f"kernels.{op}_elements"] / ops
    gauges = traced.gauges or [(0, 0)]
    metrics["engine.pivot_cache_entries"] = statistics.mean(g[0] for g in gauges)
    metrics["engine.estimated_bytes"] = statistics.mean(g[1] for g in gauges)
    layered = sum(s for name, s in seconds.items() if not name.startswith("engine."))
    metrics["trace.coverage"] = ratio(layered, traced.timed_s - tracer.excluded_s)
    metrics["trace.overhead"] = ratio(
        traced.statistic("cold_batch_s") or 0.0, untraced.statistic("cold_batch_s") or 0.0
    )
    return metrics


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def run_one(args: argparse.Namespace, tamper: Tamper | None) -> int:
    from oracle import compute_expected
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    instances = workload.generate(args.seed)
    expected = compute_expected(workload.name, args.seed, len(instances))
    runner = Runner(workload, instances, expected, tamper)

    untraced = Samples()
    for instance in range(len(instances)):
        for _ in range(SETUP_REPEATS):
            close(runner.setup(untraced, instance)[1])
    traced = Samples()
    tracer = Tracer()
    started = time.perf_counter()
    cycles = 0
    # Every instance runs at least once; after that the run stops at the
    # first cycle boundary past --seconds.
    while cycles < len(instances) or time.perf_counter() - started < args.seconds:
        instance = cycles % len(instances)
        untraced.reference.append(reference_s())
        runner.cycle(untraced, instance)
        if args.trace:
            with tracer.installed():
                runner.cycle(traced, instance, tracer)
        cycles += 1

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if args.trace:
        values = per_layer(traced, untraced, tracer)
    else:
        values = end_to_end(untraced)
    units = load_units()
    details = environment(workload, args.seed, instances, expected)
    details["error_rate"] = failed / attempted if attempted else 1.0
    details["samples"] = {name: untraced.summary(name) for name in TIMES}
    details["reference_s"] = {
        "n": len(untraced.reference),
        "median": statistics.median(untraced.reference),
        "speed_scale": speed_scale(untraced),
    }
    if args.trace:
        details["traced_samples"] = {"cold_batch_s": traced.summary("cold_batch_s")}
    print(json.dumps({"details": details}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a table of every metric, then JSON."""
    from workloads import WORKLOADS

    results: dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            status = 1
        if not lines:
            results[name] = {"correct": False, "error": f"exit code {completed.returncode}"}
            continue
        result = json.loads(lines[-1])
        result["details"] = json.loads(lines[-2])["details"] if len(lines) >= 2 else {}
        results[name] = result
        error_rate = result["details"].get("error_rate")
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:36s} {value['value']:.6g} {value['unit']}")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None, tamper: Tamper | None = None) -> int:
    args = parse_args(argv)
    if not program_available():
        print(f"error: the program under test is missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    from repro.parallel import PARALLEL_MODE_ENV_VAR
    from workloads import WORKLOADS

    # Shards run inline in this process: real worker processes on a host
    # with few shared cores time the scheduler, not the program.
    os.environ[PARALLEL_MODE_ENV_VAR] = "inline"

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, tamper)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
