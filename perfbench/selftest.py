#!/usr/bin/env python3
"""Self-test of the benchmark's own checks (not a performance run).

Usage, from the repository root::

    python3 perfbench/selftest.py

It shows that

1. the oracle comparison rejects a batch with one corrupted weight, target
   index or answer count;
2. a run whose answers are corrupted before checking reports
   ``correct: false``, counts every op as failed and exits 1, while the
   same run untouched exits 0;
3. in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when all three hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own module, beside this file)

WORKLOAD = "path-max-batch"
SEED = 5


def corrupt_first(results: list) -> list:
    """The batch with its first answer's weight off by one."""
    first = dataclasses.replace(results[0], weight=results[0].weight + 1)
    return [first] + list(results[1:])


def check_batch_rejects_corruption() -> None:
    from oracle import check_batch

    @dataclasses.dataclass(frozen=True)
    class Result:
        weight: int
        target_index: int
        total_answers: int

    phis = (0.25, 0.5)
    expected = (8, {0.25: (2, 10), 0.5: (4, 20)})
    good = [Result(10, 2, 8), Result(20, 4, 8)]
    assert check_batch(good, phis, expected)
    for bad in (Result(21, 4, 8), Result(20, 3, 8), Result(20, 4, 9)):
        assert not check_batch([good[0], bad], phis, expected), bad


def run_in_process(tamper: run.Tamper | None) -> tuple[int, dict]:
    argv = ["--workload", WORKLOAD, "--seed", str(SEED), "--seconds", "0.5", "--trace", "0"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(argv, tamper=tamper)
    return code, json.loads(captured.getvalue().strip().splitlines()[-1])


def corrupted_run_fails() -> None:
    code, result = run_in_process(corrupt_first)
    assert code == 1, code
    assert result["correct"] is False, result
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"], result
    code, result = run_in_process(None)
    assert code == 0, code
    assert result["correct"] is True and result["failed"] == 0, result


def fails_without_program() -> None:
    with tempfile.TemporaryDirectory() as directory:
        checkout = Path(directory)
        shutil.copy2(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
        shutil.copytree(HERE, checkout / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=180,
        )
    assert completed.returncode != 0, completed
    assert '"correct"' not in completed.stdout, completed.stdout


def main() -> int:
    for check in (check_batch_rejects_corruption, corrupted_run_fails, fails_without_program):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
