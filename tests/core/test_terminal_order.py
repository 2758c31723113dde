"""Columnar terminal selection against the per-dict oracle, ties included.

Algorithm 1 ends by materializing a terminal interval's candidates and
selecting by rank.  The terminal weighs whole columns and orders them with
a stable argsort; :func:`repro.baselines.materialize.sorted_answers` keeps
the per-dict ``weight_of`` sort, so it is an oracle independent of the
weight column — for the weights and for the order of tied answers.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.baselines.materialize import materialize_quantile, sorted_answers
from repro.core.quantile import LocalCandidates
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import evaluate
from repro.kernels import active_backend, set_backend
from repro.parallel import worker
from repro.parallel.merger import RankMerger
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.trim import exact_trimmer_for

PHIS = [0.0, 0.05, 0.3, 0.5, 0.77, 0.95, 1.0]


def relation(rng, name, rows, domain):
    return Relation(
        name, ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]
    )


#: name -> (query, MIN/MAX variables, SUM/LEX variables, database factory).
#: Small domains make ties plentiful.
CASES = {
    "path": (
        "R1(x1, x2), R2(x2, x3), R3(x3, x4)",
        ["x1", "x4"],
        ["x1", "x2"],
        lambda rng: Database([relation(rng, f"R{i}", 30, 5) for i in (1, 2, 3)]),
    ),
    "repeated-variable": (
        "R(x, x), S(x, y)",
        ["x", "y"],
        ["x", "y"],
        lambda rng: Database([relation(rng, "R", 30, 4), relation(rng, "S", 30, 5)]),
    ),
    "cartesian": (
        "R(x, y), S(z, w)",
        ["x", "w"],
        ["x", "z"],
        lambda rng: Database([relation(rng, "R", 10, 4), relation(rng, "S", 10, 4)]),
    ),
    "self-join": (
        "R(x, y), R(y, z)",
        ["x", "z"],
        ["x", "y"],
        lambda rng: Database([relation(rng, "R", 30, 6)]),
    ),
}

RANKINGS = {
    "min": lambda case: MinRanking(case[1]),
    "max": lambda case: MaxRanking(case[1]),
    "sum": lambda case: SumRanking(case[2]),
    "lex": lambda case: LexRanking(list(reversed(case[2]))),
}


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    if request.param == "numpy":
        pytest.importorskip("numpy")
    previous = active_backend().name
    set_backend(request.param)
    yield request.param
    set_backend(previous)


def case_inputs(case_name, ranking_name, seed=3):
    case = CASES[case_name]
    return JoinQuery.parse(case[0]), case[3](random.Random(seed)), RANKINGS[ranking_name](case)


def assert_matches_oracle(terminal, oracle):
    """Every position of ``terminal`` holds the oracle's answer."""
    assert len(terminal) == len(oracle)
    for position, expected in enumerate(oracle):
        assignment = terminal.assignment(position)
        assert assignment == expected
        assert list(assignment) == list(expected)  # same key order too


@pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
@pytest.mark.parametrize("case_name", sorted(CASES))
def test_terminal_order_matches_sorted_answers(backend, case_name, ranking_name):
    query, db, ranking = case_inputs(case_name, ranking_name)
    canonical_query, canonical_db = ensure_canonical(query, db)
    candidates = LocalCandidates(
        canonical_query, canonical_db, ranking, exact_trimmer_for(ranking), TreeCache()
    )
    terminal = candidates.terminal(WeightInterval(), (canonical_query, canonical_db))
    assert len(terminal) > 0
    oracle = sorted_answers(canonical_query, canonical_db, ranking)
    assert_matches_oracle(terminal, oracle)


class _Recorder:
    """Records every terminal the pivoting loop materializes."""

    def __init__(self, monkeypatch):
        self.serial: list = []
        self.sharded: list = []
        for owner, log in ((LocalCandidates, self.serial), (RankMerger, self.sharded)):
            original = owner.terminal

            def recording(candidates, interval, handle, original=original, log=log):
                terminal = original(candidates, interval, handle)
                log.append((candidates, interval, handle, terminal))
                return terminal

            monkeypatch.setattr(owner, "terminal", recording)


def merged_oracle(merger, interval, handle):
    """The shards' per-dict sorted answers, concatenated in shard order and
    merged by one stable sort on the weight (the sharded tie order)."""
    session = merger.session
    ranking = session.ranking
    answers = []
    for shard in range(session.num_shards):
        if handle[shard] == 0:
            continue
        state = worker._SHARD_STATES[session._pool._state_base + shard]
        query, db, _ = worker._candidate(state, interval)
        answers.extend(
            {v: answer[v] for v in session.var_order}
            for answer in sorted_answers(query, db, ranking)
        )
    return sorted(answers, key=ranking.weight_of)


@pytest.mark.parametrize("sharded", [False, True], ids=["serial", "k2-inline"])
@pytest.mark.parametrize("factor", [1, 12])
@pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
@pytest.mark.parametrize("case_name", sorted(CASES))
def test_engine_differential(
    monkeypatch, backend, case_name, ranking_name, factor, sharded
):
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")
    query, db, ranking = case_inputs(case_name, ranking_name)
    recorder = _Recorder(monkeypatch)
    prepared = Engine(db).prepare(
        query, ranking, termination_factor=factor, parallel=2 if sharded else None
    )
    try:
        if sharded and case_name in ("path", "self-join"):
            assert prepared.shards == 2
        oracle = sorted_answers(query, db, ranking)
        for phi in PHIS:
            result = prepared.quantile(phi)
            expected = materialize_quantile(query, db, ranking, phi=phi)
            assert (result.weight, result.target_index, result.total_answers) == (
                expected.weight,
                expected.target_index,
                expected.total_answers,
            )
            # Any answer of the quantile's weight is a correct quantile; the
            # pivot (eq branch) may be any of them.
            assert result.assignment in [
                answer for answer in oracle if ranking.weight_of(answer) == result.weight
            ]
            if result.iterations == 0 and prepared.shards is None:
                # The whole join was the terminal: the tie order is the oracle's.
                assert result.assignment == oracle[result.target_index]
        for _, _, handle, terminal in recorder.serial:
            expected_order = sorted_answers(*handle, ranking)
            assert_matches_oracle(terminal, expected_order)
        for merger, interval, handle, terminal in recorder.sharded:
            expected_order = merged_oracle(merger, interval, handle)
            assert_matches_oracle(terminal, expected_order)
        if factor == 12:
            # |Q(D)| <= 12 |D| here: the first interval is already terminal.
            assert recorder.serial or recorder.sharded
    finally:
        prepared.close()


def test_empty_terminal(backend):
    query = JoinQuery.parse("R(x, y), S(y, z)")
    db = Database([Relation("R", ("a", "b"), [(1, 2)]), Relation("S", ("a", "b"), [(3, 4)])])
    answers = evaluate(query, db)
    assert len(answers) == 0 and answers.assignments() == []
    ranking = MaxRanking(["x", "z"])
    candidates = LocalCandidates(query, db, ranking, exact_trimmer_for(ranking), TreeCache())
    assert len(candidates.terminal(WeightInterval(), (query, db))) == 0


def test_empty_sharded_terminal(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")
    query, db, ranking = case_inputs("path", "max")
    prepared = Engine(db).prepare(query, ranking, parallel=2)
    try:
        assert prepared.shards == 2
        merger = prepared._ensure_parallel()
        assert len(merger.terminal(WeightInterval(), (0, 0))) == 0
    finally:
        prepared.close()


def test_deep_path_terminal_does_not_recurse():
    """Weighing and ordering a 400-level path's terminal is iterative too."""
    depth = 400
    query = JoinQuery([Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in range(depth)])
    db = Database(
        [Relation(f"R{i}", (f"x{i}", f"x{i + 1}"), [(0, 0), (1, 1)]) for i in range(depth)]
    )
    ranking = SumRanking(["x0", f"x{depth}"])
    candidates = LocalCandidates(query, db, ranking, exact_trimmer_for(ranking), TreeCache())
    tree = candidates.tree_cache.get(query, db)  # built outside the tightened limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        terminal = candidates.terminal(WeightInterval(), (query, db))
        picked = [terminal.assignment(position) for position in range(len(terminal))]
    finally:
        sys.setrecursionlimit(limit)
    assert tree is candidates.tree_cache.get(query, db)
    assert [ranking.weight_of(answer) for answer in picked] == [0.0, 2.0]
    assert all(value == 1 for value in picked[1].values())
