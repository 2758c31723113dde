"""The benchmark's four workloads: seeded inputs and one closed-loop cycle each.

Every workload drives only the public API (``Engine``/``PreparedQuery``,
``QuantileSolver``, ``Relation.add``).  A workload owns no repro objects
between cycles: :meth:`Workload.generate` returns plain rows, and each cycle
builds its own ``Database`` from them, so ``setup_s`` always measures the
path from generated rows to a ready prepared query.

A cycle is ``setup`` followed by one or more ops:

* static workloads (``path-max-batch``, ``path-max-k2-inline``,
  ``star-min-solver``)
  run one op per cycle: a cold φ-batch on the freshly prepared query, then a
  warm batch on the same prepared query;
* ``path-sum-live`` runs ``LIVE_ROUNDS`` ops per cycle, each appending rows
  through ``Relation.add``, re-preparing through a fresh ``Engine`` and
  answering the dashboard batch (cold), then the dashboard again (warm).

The warm batch repeats the cold one, so it is served from the prepared
query's caches, except on ``star-min-solver``: there it is the offset batch,
which Algorithm 1's termination factor 1 makes new pivoting work every time.
(Offset batches elsewhere hit or miss the cached terminal intervals
depending on the seed, which makes their time bimodal across seeds.)

The database a cycle mutates is rebuilt from the base rows at the next
cycle, so round ``r`` always sees the same data whatever the run length, and
the oracle needs one answer set per round, not per op.

A run spreads its cycles over several *instances*: independent databases
generated from seeds derived from the run's seed (:func:`instance_seed`).
The time of one φ-batch depends on the data as much as on the host — on
``star-min-solver`` it varies by about 17% from one seed to the next — so
a run reports the mean over its instances, which keeps the figures of
runs with different seeds comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro import Database, Engine, JoinQuery, QuantileSolver, Relation, parse_ranking
from repro.workloads.path import path_workload
from repro.workloads.star import star_workload

Row = tuple[Any, ...]
#: ``(relation name, schema, rows)`` for every relation of a database.
Tables = list[tuple[str, tuple[str, ...], list[Row]]]

PATH_QUERY = "R1(x1, x2), R2(x2, x3), R3(x3, x4)"
STAR_QUERY = "R1(x0, x1), R2(x0, x2), R3(x0, x3)"

#: The 19-φ cold batch and its offset warm batch.
BATCH_PHIS = tuple((i + 1) / 20 for i in range(19))
OFFSET_PHIS = tuple((i + 1.5) / 20 for i in range(19))
#: ``path-sum-live``'s dashboard batch.
DASHBOARD_PHIS = (0.5, 0.9, 0.95, 0.99, 0.999)

#: Append rounds per ``path-sum-live`` cycle, and rows per relation per round.
LIVE_ROUNDS = 2
LIVE_ROWS_PER_ROUND = 20
#: Endpoint-value domain of the generators (their default).
VALUE_DOMAIN = 1000


@dataclass(frozen=True)
class Inputs:
    """Everything a workload generates from its seed.

    ``appends[r]`` holds the rows round ``r + 1`` appends, per relation name;
    static workloads have none.
    """

    tables: Tables
    appends: tuple[dict[str, list[Row]], ...] = ()

    def database_at(self, rounds: int) -> Database:
        """The database after ``rounds`` append rounds (0 = the base rows)."""
        db = build_database(self.tables)
        for batch in self.appends[:rounds]:
            apply_appends(db, batch)
        return db


def build_database(tables: Tables) -> Database:
    """A fresh database over copies of the generated rows."""
    return Database(Relation(name, schema, rows) for name, schema, rows in tables)


def apply_appends(db: Database, batch: dict[str, list[Row]]) -> None:
    """Append one round's rows through the public ``Relation.add``."""
    for name, rows in batch.items():
        relation = db[name]
        for row in rows:
            relation.add(row)


def instance_seed(seed: int, instance: int) -> int:
    """The generator seed of one instance of a run seeded with ``seed``."""
    return seed * 1000 + instance


def _tables(db: Database) -> Tables:
    return [(r.name, tuple(r.schema), list(r.rows)) for r in db]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring for the cycle).

    ``solver`` routes setup through the ``QuantileSolver`` facade instead of
    ``Engine``; ``parallel`` is passed to ``Engine.prepare`` (the shards run
    inline, see ``run.py``).
    """

    name: str
    query: str
    ranking: str
    cold_phis: tuple[float, ...]
    warm_phis: tuple[float, ...]
    kind: str
    tuples_per_relation: int
    domain: int
    instances: int
    parallel: int | None = None
    solver: bool = False
    live: bool = False

    def generate(self, seed: int) -> list[Inputs]:
        """The inputs of every instance; the same seed always gives the same rows."""
        return [self.instance(instance_seed(seed, j)) for j in range(self.instances)]

    def instance(self, seed: int) -> Inputs:
        """One instance's rows (and append rounds, for a live workload)."""
        if self.kind == "star":
            base = star_workload(3, self.tuples_per_relation, hub_domain=self.domain, seed=seed)
        else:
            base = path_workload(3, self.tuples_per_relation, join_domain=self.domain, seed=seed)
        tables = _tables(base.db)
        if not self.live:
            return Inputs(tables)
        rng = random.Random(f"{self.name}/{seed}/appends")
        appends = []
        for _ in range(LIVE_ROUNDS):
            batch = {}
            for name, schema, _rows in tables:
                batch[name] = [
                    tuple(self._draw(variable, rng) for variable in schema)
                    for _ in range(LIVE_ROWS_PER_ROUND)
                ]
            appends.append(batch)
        return Inputs(tables, tuple(appends))

    def _draw(self, variable: str, rng: random.Random) -> int:
        """A value from the generator's distribution for a path variable."""
        if variable in ("x1", "x4"):
            return rng.randrange(VALUE_DOMAIN)
        return rng.randrange(self.domain)

    @property
    def ops_per_cycle(self) -> int:
        return LIVE_ROUNDS if self.live else 1

    def parsed(self) -> tuple[JoinQuery, Any]:
        """The query and ranking objects (for the solver facade and the oracle)."""
        return JoinQuery.parse(self.query), parse_ranking(self.ranking)

    def prepare(self, db: Database) -> Any:
        """A ready handle over ``db``: a ``PreparedQuery`` or a ``QuantileSolver``."""
        if self.solver:
            query, ranking = self.parsed()
            solver = QuantileSolver(query, db, ranking)
            solver.prepared.prepare()
            return solver
        return Engine(db).prepare(self.query, self.ranking, parallel=self.parallel)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="path-max-batch",
            query=PATH_QUERY,
            ranking="max(x1, x4)",
            cold_phis=BATCH_PHIS,
            warm_phis=BATCH_PHIS,
            kind="path",
            tuples_per_relation=300,
            domain=15,
            instances=6,
        ),
        Workload(
            name="path-max-k2-inline",
            query=PATH_QUERY,
            ranking="max(x1, x4)",
            cold_phis=BATCH_PHIS,
            warm_phis=BATCH_PHIS,
            kind="path",
            tuples_per_relation=300,
            domain=15,
            instances=6,
            parallel=2,
        ),
        Workload(
            name="star-min-solver",
            query=STAR_QUERY,
            ranking="min(x1, x2, x3)",
            cold_phis=BATCH_PHIS,
            warm_phis=OFFSET_PHIS,
            kind="star",
            tuples_per_relation=150,
            domain=8,
            instances=16,
            solver=True,
        ),
        Workload(
            name="path-sum-live",
            query=PATH_QUERY,
            ranking="sum(x1, x2, x3)",
            cold_phis=DASHBOARD_PHIS,
            warm_phis=DASHBOARD_PHIS,
            kind="path",
            tuples_per_relation=300,
            domain=15,
            instances=8,
            live=True,
        ),
    )
}
