"""The Yannakakis algorithm: full reduction and answer materialization.

Algorithm 1 falls back to materializing the remaining candidate answers once
their number drops to at most the database size; the classic Yannakakis
algorithm does this in time linear in input plus output for acyclic queries.
:func:`evaluate` returns the answers as :class:`AnswerRows` — one row-index
column per join-tree node — so weighing and ordering them are whole-column
operations and only a selected answer becomes a dict.

Both entry points accept an optional pre-built
:class:`~repro.joins.message_passing.MaterializedTree` (typically served by a
:class:`~repro.joins.tree_cache.TreeCache`), so the per-atom materialization
and join-group hashing are shared with counting and pivot selection instead
of being rebuilt here.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.message_passing import MaterializedTree
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint

Assignment = dict[str, Any]
Row = tuple[Any, ...]


def _reduced_row_flags(tree: MaterializedTree) -> dict[int, list[int]]:
    """Compute which rows survive the full reducer (bottom-up + top-down
    semi-join passes).  A surviving row (flag 1) participates in at least one
    answer.  Both passes run as whole-column kernel ops over the tree's dense
    group-ordinal arrays: a semijoin is a per-group sum of 0/1 alive flags,
    clamped back to 0/1 and gathered through the other side's ordinals."""
    kernel = active_backend()
    alive: dict[int, list[int]] = {
        node: [1] * len(tree.rows(node)) for node in tree.nodes_bottom_up()
    }
    # Bottom-up: a row dies if some child join group has no surviving row.
    for node in tree.nodes_bottom_up():
        checkpoint("yannakakis.reduce", rows=len(tree.rows(node)))
        node_alive = alive[node]
        for child in tree.children(node):
            group_live = kernel.sum_by_group(
                tree.child_group_ids(node, child),
                alive[child],
                tree.num_child_groups(node, child),
            )
            live01 = [1 if count else 0 for count in group_live]
            live01.append(0)  # sentinel: parent key with no child group
            gathered = kernel.take(live01, tree.parent_group_ids(node, child))
            node_alive = kernel.multiply(node_alive, gathered)
        alive[node] = node_alive
    # Top-down: a child row dies if no surviving parent row selects its group.
    for node in tree.nodes_top_down():
        checkpoint("yannakakis.reduce", rows=len(tree.rows(node)))
        for child in tree.children(node):
            num_groups = tree.num_child_groups(node, child)
            selected = kernel.sum_by_group(
                tree.parent_group_ids(node, child),
                alive[node],
                num_groups + 1,  # sentinel slot collects unmatched parents
            )
            selected01 = [1 if count else 0 for count in selected[:num_groups]]
            gathered = kernel.take(selected01, tree.child_group_ids(node, child))
            alive[child] = kernel.multiply(alive[child], gathered)
    return alive


def full_reduce(
    query: JoinQuery, db: Database, tree: MaterializedTree | None = None
) -> Database:
    """Return a copy of the database with all dangling tuples removed.

    After reduction every remaining tuple participates in at least one query
    answer (for the materialized per-atom view of the data).
    """
    if tree is None:
        tree = MaterializedTree(query, db)
    alive = _reduced_row_flags(tree)
    kernel = active_backend()
    reduced = Database()
    for node in tree.nodes_top_down():
        atom = query[node]
        checkpoint("yannakakis.rebuild", rows=len(tree.rows(node)))
        rows = kernel.take(tree.rows(node), kernel.masked_filter(alive[node]))
        name = atom.relation
        if name in reduced:
            # Self-join: intersect survivors across atom occurrences.
            existing = reduced[name]
            rows = [row for row in rows if row in existing]
            reduced.replace(Relation(name, tree.variables(node), rows))
        else:
            reduced.add(Relation(name, tree.variables(node), rows))
    return reduced


class AnswerRows:
    """Query answers as row-index columns, one column per join-tree node.

    Answer ``i`` joins row ``columns[node][i]`` of every node's materialized
    rows.  All columns have the same length, the answer count; an answer is
    only turned into an assignment dict on request, so whole-column work
    (weighing, sorting) never builds per-answer Python objects.
    """

    __slots__ = ("variables", "rows", "columns", "_length", "_keys")

    def __init__(
        self,
        variables: dict[int, tuple[str, ...]],
        rows: dict[int, list[Row]],
        columns: dict[int, Sequence[int]],
    ) -> None:
        #: Per node, in top-down order: its schema, rows and index column.
        self.variables = variables
        self.rows = rows
        self.columns = columns
        self._length = len(next(iter(columns.values())))
        # An assignment's keys: every node's variables in node order (a
        # variable shared by two nodes is bound to the same value by both).
        self._keys = tuple(chain.from_iterable(variables.values()))

    def __len__(self) -> int:
        return self._length

    @property
    def cells(self) -> int:
        """Number of stored column entries (answers times nodes)."""
        return sum(len(column) for column in self.columns.values())

    def assignment(self, index: int) -> Assignment:
        """Answer ``index`` as a dict from variables to values."""
        rows = self.rows
        values = [
            value for node, column in self.columns.items() for value in rows[node][column[index]]
        ]
        return dict(zip(self._keys, values))

    def assignments(self) -> list[Assignment]:
        """Every answer as a dict, in enumeration order."""
        return [self.assignment(index) for index in range(len(self))]

    def values(self, variable: str) -> list[Any]:
        """The value column of one variable, parallel to the answers."""
        node, position = self._owner(variable)
        node_values = [row[position] for row in self.rows[node]]
        return active_backend().take(node_values, self.columns[node])

    def weights(self, ranking: RankingFunction) -> list[Any]:
        """The ranking weight of every answer.

        Each weighted variable is lifted once per row of the node holding
        it, gathered through that node's column and folded in from
        ``ranking.identity`` with ``ranking.combine`` in
        ``weighted_variables`` order — the fold of
        :meth:`~repro.ranking.base.RankingFunction.weight_of`, so every
        weight (float sums included) is bit-identical to it.
        """
        kernel = active_backend()
        weights: Iterable[Any] = repeat(ranking.identity, len(self))
        # repro-analysis: allow RPR001 -- bounded by the ranking's arity; each pass is whole-column
        for variable in ranking.weighted_variables:
            if variable not in self._keys:
                continue  # weight_of skips variables an answer does not bind
            node, position = self._owner(variable)
            lifted = [
                ranking.variable_weight(variable, row[position]) for row in self.rows[node]
            ]
            weights = map(ranking.combine, weights, kernel.take(lifted, self.columns[node]))
        return list(weights)

    def reordered(self, order: Sequence[int]) -> "AnswerRows":
        """These answers permuted by ``order``, with compact columns.

        The columns are ``array('q')``: they hold no Python objects, so a
        cached terminal costs the garbage collector nothing to traverse.
        """
        kernel = active_backend()
        return AnswerRows(
            self.variables,
            self.rows,
            {node: array("q", kernel.take(column, order)) for node, column in self.columns.items()},
        )

    def _owner(self, variable: str) -> tuple[int, int]:
        """The first node (top-down) binding ``variable``, and its position."""
        node = next(node for node, names in self.variables.items() if variable in names)
        return node, self.variables[node].index(variable)


def _alive_members(
    tree: MaterializedTree, parent: int, child: int, alive: list[int]
) -> list[list[int]]:
    """Per child join group (by ordinal), its surviving rows in row order;
    one trailing empty group serves the "no such group" sentinel ordinal."""
    members = [
        [row for row in positions if alive[row]]
        for positions in tree.child_groups(parent, child).values()
    ]
    members.append([])
    return members


def evaluate(
    query: JoinQuery,
    db: Database,
    limit: int | None = None,
    tree: MaterializedTree | None = None,
) -> AnswerRows:
    """Materialize the query answers (time linear in input + output).

    Answers are expanded one join-tree node at a time, in top-down order:
    every partial answer is replaced in place by its extensions with the
    surviving rows of the join group its parent row selects.  The result is
    lexicographic in the nodes' top-down order, and each level is a few
    whole-column ops, so arbitrarily deep join trees (e.g. very long path
    queries) cannot hit Python's recursion limit.

    Parameters
    ----------
    limit:
        Optional cap on the number of produced answers (useful to guard
        against accidentally materializing a huge result); the first
        ``limit`` answers of the full enumeration are kept.
    tree:
        Optionally, an already materialized tree for (query, db).

    Returns
    -------
    The answers as :class:`AnswerRows` (one row-index column per node).
    The whole answer count is charged to the row budget in one
    ``yannakakis.answer`` checkpoint before the last level is built.
    """
    if tree is None:
        tree = MaterializedTree(query, db)
    order = tree.nodes_top_down()
    parent_of = {child: parent for parent in order for child in tree.children(parent)}
    kernel = active_backend()
    cap = None if limit is None else max(limit, 0)

    def capped(column: Sequence[int]) -> Sequence[int]:
        return column if cap is None or len(column) <= cap else column[:cap]

    alive = _reduced_row_flags(tree)
    columns: dict[int, Sequence[int]] = {
        order[0]: capped(kernel.masked_filter(alive[order[0]]))
    }
    if len(order) == 1:
        checkpoint("yannakakis.answer", rows=len(columns[order[0]]))
    for level, node in enumerate(order[1:], start=2):
        checkpoint("yannakakis.expand")
        parent = parent_of[node]
        members = _alive_members(tree, parent, node, alive[node])
        groups = kernel.take(tree.parent_group_ids(parent, node), columns[parent])
        sizes = kernel.take([len(rows) for rows in members], groups)
        if level == len(order):
            total = sum(sizes)
            checkpoint("yannakakis.answer", rows=total if cap is None else min(total, cap))
        # Every surviving partial answer has at least one extension, so
        # capping each level keeps exactly the first ``limit`` answers.
        # The level's new index columns are arrays: one-shot inputs no
        # backend cache will pin, and nothing for the garbage collector.
        sources = capped(array("q", chain.from_iterable(map(repeat, range(len(groups)), sizes))))
        expanded = capped(array("q", chain.from_iterable(map(members.__getitem__, groups))))
        columns = {prior: kernel.take(column, sources) for prior, column in columns.items()}
        columns[node] = expanded
    return AnswerRows(
        {node: tree.variables(node) for node in columns},
        {node: tree.rows(node) for node in columns},
        columns,
    )
