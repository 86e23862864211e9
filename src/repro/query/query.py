"""SPJ query objects.

A :class:`Query` is a select-project-join block: a set of base tables,
conjunctive selection predicates, and equi-join predicates whose join
graph must be connected (the optimizer does not consider cross products).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from ..catalog.schema import Schema
from ..exceptions import QueryError
from .joingraph import JoinGraph
from .predicates import JoinPredicate, SelectionPredicate

Predicate = Union[SelectionPredicate, JoinPredicate]


class Query:
    """A conjunctive SPJ query over a schema.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"EQ"`` or ``"3D_H_Q5"``).
    schema:
        The catalog the query runs against; all references are validated.
    tables:
        Base relations in the FROM clause.
    selections / joins:
        Conjunctive predicates.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        tables: Sequence[str],
        selections: Sequence[SelectionPredicate] = (),
        joins: Sequence[JoinPredicate] = (),
        group_by: Sequence[Tuple[str, str]] = (),
        aggregate: bool = False,
    ):
        self.name = name
        self.schema = schema
        self.tables: Tuple[str, ...] = tuple(tables)
        if len(set(self.tables)) != len(self.tables):
            raise QueryError(f"query {name!r} lists a table twice")
        self.selections: Tuple[SelectionPredicate, ...] = tuple(selections)
        self.joins: Tuple[JoinPredicate, ...] = tuple(joins)
        self.group_by: Tuple[Tuple[str, str], ...] = tuple(
            (table, column) for table, column in group_by
        )
        #: True when the query computes COUNT(*) (grouped or global).
        self.aggregate = bool(aggregate or self.group_by)
        self._validate()
        self.join_graph = JoinGraph(self.tables, self.joins)
        if len(self.tables) > 1 and not self.join_graph.is_connected():
            raise QueryError(f"query {name!r} has a disconnected join graph")
        self._by_pid: Dict[str, Predicate] = {}
        for pred in list(self.selections) + list(self.joins):
            if pred.pid in self._by_pid:
                raise QueryError(f"duplicate predicate {pred.pid!r} in query {name!r}")
            self._by_pid[pred.pid] = pred

    def _validate(self):
        table_set = set(self.tables)
        for sel in self.selections:
            if sel.table not in table_set:
                raise QueryError(
                    f"selection {sel} references table outside query {self.name!r}"
                )
            self.schema.table(sel.table).column(sel.column)
        for join in self.joins:
            for side in join.tables:
                if side not in table_set:
                    raise QueryError(
                        f"join {join} references table outside query {self.name!r}"
                    )
            self.schema.table(join.left_table).column(join.left_column)
            self.schema.table(join.right_table).column(join.right_column)
        for table, column in self.group_by:
            if table not in table_set:
                raise QueryError(
                    f"group-by column {table}.{column} outside query {self.name!r}"
                )
            self.schema.table(table).column(column)

    # ------------------------------------------------------------------

    def predicate(self, pid: str) -> Predicate:
        """Look up a predicate by its stable id."""
        try:
            return self._by_pid[pid]
        except KeyError:
            raise QueryError(f"query {self.name!r} has no predicate {pid!r}") from None

    @property
    def predicate_ids(self) -> List[str]:
        return sorted(self._by_pid)

    def selections_on(self, table: str) -> List[SelectionPredicate]:
        return [sel for sel in self.selections if sel.table == table]

    def is_pk_fk_join(self, join: JoinPredicate) -> bool:
        """True if the join follows a declared foreign-key edge."""
        fk = self.schema.foreign_key_between(
            join.left_table, join.left_column, join.right_table, join.right_column
        )
        return fk is not None

    @property
    def fingerprint(self) -> str:
        """Structural identity: name, tables, and every predicate.

        Used by the optimizer's per-query caches so two distinct queries
        that happen to share a name never collide."""
        groups = ",".join(f"{t}.{c}" for t, c in self.group_by)
        return "|".join(
            [
                self.name,
                ",".join(sorted(self.tables)),
                ";".join(self.predicate_ids),
                groups,
            ]
        )

    def describe(self) -> str:
        parts = [f"Query {self.name}: FROM {', '.join(self.tables)}"]
        if self.joins:
            parts.append("  joins: " + "; ".join(str(j) for j in self.joins))
        if self.selections:
            parts.append("  filters: " + "; ".join(str(s) for s in self.selections))
        if self.group_by:
            groups = ", ".join(f"{t}.{c}" for t, c in self.group_by)
            parts.append(f"  group by: {groups}")
        parts.append(f"  geometry: {self.join_graph.describe()}")
        return "\n".join(parts)

    def __repr__(self):
        return f"Query({self.name!r}, tables={list(self.tables)})"
