"""Seeded random acyclic SPJ(+aggregate) query sampling.

The generator grows join trees over the catalog's declared foreign-key
edges (so every sampled join is schematically meaningful, never a cross
product), decorates the chosen relations with selection predicates of
configurable classes (equality / range / IN-list), and optionally adds
group-by columns and a COUNT(*) aggregate — the
``sample_acyclic_aggregation_query`` pattern of the zero-shot-cost /
BRAD generators, specialized to this repo's typed :class:`Query`
objects.

Determinism contract: a :class:`QueryGenerator` built from the same
``(schema, database, config)`` produces the same query for the same
``(seed, index)`` pair, bit for bit, on any platform.  Each query gets
an independent ``random.Random`` stream keyed by ``f"{seed}:{index}"``
so campaigns can be sharded across processes without sharing RNG state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Column, Schema
from ..datagen.database import Database
from ..exceptions import ReproError
from ..query.predicates import JoinPredicate, SelectionPredicate
from ..query.query import Query
from ..query.sql import render_sql

__all__ = ["GeneratorConfig", "GeneratedQuery", "QueryGenerator"]

#: Numeric dtypes eligible for range predicates.
_RANGE_DTYPES = ("int", "float", "date")

_RANGE_OPS = ("<", "<=", ">", ">=")


class GeneratorError(ReproError):
    """The generator was configured against an unusable catalog."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random-query sampler — all part of the replay record.

    ``min_joins``/``max_joins`` bound the FK-tree size (``k`` joins span
    ``k+1`` relations; 0 allows single-table queries).  Each sampled
    relation then receives selection predicates with probability
    proportional to the ``min/max_predicates`` budget; per predicate the
    class is drawn from the ``equality/range/in`` weights.  Group-by
    columns (low-cardinality, at most ``max_group_by``) appear with
    probability ``groupby_probability`` and always imply a COUNT(*)
    aggregate; ``aggregate_probability`` adds global COUNT(*) queries on
    top.
    """

    min_joins: int = 1
    max_joins: int = 4
    min_predicates: int = 1
    max_predicates: int = 3
    equality_weight: float = 0.25
    range_weight: float = 0.6
    in_weight: float = 0.15
    max_in_values: int = 4
    groupby_probability: float = 0.2
    max_group_by: int = 2
    aggregate_probability: float = 0.15
    #: Distinct-count ceiling for a column to qualify as a group-by key.
    groupby_distinct_limit: int = 64

    def __post_init__(self):
        if not (0 <= self.min_joins <= self.max_joins):
            raise GeneratorError("generator: need 0 <= min_joins <= max_joins")
        if not (0 <= self.min_predicates <= self.max_predicates):
            raise GeneratorError(
                "generator: need 0 <= min_predicates <= max_predicates"
            )
        weights = (self.equality_weight, self.range_weight, self.in_weight)
        if min(weights) < 0 or sum(weights) <= 0:
            raise GeneratorError("generator: predicate-class weights must be "
                                 "non-negative and not all zero")
        if self.max_in_values < 1:
            raise GeneratorError("generator: max_in_values must be >= 1")
        if not (0.0 <= self.groupby_probability <= 1.0):
            raise GeneratorError("generator: groupby_probability outside [0, 1]")
        if not (0.0 <= self.aggregate_probability <= 1.0):
            raise GeneratorError("generator: aggregate_probability outside [0, 1]")
        if self.max_group_by < 1:
            raise GeneratorError("generator: max_group_by must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "min_joins": self.min_joins,
            "max_joins": self.max_joins,
            "min_predicates": self.min_predicates,
            "max_predicates": self.max_predicates,
            "equality_weight": self.equality_weight,
            "range_weight": self.range_weight,
            "in_weight": self.in_weight,
            "max_in_values": self.max_in_values,
            "groupby_probability": self.groupby_probability,
            "max_group_by": self.max_group_by,
            "aggregate_probability": self.aggregate_probability,
            "groupby_distinct_limit": self.groupby_distinct_limit,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "GeneratorConfig":
        return GeneratorConfig(**dict(data))


@dataclass
class GeneratedQuery:
    """One sampled query plus everything needed to replay it."""

    query: Query
    seed: int
    index: int
    sql: str = field(default="")

    def __post_init__(self):
        if not self.sql:
            self.sql = render_sql(self.query)

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def geometry(self) -> str:
        return self.query.join_graph.describe()


class QueryGenerator:
    """Samples random acyclic queries over one catalog.

    ``database`` supplies the constant pools: equality/IN constants are
    drawn from values that actually occur, range cut-points from
    empirical quantiles, so every generated predicate is satisfiable on
    the generated data.  Without a database, constants fall back to the
    column's declared distinct-count domain (``0..distinct-1``, the
    dictionary-code convention of :mod:`repro.datagen`).
    """

    def __init__(
        self,
        schema: Schema,
        database: Optional[Database] = None,
        config: Optional[GeneratorConfig] = None,
    ):
        self.schema = schema
        self.database = database
        self.config = config if config is not None else GeneratorConfig()
        #: FK edges as join predicates, in a stable catalog order.
        self._edges: List[JoinPredicate] = [
            JoinPredicate(fk.child_table, fk.child_column,
                          fk.parent_table, fk.parent_column)
            for fk in schema.foreign_keys
        ]
        if not self._edges and self.config.min_joins > 0:
            raise GeneratorError(
                f"schema {schema.name!r} declares no foreign keys; "
                "only min_joins=0 is possible"
            )
        # Columns a join in this pool may touch, per table — excluded
        # from the selection pool so a filter never aliases a join key.
        join_cols = {(e.left_table, e.left_column) for e in self._edges}
        join_cols |= {(e.right_table, e.right_column) for e in self._edges}
        self._selectable: Dict[str, List[Column]] = {}
        self._groupable: Dict[str, List[Column]] = {}
        for tname in schema.table_names:
            table = schema.table(tname)
            self._selectable[tname] = [
                col for col in table.columns
                if (tname, col.name) not in join_cols
                and col.name != table.primary_key
            ]
            self._groupable[tname] = [
                col for col in self._selectable[tname]
                if col.distinct is not None
                and col.distinct <= self.config.groupby_distinct_limit
            ]

    # ------------------------------------------------------------------

    def generate(self, seed: int, index: int = 0) -> GeneratedQuery:
        """Sample query ``index`` of the campaign seeded with ``seed``."""
        rng = random.Random(f"{seed}:{index}")
        tables, joins = self._sample_join_tree(rng)
        selections = self._sample_selections(rng, tables)
        group_by, aggregate = self._sample_grouping(rng, tables)
        name = f"W{seed}_{index}"
        query = Query(
            name,
            self.schema,
            tables,
            selections=selections,
            joins=joins,
            group_by=group_by,
            aggregate=aggregate,
        )
        return GeneratedQuery(query=query, seed=seed, index=index)

    def generate_many(self, seed: int, count: int) -> List[GeneratedQuery]:
        """The first ``count`` queries of campaign ``seed``."""
        if count < 1:
            raise GeneratorError("generate_many needs count >= 1")
        return [self.generate(seed, index) for index in range(count)]

    # ------------------------------------------------------------------
    # Template instancing
    # ------------------------------------------------------------------

    def instantiate(self, seed: int, index: int, binding: int = 0) -> GeneratedQuery:
        """Binding ``binding`` of the template sampled at ``(seed, index)``.

        Binding 0 is the exemplar — exactly :meth:`generate`'s output.
        Higher bindings keep the whole structure (tables, joins,
        predicate columns, operator classes, IN-list lengths, grouping)
        and re-sample only the predicate *constants* from an independent
        stream keyed ``f"{seed}:{index}:b{binding}"``, so every binding
        of one template shares one template signature and the set of
        bindings is stable under re-dimensioning the campaign.
        """
        if binding < 0:
            raise GeneratorError("instantiate needs binding >= 0")
        exemplar = self.generate(seed, index)
        if binding == 0:
            return exemplar
        rng = random.Random(f"{seed}:{index}:b{binding}")
        base = exemplar.query
        selections = [
            self._resample_constant(rng, pred) for pred in base.selections
        ]
        query = Query(
            f"W{seed}_{index}b{binding}",
            self.schema,
            list(base.tables),
            selections=selections,
            joins=list(base.joins),
            group_by=list(base.group_by),
            aggregate=base.aggregate,
        )
        return GeneratedQuery(query=query, seed=seed, index=index)

    def _resample_constant(
        self, rng: random.Random, pred: SelectionPredicate
    ) -> SelectionPredicate:
        """A fresh constant for ``pred`` preserving its operator class."""
        col = self.schema.table(pred.table).column(pred.column)
        if pred.op in _RANGE_OPS:
            value = self._range_cutpoint(rng, pred.table, col)
            return SelectionPredicate(pred.table, pred.column, pred.op, value)
        values = self._value_pool(pred.table, col)
        if values.size == 0:
            return pred
        if pred.op == "=":
            return SelectionPredicate(
                pred.table, pred.column, "=",
                float(values[rng.randrange(values.size)]),
            )
        count = min(len(pred.value), values.size)
        idx = rng.sample(range(values.size), count)
        return SelectionPredicate(
            pred.table, pred.column, "in",
            tuple(float(values[i]) for i in idx),
        )

    # ------------------------------------------------------------------
    # Join-tree sampling
    # ------------------------------------------------------------------

    def _sample_join_tree(
        self, rng: random.Random
    ) -> Tuple[List[str], List[JoinPredicate]]:
        """Grow an acyclic FK-edge tree, BRAD-style.

        Starting from a random relation, repeatedly pick an FK edge with
        exactly one endpoint inside the tree; the other endpoint joins.
        Acyclicity is structural — an edge whose both endpoints are
        already in would close a cycle, so it is never eligible.
        """
        config = self.config
        target = rng.randint(config.min_joins, config.max_joins)
        if target == 0 or not self._edges:
            return [rng.choice(self.schema.table_names)], []
        first = rng.choice(self._edges)
        tables = list(first.tables)
        rng.shuffle(tables)
        joins = [first]
        while len(joins) < target:
            frontier = [
                edge for edge in self._edges
                if (edge.left_table in tables) != (edge.right_table in tables)
            ]
            if not frontier:
                break  # tree exhausted the FK graph; accept a smaller query
            edge = rng.choice(frontier)
            joins.append(edge)
            tables.append(
                edge.right_table if edge.left_table in tables else edge.left_table
            )
        return tables, joins

    # ------------------------------------------------------------------
    # Selection sampling
    # ------------------------------------------------------------------

    def _sample_selections(
        self, rng: random.Random, tables: Sequence[str]
    ) -> List[SelectionPredicate]:
        pool = [
            (tname, col)
            for tname in tables
            for col in self._selectable.get(tname, ())
        ]
        if not pool:
            return []
        config = self.config
        want = rng.randint(config.min_predicates, config.max_predicates)
        picks = rng.sample(pool, min(want, len(pool)))
        selections = []
        for tname, col in picks:
            pred = self._sample_predicate(rng, tname, col)
            if pred is not None:
                selections.append(pred)
        # A pick can yield no predicate (no applicable class for the
        # column under this config); redraw from the rest of the pool so
        # restrictive configs still meet the predicate budget.  The rng
        # stream is only consumed when a redraw actually happens, so
        # configs where every pick succeeds are unaffected.
        remaining = [entry for entry in pool if entry not in picks]
        while len(selections) < want and remaining:
            tname, col = remaining.pop(rng.randrange(len(remaining)))
            pred = self._sample_predicate(rng, tname, col)
            if pred is not None:
                selections.append(pred)
        return selections

    def _sample_predicate(
        self, rng: random.Random, table: str, col: Column
    ) -> Optional[SelectionPredicate]:
        config = self.config
        kinds, weights = ["equality", "in"], [
            config.equality_weight, config.in_weight
        ]
        if col.dtype in _RANGE_DTYPES:
            kinds.append("range")
            weights.append(config.range_weight)
        if sum(weights) <= 0:
            # No predicate class applies (e.g. a range-only config and a
            # non-range column): skip the column rather than fail.
            return None
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        if kind == "range":
            value = self._range_cutpoint(rng, table, col)
            return SelectionPredicate(table, col.name, rng.choice(_RANGE_OPS), value)
        values = self._value_pool(table, col)
        if values.size == 0:
            return None
        if kind == "equality":
            return SelectionPredicate(
                table, col.name, "=", float(values[rng.randrange(values.size)])
            )
        count = rng.randint(1, min(config.max_in_values, values.size))
        idx = rng.sample(range(values.size), count)
        return SelectionPredicate(
            table, col.name, "in", tuple(float(values[i]) for i in idx)
        )

    def _value_pool(self, table: str, col: Column) -> np.ndarray:
        """Distinct constants that occur for equality/IN predicates."""
        if self.database is not None:
            return np.unique(self.database.column(table, col.name))
        domain = col.distinct if col.distinct is not None else 1000
        return np.arange(domain, dtype=float)

    def _range_cutpoint(self, rng: random.Random, table: str, col: Column) -> float:
        """A cut-point with non-trivial selectivity on both sides."""
        fraction = rng.uniform(0.05, 0.95)
        if self.database is not None:
            arr = self.database.column(table, col.name)
            return float(np.quantile(arr.astype(float), fraction))
        domain = col.distinct if col.distinct is not None else 1000
        return float(fraction * domain)

    # ------------------------------------------------------------------
    # Grouping / aggregation
    # ------------------------------------------------------------------

    def _sample_grouping(
        self, rng: random.Random, tables: Sequence[str]
    ) -> Tuple[List[Tuple[str, str]], bool]:
        config = self.config
        aggregate = rng.random() < config.aggregate_probability
        group_by: List[Tuple[str, str]] = []
        if rng.random() < config.groupby_probability:
            pool = [
                (tname, col.name)
                for tname in tables
                for col in self._groupable.get(tname, ())
            ]
            if pool:
                count = rng.randint(1, min(config.max_group_by, len(pool)))
                group_by = rng.sample(pool, count)
        return group_by, aggregate or bool(group_by)
