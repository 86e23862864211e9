"""Relational schema objects: columns, tables, foreign keys, schemas.

The catalog is the shared vocabulary between the data generator, the
optimizer's cost/cardinality models and the execution engine.  It is
deliberately minimal: enough structure to express TPC-H / TPC-DS style
star, chain and branch join graphs with selection predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import CatalogError

#: Default database page size used to convert row widths into page counts.
PAGE_SIZE_BYTES = 8192

#: Width in bytes charged per column type when computing row widths.
_TYPE_WIDTHS = {
    "int": 8,
    "float": 8,
    "date": 8,
    "string": 24,
}


@dataclass(frozen=True)
class Column:
    """A table column.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    dtype:
        One of ``int``, ``float``, ``date``, ``string``.  Strings are
        dictionary-encoded to integer codes by the data generator, so the
        executor only ever sees numeric arrays.
    distinct:
        Optional domain-size hint (number of distinct values) used by the
        cost model for group-by output cardinality.
    """

    name: str
    dtype: str = "int"
    distinct: Optional[int] = None

    def __post_init__(self):
        if self.dtype not in _TYPE_WIDTHS:
            raise CatalogError(
                f"unsupported column dtype {self.dtype!r} for column {self.name!r}"
            )

    @property
    def width(self) -> int:
        """Storage width in bytes, used by the cost model."""
        return _TYPE_WIDTHS[self.dtype]


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``child.column -> parent.column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str

    def __str__(self):
        return (
            f"{self.child_table}.{self.child_column} -> "
            f"{self.parent_table}.{self.parent_column}"
        )


class Table:
    """A base relation with a primary key and a nominal row count.

    The row count recorded here is the *catalog* cardinality: the value the
    optimizer believes.  The generated data matches it exactly, so catalog
    base-table cardinalities are error-free (as in the paper, where only
    selection/join selectivities are error-prone).
    """

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        row_count: int,
        primary_key: Optional[str] = None,
    ):
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise CatalogError(f"table {name!r} has no columns")
        self._by_name: Dict[str, Column] = {}
        for col in self.columns:
            if col.name in self._by_name:
                raise CatalogError(f"duplicate column {col.name!r} in table {name!r}")
            self._by_name[col.name] = col
        if row_count <= 0:
            raise CatalogError(f"table {name!r} must have a positive row count")
        self.row_count = int(row_count)
        row_width = sum(col.width for col in self.columns)
        rows_per_page = max(1, PAGE_SIZE_BYTES // max(1, row_width))
        self._pages = max(1, -(-self.row_count // rows_per_page))
        if primary_key is not None and primary_key not in self._by_name:
            raise CatalogError(
                f"primary key {primary_key!r} is not a column of table {name!r}"
            )
        self.primary_key = primary_key
        self._indexes: Dict[str, "IndexInfo"] = {}

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`CatalogError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    @property
    def pages(self) -> int:
        """Number of heap pages holding the relation (at least one)."""
        return self._pages

    def __repr__(self):
        return f"Table({self.name!r}, rows={self.row_count})"


class Schema:
    """A named collection of tables plus foreign-key edges.

    Every column referenced by a query is assumed to carry a secondary index
    (the paper's "indexes on all columns" physical design) unless the schema
    is constructed with ``indexed_columns`` restricting the set.
    """

    def __init__(
        self,
        name: str,
        tables: Iterable[Table],
        foreign_keys: Iterable[ForeignKey] = (),
        indexed_columns: Optional[Iterable[Tuple[str, str]]] = None,
    ):
        self.name = name
        self.tables: Dict[str, Table] = {}
        for table in tables:
            if table.name in self.tables:
                raise CatalogError(f"duplicate table {table.name!r} in schema {name!r}")
            self.tables[table.name] = table
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            self._check_fk(fk)
        if indexed_columns is None:
            self._indexed = None  # all columns are indexed
        else:
            self._indexed = frozenset(indexed_columns)

    def _check_fk(self, fk: ForeignKey):
        child = self.table(fk.child_table)
        parent = self.table(fk.parent_table)
        child.column(fk.child_column)
        parent.column(fk.parent_column)
        if parent.primary_key != fk.parent_column:
            raise CatalogError(
                f"foreign key {fk} does not target the parent's primary key"
            )

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"schema {self.name!r} has no table {name!r}") from None

    def has_index(self, table: str, column: str) -> bool:
        """True if ``table.column`` carries a secondary index."""
        self.table(table).column(column)
        if self._indexed is None:
            return True
        return (table, column) in self._indexed

    def foreign_key_between(
        self, table_a: str, column_a: str, table_b: str, column_b: str
    ) -> Optional[ForeignKey]:
        """Return the FK edge matching the given join columns, if any."""
        for fk in self.foreign_keys:
            forward = (
                fk.child_table == table_a
                and fk.child_column == column_a
                and fk.parent_table == table_b
                and fk.parent_column == column_b
            )
            backward = (
                fk.child_table == table_b
                and fk.child_column == column_b
                and fk.parent_table == table_a
                and fk.parent_column == column_a
            )
            if forward or backward:
                return fk
        return None

    @property
    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def __repr__(self):
        return f"Schema({self.name!r}, tables={self.table_names})"


@dataclass(frozen=True)
class IndexInfo:
    """Descriptor for a (simulated) secondary B-tree index."""

    table: str
    column: str
    height: int = 3  # B-tree descent depth charged as random page reads
    leaf_pages: int = field(default=0)

    @staticmethod
    def for_table(table: Table, column: str) -> "IndexInfo":
        """The table's index on ``column``, described once per table."""
        index = table._indexes.get(column)
        if index is None:
            # Index entries are narrow; approximate 16 bytes per entry.
            entries_per_page = max(1, PAGE_SIZE_BYTES // 16)
            leaf_pages = max(1, -(-table.row_count // entries_per_page))
            index = table._indexes[column] = IndexInfo(
                table=table.name, column=column, leaf_pages=leaf_pages
            )
        return index
