"""Unit tests for the schema objects."""

import pytest

from repro.catalog.schema import Column, ForeignKey, IndexInfo, Schema, Table
from repro.exceptions import CatalogError


def make_table(name="t", rows=100, pk="a"):
    return Table(name, [Column("a"), Column("b", "float")], rows, primary_key=pk)


class TestColumn:
    def test_width_by_dtype(self):
        assert Column("x", "int").width == 8
        assert Column("x", "string").width == 24

    def test_rejects_unknown_dtype(self):
        with pytest.raises(CatalogError):
            Column("x", "blob")


class TestTable:
    def test_basic_properties(self):
        table = make_table(rows=1000)
        assert table.row_count == 1000
        assert table.column("a").name == "a"
        assert table.has_column("b") and not table.has_column("c")

    def test_pages_scale_with_rows(self):
        small = make_table(rows=100)
        large = make_table(rows=100_000)
        assert large.pages > small.pages
        assert small.pages >= 1

    def test_rejects_duplicate_columns(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a"), Column("a")], 10)

    def test_rejects_bad_primary_key(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], 10, primary_key="zzz")

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], 0)

    def test_rejects_empty_columns(self):
        with pytest.raises(CatalogError):
            Table("t", [], 10)


class TestSchema:
    def test_lookup_and_indexes(self):
        schema = Schema("s", [make_table()])
        assert schema.table("t").name == "t"
        assert schema.has_index("t", "a")  # all columns indexed by default
        with pytest.raises(CatalogError):
            schema.table("missing")

    def test_restricted_indexes(self):
        schema = Schema("s", [make_table()], indexed_columns=[("t", "a")])
        assert schema.has_index("t", "a")
        assert not schema.has_index("t", "b")

    def test_foreign_key_lookup_both_directions(self):
        parent = Table("p", [Column("id")], 10, primary_key="id")
        child = Table("c", [Column("pid")], 100)
        fk = ForeignKey("c", "pid", "p", "id")
        schema = Schema("s", [parent, child], [fk])
        assert schema.foreign_key_between("c", "pid", "p", "id") is fk
        assert schema.foreign_key_between("p", "id", "c", "pid") is fk
        assert schema.foreign_key_between("c", "pid", "c", "pid") is None

    def test_fk_must_target_primary_key(self):
        parent = Table("p", [Column("id"), Column("other")], 10, primary_key="id")
        child = Table("c", [Column("pid")], 100)
        with pytest.raises(CatalogError):
            Schema("s", [parent, child], [ForeignKey("c", "pid", "p", "other")])

    def test_rejects_duplicate_tables(self):
        with pytest.raises(CatalogError):
            Schema("s", [make_table(), make_table()])


class TestIndexInfo:
    def test_leaf_pages_grow_with_rows(self):
        small = IndexInfo.for_table(make_table(rows=100), "a")
        large = IndexInfo.for_table(make_table(rows=1_000_000), "a")
        assert large.leaf_pages > small.leaf_pages
        assert small.height == 3
