"""No execution writes into the data it reads.

Scans hand out views of the base columns, and a join whose probe rows
each find one partner passes the probe batch through unchanged, so the
batches that reach a join, a filter or an aggregate may share memory
with the :class:`~repro.datagen.database.Database`'s own arrays (which
are writable).  Every canned and pool query is run, from the index
probes and from the ESS origin (which spills), and every base column
must come out byte for byte as it went in.
"""

from __future__ import annotations

from repro.api import execute


def test_runs_leave_every_base_column_unchanged(pool, database, origin_started):
    before = {
        (table, column): array.copy()
        for table in database.schema.table_names
        for column, array in database.table(table).items()
    }
    for compiled in pool:
        assert execute(compiled, database).completed
        assert origin_started(compiled, database).completed
    for (table, column), copy in before.items():
        array = database.table(table)[column]
        assert array.dtype == copy.dtype and array.tobytes() == copy.tobytes(), (table, column)
