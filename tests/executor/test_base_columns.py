"""No execution writes into the data it reads.

Scans hand out views of the base columns, and a join whose probe rows
each find one partner passes the probe batch through unchanged, so the
batches that reach a join, a filter or an aggregate may share memory
with the :class:`~repro.datagen.database.Database`'s own arrays (which
are writable).  Every canned and pool query is run, from the index
probes and from the ESS origin (which spills), and every base column
must come out byte for byte as it went in.

A bound plan's joins keep their build sides (the output as read-only
views, and the index over its key) for every later run to replay: each
kept array is read-only, later runs leave its bytes as they were, and no
collected result holds a writeable view of one.
"""

from __future__ import annotations

import numpy as np

from repro.api import execute
from repro.executor import ExecutionEngine


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


def kept_arrays(bound):
    """Every array the bound plan's joins keep: build outputs and the
    arrays of the indexes over their keys."""
    for op in bound.ops.values():
        kept = getattr(op, "kept", None)
        if kept is None:
            continue
        yield from kept.batch.values()
        index = kept.index
        if index is not None:
            arrays = (index.values, index.order, index.starts, index.counts)
            yield from (array for array in arrays if array is not None)


def test_kept_builds_are_read_only_and_never_written(pool, database):
    base = [
        array for table in database.schema.table_names for array in database.table(table).values()
    ]
    engine = ExecutionEngine(database)
    runs = [
        (compiled.query, engine.bind(compiled.query, compiled.bouquet.registry.plan(plan_id)))
        for compiled in pool
        for plan_id in compiled.bouquet.plan_ids
    ]
    for query, bound in runs:
        engine.execute(query, bound, collect=True)
    kept = [array for _, bound in runs for array in kept_arrays(bound)]
    assert kept and not any(array.flags.writeable for array in kept)
    before = [array.tobytes() for array in kept]
    # A kept array that is not the base column itself (whose writes the
    # test above rules out) must not leak into a result writeable.
    private = [a for a in kept if not any(np.shares_memory(a, column) for column in base)]
    assert private
    for query, bound in runs:
        result = engine.execute(query, bound, collect=True).result or {}
        for column in result.values():
            if column.flags.writeable:
                assert not any(np.shares_memory(column, array) for array in private)
    assert [array.tobytes() for array in kept] == before
