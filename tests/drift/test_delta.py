"""The drift injector: what :func:`perturb_statistics` moves, and that it
copies."""

from __future__ import annotations

import pytest

from repro.drift import perturb_statistics
from repro.serve import statistics_fingerprint


def _changed_columns(before, after, table):
    """The columns of ``table`` whose statistics differ in any field."""
    old, new = before.table(table), after.table(table)
    return tuple(
        name for name in old.column_names if old.column(name) != new.column(name)
    )


def _untouched_elsewhere(before, after, table):
    for name in before.table_names:
        if name != table:
            old, new = before.table(name), after.table(name)
            assert old.row_count == new.row_count
            assert _changed_columns(before, after, name) == ()


def test_value_drift_reports_column_but_not_ndv(statistics):
    drifted = perturb_statistics(statistics, "part", "p_retailprice", scale=1.2)
    assert _changed_columns(statistics, drifted, "part") == ("p_retailprice",)
    old = statistics.table("part").column("p_retailprice")
    new = drifted.table("part").column("p_retailprice")
    assert new.n_distinct == old.n_distinct  # value drift leaves the ndv
    assert drifted.table("part").row_count == statistics.table("part").row_count
    _untouched_elsewhere(statistics, drifted, "part")


def test_distinct_drift_marks_ndv_subset(statistics):
    drifted = perturb_statistics(
        statistics, "orders", "o_orderkey", scale=1.0, distinct_scale=1.5
    )
    assert _changed_columns(statistics, drifted, "orders") == ("o_orderkey",)
    old = statistics.table("orders").column("o_orderkey")
    new = drifted.table("orders").column("o_orderkey")
    assert new.n_distinct == max(1, round(old.n_distinct * 1.5)) != old.n_distinct


def test_row_scale_marks_row_count_only(statistics):
    drifted = perturb_statistics(
        statistics, "orders", None, scale=1.0, row_scale=2.0
    )
    assert drifted.table("orders").row_count == 2 * statistics.table("orders").row_count
    assert _changed_columns(statistics, drifted, "orders") == ()
    _untouched_elsewhere(statistics, drifted, "orders")


def test_whole_table_perturbation_touches_every_column(statistics):
    drifted = perturb_statistics(statistics, "region", None, scale=1.1)
    assert set(_changed_columns(statistics, drifted, "region")) == set(
        statistics.table("region").column_names
    )


def test_perturbation_is_a_deep_copy_with_a_new_fingerprint(statistics):
    before = statistics_fingerprint(statistics)
    drifted = perturb_statistics(statistics, "part", "p_retailprice", scale=1.05)
    # The original is untouched (same fingerprint), the copy differs.
    assert statistics_fingerprint(statistics) == before
    assert statistics_fingerprint(drifted) != before
    original = statistics.table("part").column("p_retailprice")
    scaled = drifted.table("part").column("p_retailprice")
    assert scaled.max_value == pytest.approx(original.max_value * 1.05)
    assert original.max_value != scaled.max_value
