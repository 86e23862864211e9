"""Tests for instrumentation and budget enforcement."""

import pytest

from repro.exceptions import BudgetExceeded
from repro.executor import Instrumentation
from repro.optimizer import SeqScan


@pytest.fixture
def node():
    return SeqScan("part")


def test_projection_set_is_a_constructor_field():
    assert Instrumentation().needed_columns is None
    needed = frozenset(["part.p_size"])
    assert Instrumentation(budget=1.0, needed_columns=needed).needed_columns is needed


class TestCharging:
    def test_accumulates(self, node):
        inst = Instrumentation()
        inst.charge(node, 1.5)
        inst.charge(node, 2.5)
        assert inst.total_cost == pytest.approx(4.0)
        assert inst.counters(node).cost == pytest.approx(4.0)

    def test_negative_rejected(self, node):
        with pytest.raises(ValueError):
            Instrumentation().charge(node, -1.0)

    def test_budget_enforced_exactly(self, node):
        inst = Instrumentation(budget=10.0)
        inst.charge(node, 6.0)
        with pytest.raises(BudgetExceeded) as excinfo:
            inst.charge(node, 6.0)
        # Spend is clipped exactly at the budget boundary.
        assert inst.total_cost == pytest.approx(10.0)
        assert excinfo.value.spent == pytest.approx(10.0)
        assert excinfo.value.instrumentation is inst

    def test_no_budget_never_raises(self, node):
        inst = Instrumentation()
        inst.charge(node, 1e12)
        assert inst.total_cost == 1e12


class TestCounters:
    def test_emit_and_finish(self, node):
        inst = Instrumentation()
        inst.emit(node, 10)
        inst.emit(node, 5)
        assert inst.tuples_out(node) == 15
        assert not inst.finished(node)
        inst.mark_finished(node)
        assert inst.finished(node)

    def test_unseen_node_defaults(self, node):
        inst = Instrumentation()
        assert inst.tuples_out(node) == 0
        assert not inst.finished(node)

    def test_report_mentions_nodes(self, node):
        inst = Instrumentation()
        inst.emit(node, 3)
        assert "SS(part" in inst.report()
