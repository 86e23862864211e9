"""Tests for plan explain rendering and (de)serialization."""

import json

import pytest

from repro.exceptions import OptimizerError
from repro.optimizer import (
    IndexLookup,
    Join,
    SeqScan,
    cost_plan,
    explain,
    plans_from_table,
    plans_to_table,
)


def roundtrip(plan):
    return plans_from_table(*plans_to_table([plan]))[0]


@pytest.fixture(scope="module")
def sample_plan(eq_query):
    sel = eq_query.selections[0].pid
    j_lp = next(j for j in eq_query.joins if "part" in j.tables).pid
    j_lo = next(j for j in eq_query.joins if "orders" in j.tables).pid
    return Join(
        "inl",
        Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
        IndexLookup("part", "p_partkey", (sel,)),
        (j_lp,),
    )


class TestExplain:
    def test_renders_every_node(self, sample_plan, optimizer, eq_query):
        text = explain(
            sample_plan,
            optimizer.schema,
            optimizer.cost_model,
            optimizer.estimated_assignment(eq_query),
        )
        assert "Index Nested Loop" in text
        assert "Hash Join" in text
        assert "Seq Scan on lineitem" in text
        assert "Index Lookup on part.p_partkey" in text
        assert "rows=" in text and "cost=" in text

    def test_costs_match_cost_plan(self, sample_plan, optimizer, eq_query):
        a = optimizer.estimated_assignment(eq_query)
        text = explain(sample_plan, optimizer.schema, optimizer.cost_model, a)
        top_cost = cost_plan(sample_plan, optimizer.schema, optimizer.cost_model, a).cost
        first_line = text.splitlines()[0]
        assert f"cost={top_cost:.1f}" in first_line

    def test_optimizer_plan_explains(self, optimizer, eq_query):
        result = optimizer.optimize(eq_query)
        text = explain(
            result.plan,
            optimizer.schema,
            optimizer.cost_model,
            optimizer.estimated_assignment(eq_query),
        )
        assert len(text.splitlines()) >= 3


class TestSerialization:
    def test_roundtrip_preserves_signature(self, sample_plan):
        rebuilt = roundtrip(sample_plan)
        assert rebuilt.signature() == sample_plan.signature()

    def test_roundtrip_through_json(self, sample_plan):
        rows, roots = json.loads(json.dumps(plans_to_table([sample_plan])))
        (rebuilt,) = plans_from_table(rows, roots)
        assert rebuilt.signature() == sample_plan.signature()

    def test_roundtrip_preserves_costs(self, sample_plan, optimizer, eq_query):
        a = optimizer.estimated_assignment(eq_query)
        original = cost_plan(sample_plan, optimizer.schema, optimizer.cost_model, a)
        rebuilt = roundtrip(sample_plan)
        again = cost_plan(rebuilt, optimizer.schema, optimizer.cost_model, a)
        assert again.cost == pytest.approx(original.cost)
        assert again.rows == pytest.approx(original.rows)

    def test_every_posp_plan_roundtrips(self, eq_diagram):
        plans = [eq_diagram.registry.plan(pid) for pid in eq_diagram.posp_plan_ids]
        rebuilt = plans_from_table(*plans_to_table(plans))
        assert [p.signature() for p in rebuilt] == [p.signature() for p in plans]

    def test_unknown_kind_rejected(self):
        with pytest.raises(OptimizerError):
            plans_from_table([["quantum_scan"]], [0])

    def test_each_subplan_is_one_row_and_one_object(self, sample_plan):
        """Two plans over one shared sub-tree write it once and decode it
        to one object."""
        shared = sample_plan.left
        other = Join("hash", shared, SeqScan("part"), sample_plan.join_pids)
        rows, roots = plans_to_table([sample_plan, other, sample_plan])
        distinct = {n.signature() for p in (sample_plan, other) for n in p.postorder()}
        assert len(rows) == len(distinct)
        assert roots[0] == roots[2]
        first, second, _ = plans_from_table(rows, roots)
        assert first.left is second.left
        assert second.signature() == other.signature()

    @pytest.mark.parametrize(
        "rows, roots",
        [
            ([["join", "hash", ["j"], 1, 2], ["seq_scan", "a", []]], [0]),
            ([["seq_scan", "a", []]], [1]),
            ([["seq_scan", "a", []]], [-1]),
            ([["seq_scan", "a"]], [0]),
            ([7], [0]),
        ],
        ids=["forward-child", "missing-root", "negative-root", "short-row", "not-a-row"],
    )
    def test_malformed_table_rejected(self, rows, roots):
        with pytest.raises(OptimizerError):
            plans_from_table(rows, roots)
