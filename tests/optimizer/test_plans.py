"""Unit + property tests for plan trees and abstract costing."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizerError
from repro.optimizer import (
    IndexLookup,
    IndexScan,
    Join,
    SeqScan,
    cost_plan,
    error_node_depth,
    first_error_node,
    spilled_cost,
)
from repro.optimizer.cost_model import POSTGRES_COST_MODEL
from repro.optimizer.plans import CostContext


@pytest.fixture(scope="module")
def eq_plan_parts(eq_query):
    """A hand-built plan for EQ: HJ(HJ(SS(lineitem), SS(orders)), IS(part))."""
    sel_pid = eq_query.selections[0].pid
    j_lp = next(j for j in eq_query.joins if "part" in j.tables).pid
    j_lo = next(j for j in eq_query.joins if "orders" in j.tables).pid
    scan_l = SeqScan("lineitem")
    scan_o = SeqScan("orders")
    scan_p = IndexScan("part", sel_pid)
    inner = Join("hash", scan_l, scan_o, (j_lo,))
    plan = Join("hash", inner, scan_p, (j_lp,))
    return plan, sel_pid, j_lp, j_lo


def assignment_for(eq_query, sel=0.1, j1=1e-3, j2=1e-4):
    pids = eq_query.predicate_ids
    values = {}
    for pid in pids:
        if pid.startswith("sel:"):
            values[pid] = sel
        elif "part" in pid:
            values[pid] = j1
        else:
            values[pid] = j2
    return values


class TestCosting:
    def test_seq_scan_rows_and_cost(self, schema, eq_query):
        scan = SeqScan("part", (eq_query.selections[0].pid,))
        est = cost_plan(scan, schema, POSTGRES_COST_MODEL, assignment_for(eq_query, sel=0.25))
        assert est.rows == pytest.approx(0.25 * schema.table("part").row_count)
        assert est.cost > schema.table("part").pages  # at least the I/O

    def test_index_scan_beats_seq_scan_at_low_selectivity(self, schema, eq_query):
        pid = eq_query.selections[0].pid
        seq = SeqScan("part", (pid,))
        idx = IndexScan("part", pid)
        lo = assignment_for(eq_query, sel=1e-4)
        hi = assignment_for(eq_query, sel=0.9)
        assert (
            cost_plan(idx, schema, POSTGRES_COST_MODEL, lo).cost
            < cost_plan(seq, schema, POSTGRES_COST_MODEL, lo).cost
        )
        assert (
            cost_plan(idx, schema, POSTGRES_COST_MODEL, hi).cost
            > cost_plan(seq, schema, POSTGRES_COST_MODEL, hi).cost
        )

    def test_join_output_cardinality(self, schema, eq_query, eq_plan_parts):
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        a = assignment_for(eq_query)
        est = cost_plan(plan, schema, POSTGRES_COST_MODEL, a)
        n_l = schema.table("lineitem").row_count
        n_o = schema.table("orders").row_count
        n_p = schema.table("part").row_count
        expected = n_l * n_o * a[j_lo] * n_p * a[sel_pid] * a[j_lp]
        assert est.rows == pytest.approx(expected, rel=1e-9)

    def test_missing_selectivity_raises(self, schema, eq_query, eq_plan_parts):
        plan, *_ = eq_plan_parts
        with pytest.raises(OptimizerError):
            cost_plan(plan, schema, POSTGRES_COST_MODEL, {})

    def test_index_lookup_cannot_cost_standalone(self, schema, eq_query):
        lookup = IndexLookup("part", "p_partkey")
        with pytest.raises(OptimizerError):
            cost_plan(lookup, schema, POSTGRES_COST_MODEL, assignment_for(eq_query))

    @given(
        s1=st.floats(min_value=1e-6, max_value=1.0),
        s2=st.floats(min_value=1e-6, max_value=1.0),
        bump=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pcm_monotonicity(self, schema, eq_query, eq_plan_parts, s1, s2, bump):
        """Plan Cost Monotonicity: raising any selectivity never lowers cost."""
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        base = assignment_for(eq_query, sel=s1, j1=s2 * 1e-3, j2=1e-4)
        for pid in (sel_pid, j_lp, j_lo):
            bumped = dict(base)
            bumped[pid] = min(1.0, base[pid] * bump)
            c0 = cost_plan(plan, schema, POSTGRES_COST_MODEL, base).cost
            c1 = cost_plan(plan, schema, POSTGRES_COST_MODEL, bumped).cost
            assert c1 >= c0 * (1 - 1e-12)


class TestStructure:
    def test_signature_distinguishes_algorithms(self, eq_query, eq_plan_parts):
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        other = Join(
            "merge", plan.left, IndexScan("part", sel_pid), (j_lp,)
        )
        assert plan.signature() != other.signature()
        assert plan.signature() == Join(
            "hash", plan.left, IndexScan("part", sel_pid), (j_lp,)
        ).signature()

    def test_postorder_children_first(self, eq_plan_parts):
        plan, *_ = eq_plan_parts
        order = list(plan.postorder())
        assert order[-1] is plan
        assert order.index(plan.left) < order.index(plan)

    def test_all_pids(self, eq_query, eq_plan_parts):
        plan, *_ = eq_plan_parts
        assert plan.all_pids() == frozenset(eq_query.predicate_ids)

    def test_join_validation(self, eq_plan_parts):
        plan, sel_pid, j_lp, _ = eq_plan_parts
        with pytest.raises(OptimizerError):
            Join("bogus", plan.left, plan.right, (j_lp,))
        with pytest.raises(OptimizerError):
            Join("inl", plan.left, SeqScan("part"), (j_lp,))
        with pytest.raises(OptimizerError):
            Join("hash", plan.left, IndexLookup("part", "p_partkey"), (j_lp,))
        with pytest.raises(OptimizerError):
            Join("hash", plan.left, plan.right, ())


class TestErrorNodeUtilities:
    def test_first_error_node_in_execution_order(self, eq_query, eq_plan_parts):
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        # j_lo is evaluated at the inner hash join, which executes first.
        node = first_error_node(plan, frozenset((j_lo, j_lp)))
        assert j_lo in node.local_pids
        # Only the top join evaluates j_lp.
        node2 = first_error_node(plan, frozenset((j_lp,)))
        assert node2 is plan

    def test_first_error_node_none(self, eq_plan_parts):
        plan, *_ = eq_plan_parts
        assert first_error_node(plan, frozenset(("ghost",))) is None

    def test_error_node_depth(self, eq_query, eq_plan_parts):
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        assert error_node_depth(plan, frozenset((j_lp,))) == 0  # at the root
        assert error_node_depth(plan, frozenset((sel_pid,))) == 1  # part scan
        assert error_node_depth(plan, frozenset(("ghost",))) == -1

    def test_spilled_cost_less_than_full(self, schema, eq_query, eq_plan_parts):
        plan, sel_pid, j_lp, j_lo = eq_plan_parts
        a = assignment_for(eq_query)
        full = cost_plan(plan, schema, POSTGRES_COST_MODEL, a).cost
        spill, learned = spilled_cost(
            plan, schema, POSTGRES_COST_MODEL, a, frozenset((sel_pid,))
        )
        assert learned == frozenset((sel_pid,))
        assert spill < full

    def test_spilled_cost_no_error_node_falls_back_to_full(
        self, schema, eq_query, eq_plan_parts
    ):
        plan, *_ = eq_plan_parts
        a = assignment_for(eq_query)
        full = cost_plan(plan, schema, POSTGRES_COST_MODEL, a).cost
        spill, learned = spilled_cost(
            plan, schema, POSTGRES_COST_MODEL, a, frozenset(("ghost",))
        )
        assert spill == pytest.approx(full)
        assert learned == frozenset()


class TestSharedSubtrees:
    """POSP plans share sub-trees (the slab kernel hands out shared
    objects); each shared node is worked on once."""

    def test_a_compile_builds_each_signature_once(self, lab, monkeypatch):
        """Registering a compile's POSP plans builds each node's
        signature string once: a parent reads its children's memoised
        one (``canonical_signature``)."""
        from repro.optimizer import Aggregate

        built = []  # the nodes themselves: no id is recycled meanwhile
        for cls in (SeqScan, IndexScan, IndexLookup, Aggregate, Join):
            signature = cls.__dict__["signature"]
            monkeypatch.setattr(
                cls, "signature", lambda self, _f=signature: built.append(self) or _f(self)
            )
        diagram = _fresh_diagram(lab, resolution=3)
        assert len(diagram.posp_plan_ids) > 1
        counts = Counter(id(node) for node in built)
        assert counts and max(counts.values()) == 1

    def test_estimates_walk_each_shared_subtree_once(self, lab):
        """``CostContext.estimates`` over ``4D_H_Q8``'s POSP plans: every
        estimate is bit-equal to costing its plan alone, and the memo
        holds less than when each plan re-walked the sub-trees it shares
        (a later plan reads the shared node from the memo, not its
        children, so they need not stay): 48 entries at its peak over
        the 139 plans, not 75."""
        diagram = _fresh_diagram(lab)
        space, optimizer = diagram.space, diagram.cache.optimizer
        plans = [diagram.registry.plan(pid) for pid in diagram.posp_plan_ids]
        columns, _ = space.grid_columns(0, space.shape[0])

        def context():
            return CostContext(optimizer.schema, optimizer.cost_model, columns)

        ctx, peak, costs = context(), 0, []
        for estimate in ctx.estimates(plans):
            peak = max(peak, len(ctx._memo))
            costs.append(estimate.cost)
        assert all(
            np.array_equal(cost, plan.estimate(context()).cost)
            for cost, plan in zip(costs, plans)
        )
        assert peak < _memo_peak_rewalking_shared_subtrees(context(), plans)


def _fresh_diagram(lab, resolution=None):
    """``4D_H_Q8``'s exhaustive diagram from an optimizer of its own: its
    plan registry, and so which sub-trees the plans share, does not
    depend on what other tests compiled before."""
    from repro.ess import PlanDiagram
    from repro.optimizer import Optimizer

    space = lab.build("4D_H_Q8", resolution=resolution).space
    shared = lab.h_optimizer
    return PlanDiagram.exhaustive(Optimizer(shared.schema, shared.statistics), space)


def _memo_peak_rewalking_shared_subtrees(ctx, plans):
    """The memo's peak when every plan re-walks the sub-trees it shares
    with earlier plans, so their nodes live until its turn."""
    last = {}
    for k, plan in enumerate(plans):
        stack = [plan]
        while stack:
            node = stack.pop()
            if last.get(id(node)) != k:
                last[id(node)] = k
                stack.extend(node.children)
    peak = 0
    for k, plan in enumerate(plans):
        plan.estimate(ctx)
        peak = max(peak, len(ctx._memo))
        for key in [key for key, at in last.items() if at == k]:
            ctx._memo.pop(key, None)
    return peak
