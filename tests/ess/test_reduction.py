"""Tests for anorexic plan-diagram reduction."""

import numpy as np
import pytest

from repro.ess import PlanCostCache, PlanDiagram, anorexic_reduce
from repro.exceptions import EssError
from repro.obs import MemorySink, Tracer
from repro.query.workload import TABLE2_NAMES
from tests.conftest import anorexic_by_definition


class TestAnorexicReduce:
    def test_reduces_cardinality(self, eq_diagram):
        reduction = anorexic_reduce(eq_diagram, lambda_=0.2)
        assert reduction.cardinality <= len(eq_diagram.posp_plan_ids)
        assert reduction.cardinality >= 1

    def test_lambda_guarantee_holds(self, eq_diagram):
        """Every replaced location's new plan stays within (1+λ) of
        optimal — the defining anorexic property."""
        lambda_ = 0.2
        reduction = anorexic_reduce(eq_diagram, lambda_=lambda_)
        cache = eq_diagram.cache
        for location, plan_id in reduction.assignment.items():
            optimal = eq_diagram.cost_at(location)
            actual = cache.cost(plan_id, location)
            assert actual <= (1 + lambda_) * optimal * (1 + 1e-9)

    def test_zero_lambda_keeps_optimal_plans(self, eq_diagram):
        reduction = anorexic_reduce(eq_diagram, lambda_=0.0)
        cache = eq_diagram.cache
        for location, plan_id in reduction.assignment.items():
            assert cache.cost(plan_id, location) == pytest.approx(
                eq_diagram.cost_at(location), rel=1e-9
            )

    def test_larger_lambda_never_increases_cardinality(self, eq_diagram):
        small = anorexic_reduce(eq_diagram, lambda_=0.05).cardinality
        large = anorexic_reduce(eq_diagram, lambda_=0.5).cardinality
        assert large <= small

    def test_negative_lambda_rejected(self, eq_diagram):
        with pytest.raises(EssError):
            anorexic_reduce(eq_diagram, lambda_=-0.1)

    def test_subset_of_locations(self, eq_diagram):
        locations = [(0,), (10,), (20,)]
        reduction = anorexic_reduce(eq_diagram, locations, lambda_=0.2)
        assert set(reduction.assignment) == set(locations)

    def test_empty_locations_rejected(self, eq_diagram):
        with pytest.raises(EssError):
            anorexic_reduce(eq_diagram, [], lambda_=0.2)


def _reduced(diagram, locations, lambda_, monkeypatch, candidate_ids=None):
    """``anorexic_reduce`` and the ``(plan, swallowed)`` sequence of its
    ``ess.swallow`` events."""
    tracer = Tracer(MemorySink())
    monkeypatch.setattr(diagram.cache.optimizer, "tracer", tracer)
    reduction = anorexic_reduce(diagram, locations, lambda_, candidate_ids)
    swallows = [
        (e["attrs"]["plan"], e["attrs"]["swallowed"])
        for e in tracer.sink.events("ess.swallow")
    ]
    return reduction, swallows


class TestGreedyByDefinition:
    """The coverage-matrix greedy over slab costs is the per-candidate loop
    over whole-grid arrays: same owners, same plans, same picks."""

    @pytest.mark.parametrize("lambda_", [0.0, 0.05, 0.2, 0.5])
    @pytest.mark.parametrize("name", TABLE2_NAMES)
    def test_equals_the_literal_greedy(self, lab, name, lambda_, monkeypatch):
        built = lab.build(name)
        diagram, space = built.diagram, built.space
        grid = list(space.locations())
        contour_union = list(
            dict.fromkeys(loc for c in built.bouquet.contours for loc in c.locations)
        )
        rng = np.random.default_rng(29)
        subset = [grid[i] for i in rng.choice(len(grid), len(grid) // 3, replace=False)]
        for locations in (contour_union, grid, subset):
            reduction, swallows = _reduced(diagram, locations, lambda_, monkeypatch)
            assignment, plan_ids, expected = anorexic_by_definition(
                diagram, locations, lambda_
            )
            assert reduction.assignment == assignment
            assert reduction.plan_ids == plan_ids
            assert swallows == expected

    def test_earlier_candidate_wins_a_tie_on_gain_and_cost(
        self, eq_diagram, monkeypatch
    ):
        """Two names for one plan tie on gain and total cost: whichever
        is offered first is chosen."""
        space, registry = eq_diagram.space, eq_diagram.registry
        winner = _reduced(eq_diagram, None, 0.2, monkeypatch)[1][0][0]
        alias = max(eq_diagram.posp_plan_ids) + 1000

        class Aliased:
            def plan(self, plan_id):
                return registry.plan(winner if plan_id == alias else plan_id)

        aliased = Aliased()
        diagram = PlanDiagram(
            space,
            eq_diagram.plan_ids,
            eq_diagram.costs,
            aliased,
            PlanCostCache(space, eq_diagram.cache.optimizer, aliased),
        )
        posp = eq_diagram.posp_plan_ids
        at = posp.index(winner)
        for order, expected in (
            (posp[:at] + [alias] + posp[at:], alias),
            (posp[: at + 1] + [alias] + posp[at + 1 :], winner),
        ):
            reduction, swallows = _reduced(diagram, None, 0.2, monkeypatch, order)
            assert swallows[0][0] == expected
            assert expected in reduction.plan_ids
            assignment, plan_ids, by_definition = anorexic_by_definition(
                diagram, None, 0.2, order
            )
            assert (reduction.assignment, reduction.plan_ids, swallows) == (
                assignment,
                plan_ids,
                by_definition,
            )
