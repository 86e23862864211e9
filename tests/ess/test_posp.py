"""Tests for contour-focused POSP generation (§4.2)."""

import pytest

from repro.core.contours import contour_costs
from repro.ess import contour_focused_posp
from repro.exceptions import EssError


@pytest.fixture(scope="module")
def band(optimizer, eq_space, eq_diagram):
    costs = contour_costs(eq_diagram.cmin, eq_diagram.cmax, 2.0)
    return contour_focused_posp(optimizer, eq_space, costs)


class TestContourFocusedPosp:
    def test_cheaper_than_exhaustive(self, band, eq_space):
        assert band.optimizer_calls < eq_space.size

    def test_band_locations_match_exhaustive(self, band, eq_diagram):
        for location, (plan_id, cost) in band.optimized.items():
            assert cost == pytest.approx(eq_diagram.cost_at(location))

    def test_band_covers_contour_neighbourhoods(self, band, eq_diagram):
        """Every contour crossing must be inside the optimized band: for
        each IC cost there is an optimized location within a small cost
        factor of it."""
        costs = contour_costs(eq_diagram.cmin, eq_diagram.cmax, 2.0)
        optimized_costs = sorted(c for _, c in band.optimized.values())
        for ic in costs:
            closest = min(optimized_costs, key=lambda c: abs(c - ic))
            assert closest <= ic * 2.1 and closest >= ic / 2.1

    def test_posp_subset_of_exhaustive(self, band, eq_diagram):
        assert set(band.posp_plan_ids) <= set(eq_diagram.posp_plan_ids)

    def test_requires_contours(self, optimizer, eq_space):
        with pytest.raises(EssError):
            contour_focused_posp(optimizer, eq_space, [])


class _TinySpace:
    """Minimal 1-D stand-in for SelectivitySpace: 9 grid points whose
    ``assignment_at`` is the location itself, so a fake optimizer can key
    costs directly off it."""

    size = 9
    origin = (0,)
    corner = (8,)
    query = None

    def assignment_at(self, location):
        return location


class _TieBreakOptimizer:
    """PCM holds (costs are non-decreasing up to float noise), but the
    low corner lands on a plan a whisker *above* the high corner — the
    inverted interval that used to prune the whole box."""

    def __init__(self):
        from repro.obs import NULL_TRACER

        self.tracer = NULL_TRACER
        self.calls = []

    def optimize(self, query, assignment=None):
        from types import SimpleNamespace

        self.calls.append(assignment)
        cost = 100.0 + 1e-6 if assignment == (0,) else 100.0
        return SimpleNamespace(plan_id=1, cost=cost, plan=None)

    def optimize_batch(self, query, assignments):
        return [self.optimize(query, assignment=a) for a in assignments]


class TestInvertedCornerRegression:
    def test_inverted_corner_interval_is_not_pruned(self):
        """A contour between the (inverted) corner costs must survive:
        ordering the pair with min/max keeps the containment test sound
        when tie-breaking flips cost_lo above cost_hi."""
        optimizer = _TieBreakOptimizer()
        band = contour_focused_posp(
            optimizer, _TinySpace(), [100.0 + 5e-7]
        )
        # The contour band around location 0 is explored, not swallowed.
        assert (1,) in band.optimized
        assert {(0,), (1,), (2,)} <= set(band.optimized)
        # The flat half of the space away from the contour is still pruned.
        assert band.pruned_boxes == 2

    def test_flat_space_prunes_everything_but_corners(self):
        """Control: with no contour inside the corner interval the root
        box is pruned after costing just the two diagonal corners."""
        optimizer = _TieBreakOptimizer()
        band = contour_focused_posp(optimizer, _TinySpace(), [250.0])
        assert set(band.optimized) == {(0,), (8,)}
        assert band.optimizer_calls == 2
        assert band.pruned_boxes == 1

