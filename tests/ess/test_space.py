"""Unit tests for the ESS grid."""

import numpy as np
import pytest

from repro.ess import ErrorDimension, SelectivitySpace
from repro.exceptions import EssError


class TestErrorDimension:
    def test_valid_range(self):
        dim = ErrorDimension("sel:x", 1e-4, 1.0)
        assert dim.name == "sel:x"

    def test_label_overrides_name(self):
        assert ErrorDimension("sel:x", 0.1, 0.2, "nice").name == "nice"

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.5, 0.5), (0.5, 0.1), (0.1, 1.5)])
    def test_invalid_ranges(self, lo, hi):
        with pytest.raises(EssError):
            ErrorDimension("sel:x", lo, hi)


class TestGrid:
    def test_log_spacing(self, eq_space):
        grid = eq_space.grids[0]
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1.0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_size_and_shape(self, eq_space):
        assert eq_space.shape == (64,)
        assert eq_space.size == 64
        assert eq_space.dimensionality == 1
        assert eq_space.origin == (0,)
        assert eq_space.corner == (63,)

    def test_locations_count(self, eq_space):
        assert sum(1 for _ in eq_space.locations()) == 64

    def test_assignment_at_overrides_dim(self, eq_space, eq_query):
        pid = eq_query.selections[0].pid
        a = eq_space.assignment_at((0,))
        assert a[pid] == pytest.approx(1e-4)
        assert set(a) == set(eq_query.predicate_ids)

    def test_bad_location_rejected(self, eq_space):
        with pytest.raises(EssError):
            eq_space.selectivities_at((64,))
        with pytest.raises(EssError):
            eq_space.selectivities_at((0, 0))

    def test_duplicate_dims_rejected(self, eq_query, eq_space):
        dim = eq_space.dimensions[0]
        with pytest.raises(EssError):
            SelectivitySpace(eq_query, [dim, dim], 4, eq_space.base_assignment)

    def test_resolution_validation(self, eq_query, eq_space):
        dim = eq_space.dimensions[0]
        with pytest.raises(EssError):
            SelectivitySpace(eq_query, [dim], 1, eq_space.base_assignment)
        with pytest.raises(EssError):
            SelectivitySpace(eq_query, [dim], [4, 4], eq_space.base_assignment)


class TestGeometryHelpers:
    def test_snap_ceils(self, eq_space):
        grid = eq_space.grids[0]
        # Snapping a value between grid[3] and grid[4] must go up to 4.
        value = float(np.sqrt(grid[3] * grid[4]))
        # Snapping an exact grid point stays there; rows snap one by one.
        assert eq_space.snap([[value], [float(grid[10])]]).tolist() == [[4], [10]]

    def test_snap_clamps_to_top(self, eq_space):
        assert eq_space.snap([[2.0]]).tolist() == [[63]]

    def test_nearest_location(self, eq_space):
        grid = eq_space.grids[0]
        assert eq_space.nearest_location([float(grid[7]) * 1.01]) == (7,)

    def test_dominates(self, eq_space):
        assert eq_space.dominates((5,), (3,))
        assert not eq_space.dominates((2,), (3,))

    def test_assignment_for_clamps(self, eq_space, eq_query):
        pid = eq_query.selections[0].pid
        a = eq_space.assignment_for([5.0])
        assert a[pid] == pytest.approx(1.0)
        a = eq_space.assignment_for([1e-9])
        assert a[pid] == pytest.approx(1e-4)
