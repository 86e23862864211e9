"""The error-prone selectivity space (ESS).

The ESS is a D-dimensional grid of selectivity locations (§2): each
dimension is one error-prone predicate of the query, spanning a
log-spaced range of selectivities.  Every grid location corresponds to a
complete selectivity assignment (error dims from the grid, remaining
predicates from a fixed base assignment), i.e. to "a unique query".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import EssError
from ..optimizer.selectivity import SelectivityAssignment
from ..query.query import Query

#: Grid index: one integer per ESS dimension.
Location = Tuple[int, ...]


@dataclass(frozen=True)
class ErrorDimension:
    """One error-prone selectivity dimension.

    ``lo``/``hi`` bound the selectivity range; for PK-FK join dimensions
    ``hi`` is typically the reciprocal of the PK relation's cardinality
    (§4.1's "schematic constraints").
    """

    pid: str
    lo: float
    hi: float
    label: str = ""

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi <= 1.0):
            raise EssError(
                f"dimension {self.pid!r} needs 0 < lo < hi <= 1, "
                f"got [{self.lo}, {self.hi}]"
            )

    @property
    def name(self) -> str:
        return self.label or self.pid


class SelectivitySpace:
    """A discretized ESS grid for one query.

    Parameters
    ----------
    query:
        The query whose predicates the dimensions refer to.
    dimensions:
        Error-prone dimensions (each pid must be a predicate of the query).
    resolution:
        Grid points per dimension — an int (same for all) or one per dim.
    base_assignment:
        Selectivities for the query's *non*-error predicates (assumed
        accurately estimable, §8).  Error pids may appear; they are
        overridden by grid values.
    """

    def __init__(
        self,
        query: Query,
        dimensions: Sequence[ErrorDimension],
        resolution,
        base_assignment: Mapping[str, float],
    ):
        if not dimensions:
            raise EssError("ESS needs at least one dimension")
        self.query = query
        self.dimensions: Tuple[ErrorDimension, ...] = tuple(dimensions)
        pids = [dim.pid for dim in self.dimensions]
        if len(set(pids)) != len(pids):
            raise EssError("duplicate pid among ESS dimensions")
        for pid in pids:
            query.predicate(pid)  # validates existence
        if isinstance(resolution, int):
            resolutions = [resolution] * len(self.dimensions)
        else:
            resolutions = list(resolution)
        if len(resolutions) != len(self.dimensions):
            raise EssError("resolution list does not match dimension count")
        if any(r < 2 for r in resolutions):
            raise EssError("each dimension needs at least 2 grid points")
        self.shape: Tuple[int, ...] = tuple(resolutions)
        self.grids: List[np.ndarray] = [
            np.logspace(math.log10(dim.lo), math.log10(dim.hi), res)
            for dim, res in zip(self.dimensions, self.shape)
        ]
        self.base_assignment: SelectivityAssignment = dict(base_assignment)

    # ------------------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        return len(self.dimensions)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def origin(self) -> Location:
        return (0,) * self.dimensionality

    @property
    def corner(self) -> Location:
        """The top corner of the principal diagonal (max selectivities)."""
        return tuple(r - 1 for r in self.shape)

    def locations(self) -> Iterator[Location]:
        """Iterate over every grid location in row-major order."""
        return itertools.product(*(range(r) for r in self.shape))

    def selectivities_at(self, location: Location) -> Tuple[float, ...]:
        """Selectivity values of the error dims at a grid location."""
        self._check(location)
        return tuple(
            float(self.grids[d][i]) for d, i in enumerate(location)
        )

    def assignment_at(self, location: Location) -> SelectivityAssignment:
        """Full selectivity assignment (base + grid values) at a location."""
        assignment = dict(self.base_assignment)
        for dim, value in zip(self.dimensions, self.selectivities_at(location)):
            assignment[dim.pid] = value
        return assignment

    def slab_columns(
        self, positions: np.ndarray
    ) -> Tuple[Dict[str, object], int]:
        """Slab columns of the locations at row-major ``positions`` and
        their number.

        The array-shaped :meth:`assignment_at`: base pids map to floats,
        each error pid to the 1-D array of its grid values at those
        locations, in the order given — the input of
        :meth:`Optimizer.optimize_slab` (a range, ``np.arange``) and of the
        anorexic reduction's costing (the locations it decides on).
        """
        columns: Dict[str, object] = {
            pid: float(value) for pid, value in self.base_assignment.items()
        }
        indices = np.unravel_index(positions, self.shape)
        for dim, grid, index in zip(self.dimensions, self.grids, indices):
            columns[dim.pid] = grid[index]
        return columns, len(positions)

    def grid_columns(self, start: int, stop: int) -> Tuple[Dict[str, object], int]:
        """Slab columns of the sub-grid of axis-0 rows ``[start, stop)``
        and its number of locations.

        The broadcast form of :meth:`slab_columns` over a block of the
        grid: base pids map to floats, each error pid to its grid values
        along its own axis, of length 1 on every other axis — so a DP
        entry that reads ``k`` of the ``D`` axes works on their cells
        alone.  Row-major over the sub-grid, it is
        ``slab_columns(positions)`` of the same locations.
        """
        columns: Dict[str, object] = {
            pid: float(value) for pid, value in self.base_assignment.items()
        }
        grids = [self.grids[0][start:stop]] + self.grids[1:]
        for dim, axis in zip(
            self.dimensions, np.meshgrid(*grids, indexing="ij", sparse=True)
        ):
            columns[dim.pid] = axis
        return columns, (stop - start) * self.size // self.shape[0]

    def assignment_for(self, values: Sequence[float]) -> SelectivityAssignment:
        """Assignment for arbitrary (continuous) dim values — used by the
        run-time q_run tracking, which moves between grid points."""
        if len(values) != self.dimensionality:
            raise EssError("value vector does not match dimensionality")
        assignment = dict(self.base_assignment)
        for dim, value in zip(self.dimensions, values):
            assignment[dim.pid] = float(min(dim.hi, max(dim.lo, value)))
        return assignment

    def snap(self, values: np.ndarray) -> np.ndarray:
        """Grid locations whose selectivities dominate ``values`` (ceil),
        one per row of an ``(n, D)`` array."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.dimensionality:
            raise EssError("value rows do not match dimensionality")
        out = np.empty(values.shape, dtype=np.int64)
        for d, grid in enumerate(self.grids):
            idx = np.searchsorted(grid, values[:, d] * (1.0 - 1e-12), side="left")
            out[:, d] = np.minimum(idx, grid.size - 1)
        return out

    def nearest_location(self, values: Sequence[float]) -> Location:
        """Grid location closest to ``values`` in log space."""
        idx = []
        for d, value in enumerate(values):
            grid = self.grids[d]
            i = int(np.argmin(np.abs(np.log(grid) - math.log(max(value, 1e-300)))))
            idx.append(i)
        return tuple(idx)

    def dominates(self, a: Location, b: Location) -> bool:
        """True if location ``a`` >= ``b`` componentwise."""
        return all(x >= y for x, y in zip(a, b))

    def _check(self, location: Location):
        if len(location) != self.dimensionality:
            raise EssError(f"bad location arity: {location}")
        for d, i in enumerate(location):
            if not (0 <= i < self.shape[d]):
                raise EssError(f"location {location} outside grid {self.shape}")

    def describe(self) -> str:
        lines = [
            f"ESS for {self.query.name}: {self.dimensionality}D grid {self.shape}"
        ]
        for dim, res in zip(self.dimensions, self.shape):
            lines.append(
                f"  {dim.name}: [{dim.lo:.3g}, {dim.hi:.3g}] x {res} points"
            )
        return "\n".join(lines)
