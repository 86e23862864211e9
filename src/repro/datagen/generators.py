"""Seeded synthetic column generators.

Each generator produces a numpy array of a given length from a seeded RNG,
so databases are fully reproducible.  Skewed (Zipf) and correlated
generators exist specifically to create the estimate-vs-actual divergence
that motivates the plan-bouquet technique: equi-depth histograms built from
samples systematically mis-estimate Zipf tails, and attribute-value
independence (AVI) breaks on correlated columns.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..exceptions import CatalogError


class ColumnGenerator:
    """Base class: subclasses implement :meth:`generate`."""

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass
class SequentialKey(ColumnGenerator):
    """Dense primary key 1..n."""

    start: int = 1

    def generate(self, n, rng):
        return np.arange(self.start, self.start + n, dtype=np.int64)


@dataclass
class UniformInt(ColumnGenerator):
    """Uniform integers in ``[low, high]`` inclusive."""

    low: int
    high: int

    def generate(self, n, rng):
        if self.high < self.low:
            raise CatalogError("UniformInt requires high >= low")
        return rng.integers(self.low, self.high + 1, size=n, dtype=np.int64)


@dataclass
class UniformFloat(ColumnGenerator):
    """Uniform floats in ``[low, high)``."""

    low: float
    high: float

    def generate(self, n, rng):
        return rng.uniform(self.low, self.high, size=n)


@dataclass
class ForeignKeyRef(ColumnGenerator):
    """References into a parent key range ``[1, parent_rows]``.

    ``skew`` > 0 makes some parents far more referenced than others
    (Zipf over parents), producing join-selectivity surprises.
    """

    parent_rows: int
    skew: float = 0.0

    def generate(self, n, rng):
        if self.parent_rows < 1:
            raise CatalogError("ForeignKeyRef requires parent_rows >= 1")
        if self.skew <= 0:
            return rng.integers(1, self.parent_rows + 1, size=n, dtype=np.int64)
        ranks = np.arange(1, self.parent_rows + 1, dtype=float)
        weights = ranks ** (-self.skew)
        weights /= weights.sum()
        # Shuffle which parent gets which rank so hot keys are scattered.
        perm = rng.permutation(self.parent_rows)
        values = rng.choice(self.parent_rows, size=n, p=weights)
        return (perm[values] + 1).astype(np.int64)


@dataclass
class CorrelatedFloat(ColumnGenerator):
    """A float column correlated with a previously generated base array.

    ``value = correlation * scaled(base) + (1 - correlation) * noise``,
    then mapped to ``[low, high)``.  Used to break AVI assumptions.
    """

    base_column: str
    low: float
    high: float
    correlation: float = 0.8

    def generate_correlated(
        self, base: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        if base.size != n:
            raise CatalogError("correlated base column has mismatched length")
        span = base.max() - base.min()
        scaled = (base - base.min()) / span if span > 0 else np.zeros(n)
        noise = rng.uniform(0.0, 1.0, size=n)
        mixed = self.correlation * scaled + (1.0 - self.correlation) * noise
        return self.low + mixed * (self.high - self.low)

    def generate(self, n, rng):  # pragma: no cover - needs base array
        raise CatalogError(
            "CorrelatedFloat must be generated through Database construction"
        )


@dataclass
class DictionaryString(ColumnGenerator):
    """A dictionary-encoded 'string' column: integer codes in [0, cardinality).

    Optionally Zipf-skewed code frequencies.
    """

    cardinality: int
    skew: float = 0.0

    def generate(self, n, rng):
        if self.cardinality < 1:
            raise CatalogError("DictionaryString requires cardinality >= 1")
        if self.skew <= 0:
            return rng.integers(0, self.cardinality, size=n, dtype=np.int64)
        ranks = np.arange(1, self.cardinality + 1, dtype=float)
        weights = ranks ** (-self.skew)
        weights /= weights.sum()
        return rng.choice(self.cardinality, size=n, p=weights).astype(np.int64)


@dataclass
class DateRange(ColumnGenerator):
    """Days since epoch, uniform in ``[start_day, end_day]``."""

    start_day: int
    end_day: int

    def generate(self, n, rng):
        if self.end_day < self.start_day:
            raise CatalogError("DateRange requires end_day >= start_day")
        return rng.integers(self.start_day, self.end_day + 1, size=n, dtype=np.int64)
