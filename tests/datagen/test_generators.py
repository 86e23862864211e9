"""Unit tests for the synthetic column generators."""

import numpy as np
import pytest

from repro.datagen.generators import (
    CorrelatedFloat,
    DateRange,
    DictionaryString,
    ForeignKeyRef,
    SequentialKey,
    UniformFloat,
    UniformInt,
)
from repro.exceptions import CatalogError


def rng():
    return np.random.default_rng(0)


class TestSequentialKey:
    def test_dense_keys(self):
        values = SequentialKey().generate(10, rng())
        assert list(values) == list(range(1, 11))

    def test_custom_start(self):
        assert SequentialKey(start=5).generate(3, rng())[0] == 5


class TestUniform:
    def test_int_bounds(self):
        values = UniformInt(3, 7).generate(10_000, rng())
        assert values.min() >= 3 and values.max() <= 7

    def test_int_rejects_inverted_bounds(self):
        with pytest.raises(CatalogError):
            UniformInt(7, 3).generate(10, rng())

    def test_float_bounds(self):
        values = UniformFloat(0.5, 1.5).generate(10_000, rng())
        assert values.min() >= 0.5 and values.max() < 1.5
        assert values.mean() == pytest.approx(1.0, abs=0.05)


class TestForeignKeyRef:
    def test_uniform_refs_in_range(self):
        values = ForeignKeyRef(50).generate(5000, rng())
        assert values.min() >= 1 and values.max() <= 50

    def test_skew_concentrates_references(self):
        uniform = ForeignKeyRef(1000, skew=0.0).generate(50_000, rng())
        skewed = ForeignKeyRef(1000, skew=1.0).generate(50_000, rng())
        u_top = np.unique(uniform, return_counts=True)[1].max()
        s_top = np.unique(skewed, return_counts=True)[1].max()
        assert s_top > 3 * u_top

    def test_rejects_empty_parent(self):
        with pytest.raises(CatalogError):
            ForeignKeyRef(0).generate(10, rng())


class TestCorrelatedFloat:
    def test_correlation_materializes(self):
        base = np.random.default_rng(1).uniform(0, 50, size=20_000)
        gen = CorrelatedFloat("base", 0.0, 100.0, correlation=0.9)
        values = gen.generate_correlated(base, base.size, rng())
        corr = np.corrcoef(base, values)[0, 1]
        assert corr > 0.8

    def test_range_respected(self):
        base = np.random.default_rng(1).uniform(0, 50, size=1000)
        values = CorrelatedFloat("base", 10.0, 20.0, 0.5).generate_correlated(
            base, base.size, rng()
        )
        assert values.min() >= 10.0 and values.max() <= 20.0

    def test_direct_generate_rejected(self):
        with pytest.raises(CatalogError):
            CorrelatedFloat("base", 0.0, 1.0).generate(10, rng())

    def test_length_mismatch_rejected(self):
        with pytest.raises(CatalogError):
            CorrelatedFloat("base", 0.0, 1.0).generate_correlated(
                np.zeros(5), 10, rng()
            )


class TestDictionaryAndDates:
    def test_dictionary_codes_in_range(self):
        values = DictionaryString(5).generate(1000, rng())
        assert set(np.unique(values)) <= set(range(5))

    def test_date_range(self):
        values = DateRange(100, 200).generate(1000, rng())
        assert values.min() >= 100 and values.max() <= 200

    def test_date_rejects_inverted(self):
        with pytest.raises(CatalogError):
            DateRange(10, 5).generate(10, rng())
