"""Template-cache fixtures: a catalog over the shared session world and
a small compile config."""

from __future__ import annotations

import pytest

from repro.api import BouquetConfig, Catalog


@pytest.fixture(scope="module")
def catalog(schema, statistics, database):
    """Module-scoped (unlike the serve fixtures): template tests only
    read the catalog, and hypothesis @given requires stable fixtures."""
    return Catalog(schema, statistics=statistics, database=database)


@pytest.fixture(scope="module")
def small_config():
    return BouquetConfig(resolution=8)
