"""Serving-layer fixtures: a catalog over the shared session world and
a small compile config that keeps each test-compile to a handful of
optimizer calls."""

from __future__ import annotations

import os

import pytest

from repro.api import BouquetConfig, Catalog


@pytest.fixture
def catalog(schema, statistics, database):
    """Function-scoped so tests may mutate `catalog.statistics` freely."""
    return Catalog(schema, statistics=statistics, database=database)


@pytest.fixture
def small_config():
    return BouquetConfig(resolution=16)


@pytest.fixture
def envelope_path():
    """Where a disk store under ``root`` keeps ``key``'s envelope: named
    by its statistics world, ``<statistics_digest>-<digest>.json``."""

    def path(root, key):
        return os.path.join(str(root), f"{key.statistics_digest}-{key.digest}.json")

    return path
