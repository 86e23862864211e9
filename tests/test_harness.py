"""Tests for the shared Lab harness."""

import json

import numpy as np
import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet
from repro.bench.harness import DEFAULT_RESOLUTIONS, Lab
from repro.catalog import tpcds_schema, tpch_schema
from repro.core.artifact import bouquet_to_dict
from repro.core.validation import validate_bouquet
from repro.optimizer import Optimizer
from repro.query.workload import full_workload
from tests.conftest import MINI_LAB

#: Every space a ``Lab`` builds: the 1D EQ example and the 13 Table 2 spaces.
SPACES = sorted(full_workload(tpch_schema(0.002), tpcds_schema(0.002)))


class TestLab:
    def test_builds_all_workload_names(self, lab):
        assert set(lab.workload) >= {"EQ", "3D_H_Q5", "5D_DS_Q19", "2D_H_Q8a"}

    def test_build_caches(self, lab):
        a = lab.build("EQ")
        b = lab.build("EQ")
        assert a is b

    def test_custom_resolution_bypasses_cache(self, lab):
        a = lab.build("EQ")
        b = lab.build("EQ", resolution=10)
        assert b is not a
        assert b.space.shape == (10,)
        # The cache still holds the default-resolution lab.
        assert lab.build("EQ") is a

    def test_resolution_for_dimensionality(self, lab):
        assert lab.resolution_for(1) == 40
        assert lab.resolution_for(3) == 7
        assert lab.resolution_for(99) == 5  # fallback

    def test_ds_queries_use_ds_environment(self, lab):
        ql = lab.build("3D_DS_Q96")
        assert ql.workload.query.schema is lab.ds_schema

    def test_h_queries_use_h_environment(self, lab):
        ql = lab.build("EQ")
        assert ql.workload.query.schema is lab.h_schema

    def test_query_lab_accessors(self, lab):
        ql = lab.build("EQ")
        assert ql.name == "EQ"
        assert ql.pic is ql.diagram.costs
        assert ql.bouquet_cost_field.shape == ql.space.shape
        assert ql.seer is ql.seer  # cached

    def test_nat_is_built_on_first_read(self, lab):
        """Building a query's lab costs no plan over the grid; NAT,
        which costs every POSP plan over it, is built when first read."""

        def builds():
            return lab.tracer.counters.get("ess.cost_array_builds", 0)

        before = builds()
        ql = lab.build("3D_H_Q5", resolution=5)
        assert builds() == before
        nat = ql.nat
        assert builds() - before == len(ql.diagram.posp_plan_ids)
        assert ql.nat is nat  # cached

    def test_lambda_and_ratio_propagate(self):
        custom = Lab(
            tpch_scale=0.002,
            tpcds_scale=0.002,
            stats_sample=500,
            lambda_=0.5,
            ratio=4.0,
            resolutions={1: 16},
        )
        ql = custom.build("EQ")
        assert ql.bouquet.lambda_ == 0.5
        assert ql.bouquet.ratio == 4.0


class TestSharedLab:
    def test_default_resolutions_table(self):
        assert DEFAULT_RESOLUTIONS[1] == 100
        assert DEFAULT_RESOLUTIONS[5] == 7


@pytest.fixture(scope="module")
def fresh_lab():
    """A miniature Lab no other test has planned with, so its plan ids
    are a fresh compile's."""
    return Lab(**MINI_LAB)


class TestExactCompile:
    """Every figure divides by the Lab's PIC, so it must be the exact one:
    the Lab compiles through ``compile_bouquet``, whose diagram is one
    exhaustive slab DP on every grid."""

    @pytest.mark.parametrize("name", SPACES)
    def test_pic_is_the_optimum_everywhere_sampled(self, fresh_lab, name):
        ql = fresh_lab.build(name)
        optimizer, _ = fresh_lab._env_for(name)
        fresh = Optimizer(optimizer.schema, optimizer.statistics, optimizer.cost_model)
        space = ql.space
        rng = np.random.default_rng(sum(map(ord, name)))
        for flat in rng.choice(space.size, size=min(20, space.size), replace=False):
            loc = np.unravel_index(flat, space.shape)
            best = fresh.optimize(space.query, space.assignment_at(loc))
            assert ql.pic[loc] == best.cost, (name, loc)
            plan = ql.diagram.registry.plan(ql.diagram.plan_at(loc))
            assert plan.signature() == best.plan.signature(), (name, loc)

    @pytest.mark.parametrize("name", SPACES)
    def test_bouquet_is_the_api_compile(self, fresh_lab, name):
        ql = fresh_lab.build(name)
        query = ql.workload.query
        optimizer, database = fresh_lab._env_for(name)
        compiled = compile_bouquet(
            query,
            Catalog(optimizer.schema, optimizer.statistics, database),
            config=BouquetConfig(
                ratio=fresh_lab.ratio,
                lambda_=fresh_lab.lambda_,
                resolution=ql.space.shape[0],
            ),
            dimensions=ql.workload.dimensions(),
        )
        assert json.dumps(bouquet_to_dict(query, ql.bouquet), sort_keys=True) == json.dumps(
            bouquet_to_dict(query, compiled.bouquet), sort_keys=True
        )
        report = validate_bouquet(ql.bouquet)
        assert report.ok, report.describe()
