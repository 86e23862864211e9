"""Tests for the shared Lab harness."""

from repro.bench.harness import DEFAULT_RESOLUTIONS, Lab


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
