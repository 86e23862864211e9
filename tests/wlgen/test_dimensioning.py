"""Sensitivity-driven ESS dimensioning: properties + Table-2 regression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ess import (
    candidate_error_dimensions,
    measure_error_sensitivity,
    sensitivity_error_dimensions,
)
from repro.optimizer import Optimizer, actual_selectivities
from repro.query.workload import tpch_workload
from repro.wlgen import CampaignConfig, QueryGenerator, build_env, dimension_query
from tests.conftest import sensitivity_by_definition


@pytest.fixture(scope="module")
def generator(schema, database):
    return QueryGenerator(schema, database)


class TestCandidates:
    @given(index=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_candidates_cover_exactly_the_predicates(self, generator, index):
        query = generator.generate(55, index).query
        candidates = candidate_error_dimensions(query)
        assert [dim.pid for dim in candidates] == list(query.predicate_ids)
        for dim in candidates:
            assert 0.0 < dim.lo < dim.hi <= 1.0


class TestSensitivitySelection:
    @given(index=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_ranked_dims_are_a_predicate_subset(
        self, generator, optimizer, database, index
    ):
        """Satellite property: sensitivity-ranked dims ⊆ query predicates."""
        query = generator.generate(55, index).query
        result = dimension_query(optimizer, query, database)
        pids = set(query.predicate_ids)
        assert set(result.pids) <= pids
        assert 1 <= len(result.dimensions) <= 3
        # The full score table covers every predicate, ranked by penalty.
        assert {s.dimension.pid for s in result.scores} == pids
        penalties = [s.penalty for s in result.scores]
        assert penalties == sorted(penalties, reverse=True)
        for score in result.scores:
            assert score.penalty >= 1.0

    def test_deterministic(self, generator, optimizer, database):
        query = generator.generate(4, 2).query
        a = dimension_query(optimizer, query, database)
        b = dimension_query(optimizer, query, database)
        assert a.pids == b.pids
        assert [s.penalty for s in a.scores] == [s.penalty for s in b.scores]

    def test_always_keeps_at_least_one_dimension(
        self, generator, optimizer, database
    ):
        query = generator.generate(4, 0).query
        base = actual_selectivities(query, database)
        # An absurd penalty floor must still leave the top dimension.
        dims, _ = sensitivity_error_dimensions(
            optimizer, query, base, min_penalty=1e12
        )
        assert len(dims) == 1

    def test_serializes(self, generator, optimizer, database):
        query = generator.generate(4, 1).query
        payload = dimension_query(optimizer, query, database).to_dict()
        assert payload["dimensions"]
        assert payload["scores"][0]["penalty"] >= payload["scores"][-1]["penalty"]
        assert set(payload["base_assignment"]) == set(query.predicate_ids)


class TestSensitivityInOneSlab:
    def test_campaign_pool_scores_pin_the_per_point_definition(self):
        """The base plan costed in one slab context over every sweep
        point scores each candidate bit for bit as costing it point by
        point against the scalar DP's optimum: over the ledger's 31
        ``eval_campaign`` queries (the first TPC-DS queries of pool seed
        42), at the campaign's sensitivity resolution."""
        config = CampaignConfig(benchmark="tpcds", count=31)
        world = build_env(config)
        optimizer = world.optimizer
        for index in range(config.count):
            query = world.generator.generate(config.seed, index).query
            base = actual_selectivities(query, world.catalog.database)
            candidates = candidate_error_dimensions(query)
            scores = measure_error_sensitivity(
                optimizer, query, candidates, base, config.sensitivity_resolution
            )
            oracle = Optimizer(optimizer.schema, optimizer.statistics)
            assert [
                (s.dimension.pid, s.penalty, s.cost_span) for s in scores
            ] == sensitivity_by_definition(
                oracle, query, candidates, base, config.sensitivity_resolution
            ), index


class TestTable2Regression:
    """The automatic strategy must recover — or cost-dominate — the
    paper-derived hand-picked dimension lists of ``query/workload.py``."""

    @pytest.fixture(scope="class")
    def scored_workload(self, schema, database, optimizer):
        out = {}
        for wq in tpch_workload(schema).values():
            base = actual_selectivities(wq.query, database)
            candidates = candidate_error_dimensions(wq.query)
            scores = measure_error_sensitivity(
                optimizer, wq.query, candidates, base
            )
            by_pid = {s.dimension.pid: s.penalty for s in scores}
            hand = [dim.pid for dim in wq.dimensions()]
            chosen, _ = sensitivity_error_dimensions(
                optimizer, wq.query, base, max_dims=len(hand), min_penalty=1.0
            )
            out[wq.name] = (hand, [d.pid for d in chosen], by_pid)
        return out

    def test_hand_picked_dims_are_always_candidates(self, scored_workload):
        for name, (hand, _chosen, by_pid) in scored_workload.items():
            missing = [pid for pid in hand if pid not in by_pid]
            assert not missing, f"{name}: {missing} not scored"

    def test_chosen_set_cost_dominates_hand_picked(self, scored_workload):
        """Rank-for-rank, the k chosen dims carry at least the penalty of
        the k hand-picked dims."""
        for name, (hand, chosen, by_pid) in scored_workload.items():
            hand_sorted = sorted((by_pid[p] for p in hand), reverse=True)
            chosen_sorted = sorted((by_pid[p] for p in chosen), reverse=True)
            assert len(chosen) == len(hand), name
            for rank, (c, h) in enumerate(zip(chosen_sorted, hand_sorted)):
                assert c >= h - 1e-9, (
                    f"{name}: rank-{rank} chosen penalty {c:.3f} below "
                    f"hand-picked {h:.3f}"
                )

    def test_chosen_set_overlaps_hand_picked(self, scored_workload):
        for name, (hand, chosen, _by_pid) in scored_workload.items():
            assert set(chosen) & set(hand), f"{name}: disjoint from Table 2"

    def test_pure_selection_workloads_recovered_exactly(self, scored_workload):
        """Where Table 2 picked selection dims only, the automatic ranking
        lands on the identical set (an empirical anchor, not a law)."""
        for name in ("EQ", "2D_H_Q8a", "3D_H_Q5b", "4D_H_Q8b"):
            hand, chosen, _ = scored_workload[name]
            assert set(chosen) == set(hand), name
