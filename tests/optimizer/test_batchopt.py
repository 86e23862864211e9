"""Batch compile kernel: ``optimize_batch`` must equal scalar ``optimize``.

The batch engine's contract is total: same plan id, same cost, same rows
at *every* slab location, because the frontier DP keeps every plan that
is cheapest somewhere in the slab and replicates the scalar DP's
tie-breaking per location.  These tests pin that contract on fixed
grids, degenerate slabs, aggregates, and hypothesis-random slabs, plus
the registry properties (structural dedup, thread safety) it rests on.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ess import ErrorDimension, PlanDiagram, SelectivitySpace
from repro.ess.posp import contour_focused_posp
from repro.optimizer import Optimizer, actual_selectivities
from repro.optimizer.optimizer import PlanRegistry
from repro.query import parse_query
from tests.conftest import scalar_diagram


def assert_batch_pins_scalar(optimizer, query, assignments):
    """The core contract: pointwise (plan id, cost, rows) equality."""
    batch = optimizer.optimize_batch(query, assignments)
    assert len(batch) == len(assignments)
    for result, assignment in zip(batch, assignments):
        scalar = optimizer.optimize(query, assignment=assignment)
        assert result.plan_id == scalar.plan_id
        assert result.cost == scalar.cost
        assert result.rows == scalar.rows
        assert result.signature == scalar.signature


class TestBatchMatchesScalar:
    def test_every_eq_space_location(self, optimizer, eq_query, eq_space):
        assignments = [
            eq_space.assignment_at(location) for location in eq_space.locations()
        ]
        assert_batch_pins_scalar(optimizer, eq_query, assignments)

    def test_single_location_slab(self, optimizer, eq_query, eq_space):
        assignments = [eq_space.assignment_at((17,))]
        assert_batch_pins_scalar(optimizer, eq_query, assignments)

    def test_empty_slab_returns_empty(self, optimizer, eq_query):
        assert optimizer.optimize_batch(eq_query, []) == []

    def test_resolution_two_grid(self, optimizer, eq_query, database):
        """The smallest legal grid: 2 points per dim, 2D over the EQ query."""
        base = actual_selectivities(eq_query, database)
        dims = [
            ErrorDimension(eq_query.selections[0].pid, 1e-4, 1.0, "sel"),
            ErrorDimension(eq_query.joins[0].pid, 1e-7, 1e-4, "join"),
        ]
        space = SelectivitySpace(eq_query, dims, 2, base)
        assignments = [
            space.assignment_at(location) for location in space.locations()
        ]
        assert len(assignments) == 4
        assert_batch_pins_scalar(optimizer, eq_query, assignments)

    def test_aggregate_query(self, schema, statistics, eq_space):
        query = parse_query(
            "select count(*) from lineitem, orders, part "
            "where p_partkey = l_partkey and l_orderkey = o_orderkey "
            "and p_retailprice < 1000 group by o_orderdate",
            schema,
        )
        optimizer = Optimizer(schema, statistics)
        base = optimizer.estimated_assignment(query)
        assignments = []
        for value in (1e-4, 0.01, 0.3, 1.0):
            assignment = dict(base)
            assignment[query.selections[0].pid] = value
            assignments.append(assignment)
        assert_batch_pins_scalar(optimizer, query, assignments)

    def test_single_table_query(self, schema, statistics):
        query = parse_query(
            "select * from part where p_retailprice < 1000", schema
        )
        optimizer = Optimizer(schema, statistics)
        pid = query.selections[0].pid
        assignments = [{pid: value} for value in (1e-4, 0.05, 0.5, 1.0)]
        assert_batch_pins_scalar(optimizer, query, assignments)


class TestHypothesisSlabs:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_slabs_pin_to_scalar(self, optimizer, eq_query, data):
        """Random 1D/2D/3D slabs: vary 1-3 of the EQ query's predicates
        with arbitrary selectivities; the batch kernel must still agree
        with the scalar optimizer everywhere."""
        pids = list(eq_query.predicate_ids)
        varying = data.draw(
            st.integers(min_value=1, max_value=len(pids)), label="dims"
        )
        base = optimizer.estimated_assignment(eq_query)
        length = data.draw(st.integers(min_value=1, max_value=6), label="slab")
        selectivity = st.floats(
            min_value=1e-6, max_value=1.0, allow_nan=False, exclude_min=False
        )
        assignments = []
        for index in range(length):
            assignment = dict(base)
            for pid in pids[:varying]:
                assignment[pid] = data.draw(selectivity, label=f"{pid}[{index}]")
            assignments.append(assignment)
        assert_batch_pins_scalar(optimizer, eq_query, assignments)


class TestRegistryDedup:
    def test_slab_winners_share_ids_with_scalar_path(
        self, optimizer, eq_query, eq_space
    ):
        """Structurally identical plans chosen at different locations
        deduplicate onto one id, and the ids are the ones the scalar
        path hands out for the same structures."""
        assignments = [
            eq_space.assignment_at(location) for location in eq_space.locations()
        ]
        batch = optimizer.optimize_batch(eq_query, assignments)
        by_signature = {}
        for result in batch:
            by_signature.setdefault(result.signature, set()).add(result.plan_id)
        for signature, ids in by_signature.items():
            assert len(ids) == 1, f"signature maps to multiple ids: {signature}"

    def test_canonical_returns_shared_instance(self, optimizer, eq_query, eq_space):
        registry = optimizer.registry(eq_query)
        result = optimizer.optimize(
            eq_query, assignment=eq_space.assignment_at((0,))
        )
        canonical = registry.canonical(result.plan)
        assert canonical is registry.plan(result.plan_id)


class TestPlanRegistryThreadSafety:
    def test_concurrent_registration_is_consistent(
        self, optimizer, eq_query, eq_space
    ):
        """Hammer one registry from many threads with a mix of repeated
        structures; ids must come out unique per signature, stable, and
        the registry internally consistent."""
        plans = []
        for location in [(0,), (15,), (31,), (47,), (63,)]:
            plans.append(
                optimizer.optimize(
                    eq_query, assignment=eq_space.assignment_at(location)
                ).plan
            )
        registry = PlanRegistry()
        results = [[] for _ in range(8)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(slot):
            try:
                barrier.wait()
                for _ in range(50):
                    for plan in plans:
                        results[slot].append(registry.register(plan))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every thread saw the same signature -> id mapping.
        mapping = {}
        for rows in results:
            for plan_id, signature in rows:
                mapping.setdefault(signature, set()).add(plan_id)
        assert all(len(ids) == 1 for ids in mapping.values())
        assert len(registry) == len(mapping)
        for ids in mapping.values():
            (plan_id,) = ids
            assert registry.plan(plan_id) is not None

    def test_registry_survives_pickling(self):
        import pickle

        registry = PlanRegistry()
        clone = pickle.loads(pickle.dumps(registry))
        assert len(clone) == 0
        # The lock is rebuilt, not pickled: registration still works.
        from repro.optimizer import SeqScan

        plan_id, _ = clone.register(SeqScan("part"))
        assert clone.plan(plan_id).signature() == SeqScan("part").signature()


class TestEngineEquality:
    def _fresh(self, optimizer):
        return Optimizer(optimizer.schema, optimizer.statistics)

    def test_exhaustive_engines_byte_identical(self, optimizer, eq_space):
        reference = scalar_diagram(self._fresh(optimizer), eq_space)
        batch = PlanDiagram.exhaustive(self._fresh(optimizer), eq_space)
        assert np.array_equal(reference.plan_ids, batch.plan_ids)
        assert np.array_equal(reference.costs, batch.costs)
        assert reference.posp_plan_ids == batch.posp_plan_ids

    def test_contour_band_engines_byte_identical(self, optimizer, eq_space, eq_diagram):
        from repro.core.contours import contour_costs

        costs = contour_costs(eq_diagram.cmin, eq_diagram.cmax)
        batch = contour_focused_posp(self._fresh(optimizer), eq_space, costs)
        # The paper's literal procedure: one scalar optimize per band
        # location, in the order the band first visited them.
        scalar = self._fresh(optimizer)
        reference = {}
        for location in batch.optimized:
            result = scalar.optimize(
                eq_space.query, assignment=eq_space.assignment_at(location)
            )
            reference[location] = (result.plan_id, result.cost)
        assert reference == batch.optimized
        assert batch.optimizer_calls == len(batch.optimized)
        assert batch.batched_locations > 0


class TestParallelBatch:
    def test_parallel_batch_matches_serial(self, optimizer, eq_space, eq_diagram):
        fresh = Optimizer(optimizer.schema, optimizer.statistics)
        parallel = PlanDiagram.exhaustive(fresh, eq_space, workers=2)
        assert np.array_equal(parallel.costs, eq_diagram.costs)
        for location in [(0,), (20,), (40,), (63,)]:
            serial_sig = eq_diagram.registry.plan(
                eq_diagram.plan_at(location)
            ).canonical_signature()
            parallel_sig = parallel.registry.plan(
                parallel.plan_at(location)
            ).canonical_signature()
            assert serial_sig == parallel_sig
