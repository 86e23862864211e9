"""Batch compile kernel: every slab must equal the scalar DP.

The kernel's contract is total: same plan id, same cost, same rows at
*every* slab location, because the slab DP recurs on each subset's best
(cost, rows), replicates the scalar DP's candidate order and
tie-breaking per location, and recovers the winning plans from
back-pointers.  The scalar DP it replaced is the oracle
(``tests/conftest.py::scalar_optimize``).  These tests pin that contract
on fixed grids, degenerate slabs, aggregates, hypothesis-random slabs,
the Table 2 and generated queries (in grid order, shuffled, duplicated,
under exact cost ties), grid and mixed float/array column layouts,
one-location ``optimize``, plus the registry properties (structural dedup, thread safety) it rests on.
"""

import copy
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BouquetConfig
from repro.ess import ErrorDimension, PlanDiagram, SelectivitySpace
from repro.ess.diagram import PlanCostCache
from repro.ess.posp import contour_focused_posp
from repro.optimizer import (
    POSTGRES_COST_MODEL,
    IndexLookup,
    Join,
    Optimizer,
    actual_selectivities,
    cost_plan,
)
from repro.optimizer.joinorder import JoinEnumerator
from repro.optimizer.optimizer import PlanRegistry
from repro.optimizer.plans import CostContext
from repro.query import parse_query
from repro.query.workload import TABLE2_NAMES
from repro.wlgen import QueryGenerator, dimension_query
from tests.conftest import scalar_diagram, scalar_optimize, scalar_results


def assert_pins(batch, scalar):
    """The core contract: pointwise (plan, cost, rows, plan id) equality."""
    assert len(batch) == len(scalar)
    for got, want in zip(batch, scalar):
        assert got.signature == want.signature
        assert got.cost == want.cost
        assert got.rows == want.rows
        assert got.plan_id == want.plan_id


def assert_batch_pins_scalar(optimizer, query, assignments):
    batch = optimizer.optimize_batch(query, assignments)
    assert_pins(batch, [scalar_optimize(optimizer, query, a) for a in assignments])


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
        shared = registry.plan(result.plan_id)
        # A structurally identical copy registers onto the existing id,
        # whose instance stays the one every location shares.
        plan_id, _ = registry.register(copy.deepcopy(result.plan))
        assert plan_id == result.plan_id
        assert registry.plan(plan_id) is shared


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
        # The paper's literal procedure: one scalar DP per band
        # location, in the order the band first visited them.
        scalar = self._fresh(optimizer)
        reference = {}
        for location in batch.optimized:
            result = scalar_optimize(
                scalar, eq_space.query, eq_space.assignment_at(location)
            )
            reference[location] = (result.plan_id, result.cost)
        assert reference == batch.optimized
        assert batch.optimizer_calls == len(batch.optimized)
        assert 0 < batch.slabs < batch.optimizer_calls


#: Generated queries per schema in the widened oracle (the first ones of
#: the generator's seed-42 stream that have an error dimension at all).
GENERATED_PER_SCHEMA = 8
ORACLE_CASES = list(TABLE2_NAMES) + [
    f"{benchmark}:{index}"
    for benchmark in ("tpch", "tpcds")
    for index in range(GENERATED_PER_SCHEMA)
]


@pytest.fixture(scope="module")
def oracle(lab):
    """``name -> (fresh-optimizer factory, space, scalar results)`` for
    every oracle case, the scalar sweep run once per case: the ten Table 2
    queries at resolution 3, the generated ones at their default
    resolution."""
    worlds = {
        "tpch": (lab.h_schema, lab.h_stats, lab.h_db),
        "tpcds": (lab.ds_schema, lab.ds_stats, lab.ds_db),
    }
    generated = {}
    for benchmark, (schema, statistics, database) in worlds.items():
        generator = QueryGenerator(schema, database)
        optimizer = Optimizer(schema, statistics)
        index = found = 0
        while found < GENERATED_PER_SCHEMA:
            query = generator.generate(42, index).query
            index += 1
            chosen = dimension_query(optimizer, query, database)
            if chosen.dimensions:
                generated[f"{benchmark}:{found}"] = (query, chosen)
                found += 1
    cache = {}

    def build(name):
        if name not in cache:
            if name in generated:
                query, chosen = generated[name]
                schema, statistics, _ = worlds[name.split(":")[0]]
                space = SelectivitySpace(
                    query,
                    chosen.dimensions,
                    BouquetConfig().resolution_for(len(chosen.dimensions)),
                    chosen.base_assignment,
                )
            else:
                entry = lab.workload[name]
                schema, statistics, database = worlds["tpcds" if "DS" in name else "tpch"]
                base = actual_selectivities(entry.query, database)
                space = SelectivitySpace(entry.query, entry.dimensions(), 3, base)

            def fresh(schema=schema, statistics=statistics):
                return Optimizer(schema, statistics)

            cache[name] = (fresh, space, scalar_results(fresh(), space))
        return cache[name]

    return build


class TestScalarOracle:
    """The slab recurrence never sees which plan a child's best belongs
    to; these pin it to the scalar DP far beyond ``eq_query``."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_whole_grid_pins_scalar(self, oracle, name):
        fresh, space, scalar = oracle(name)
        assignments = [space.assignment_at(loc) for loc in space.locations()]
        assert_pins(fresh().optimize_batch(space.query, assignments), scalar)
        # The array-shaped front builds its own columns from the grid.
        diagram = PlanDiagram.exhaustive(fresh(), space)
        assert diagram.plan_ids.ravel().tolist() == [r.plan_id for r in scalar]
        assert diagram.costs.ravel().tolist() == [r.cost for r in scalar]

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_shuffled_slab_with_duplicates(self, oracle, name):
        """An unmasked recurrence must not depend on grid order, nor on
        a location being unique in its slab."""
        fresh, space, scalar = oracle(name)
        rng = np.random.default_rng(20)
        order = rng.permutation(space.size).tolist()
        order += rng.integers(0, space.size, space.size // 4 + 1).tolist()
        locations = list(space.locations())
        batch = fresh().optimize_batch(
            space.query, [space.assignment_at(locations[i]) for i in order]
        )
        # Plan ids follow the slab's order: replay the scalar plans in it.
        registry = PlanRegistry()
        for got, index in zip(batch, order):
            want = scalar[index]
            assert got.signature == want.signature
            assert got.cost == want.cost
            assert got.rows == want.rows
            assert got.plan_id == registry.register(want.plan)[0]

    def test_exact_ties_go_to_the_first_candidate(self, lab):
        """With free hashing and free tuples both hash orientations of
        every split cost exactly ``left.cost + right.cost``; the first
        candidate must win at every location, as in
        ``JoinEnumerator.best_plan``."""
        model = dataclasses.replace(
            POSTGRES_COST_MODEL, hash_tuple_cost=0.0, cpu_tuple_cost=0.0
        )
        entry = lab.workload["3D_H_Q5"]
        base = actual_selectivities(entry.query, lab.h_db)
        space = SelectivitySpace(entry.query, entry.dimensions(), 4, base)

        def fresh():
            return Optimizer(lab.h_schema, lab.h_stats, cost_model=model)

        scalar = scalar_results(fresh(), space)
        assignments = [space.assignment_at(loc) for loc in space.locations()]
        assert_pins(fresh().optimize_batch(space.query, assignments), scalar)
        # The premise: the ties are real.
        tied = 0
        for result, assignment in zip(scalar, assignments):
            plan = result.plan
            if isinstance(plan, Join) and plan.algo == "hash":
                mirrored = Join("hash", plan.right, plan.left, plan.join_pids)
                cost = cost_plan(mirrored, lab.h_schema, model, assignment).cost
                tied += cost == result.cost
        assert tied > 0


class TestBatchCostArrays:
    @pytest.mark.parametrize("name", ["3D_H_Q5", "4D_H_Q8"])
    def test_cost_arrays_pin_scalar_costing(self, lab, name):
        """One transient broadcast-shaped context for all POSP plans ==
        per-location scalar ``cost_plan`` == the dense-mesh evaluation
        of one plan at a time, bit for bit."""
        diagram = lab.build(name).diagram
        space, optimizer = diagram.space, lab.h_optimizer
        schema, model = optimizer.schema, optimizer.cost_model
        posp = diagram.posp_plan_ids
        cache = PlanCostCache(space, optimizer, diagram.registry)
        arrays = cache.cost_arrays(posp)
        assert sorted(arrays) == posp and len(cache) == len(posp)

        dense = dict(space.base_assignment)
        meshes = np.meshgrid(*space.grids, indexing="ij")
        for dim, mesh in zip(space.dimensions, meshes):
            dense[dim.pid] = mesh
        assignments = [space.assignment_at(loc) for loc in space.locations()]
        for plan_id in posp:
            plan = diagram.registry.plan(plan_id)
            array = arrays[plan_id]
            assert array.shape == space.shape
            assert array is cache.cost_array(plan_id)
            old = np.broadcast_to(cost_plan(plan, schema, model, dense).cost, space.shape)
            assert np.array_equal(array, old)
            pointwise = [cost_plan(plan, schema, model, a).cost for a in assignments]
            assert array.ravel().tolist() == pointwise

    def test_estimates_drop_each_subtree_after_its_last_plan(self, lab):
        """``CostContext.estimates`` costs every distinct node exactly
        once (a shared sub-tree is never dropped before its last reader),
        holds a fraction of them at any time and leaves the memo empty;
        what it yields is what ``plan.estimate`` yields on its own."""

        class Memo(dict):
            sets = peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.sets += 1
                self.peak = max(self.peak, len(self))

        diagram = lab.build("4D_H_Q8").diagram
        space, optimizer = diagram.space, lab.h_optimizer
        assignment = dict(space.base_assignment)
        axes = np.meshgrid(*space.grids, indexing="ij", sparse=True)
        for dim, axis in zip(space.dimensions, axes):
            assignment[dim.pid] = axis
        plans = [diagram.registry.plan(pid) for pid in diagram.posp_plan_ids]
        plans.append(plans[0])  # a repeated plan is read from the memo
        costed = {
            id(node)
            for plan in plans
            for node in plan.postorder()
            if not isinstance(node, IndexLookup)
        }

        ctx = CostContext(optimizer.schema, optimizer.cost_model, assignment)
        memo = ctx._memo = Memo()
        for plan, estimate in zip(plans, ctx.estimates(plans), strict=True):
            alone = cost_plan(plan, optimizer.schema, optimizer.cost_model, assignment)
            assert np.array_equal(estimate.cost, alone.cost)
            assert np.array_equal(estimate.rows, alone.rows)
        assert memo.sets == len(costed)
        assert memo.peak <= len(costed) // 4
        assert not memo


def _choice_rows(choice, plan_ids):
    return (
        [choice.plans[w].canonical_signature() for w in choice.winner.tolist()],
        choice.cost.tolist(),
        choice.rows.tolist(),
        plan_ids.tolist(),
    )


class TestCompactFrontiers:
    """The DP carries each subset at the broadcast shape of the columns
    its predicates read; how a slab lays out its columns must not show."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_grid_columns_equal_flat_columns(self, oracle, name):
        fresh, space, _ = oracle(name)
        grid = fresh().optimize_slab(space.query, *space.grid_columns(0, space.shape[0]))
        flat = fresh().optimize_slab(
            space.query, *space.slab_columns(np.arange(space.size))
        )
        assert _choice_rows(*grid) == _choice_rows(*flat)

    def test_grid_blocks_are_their_flat_positions(self, oracle):
        _, space, _ = oracle("4D_H_Q8")
        columns, length = space.grid_columns(1, 3)
        flat, flat_length = space.slab_columns(np.arange(length) + space.size // 3)
        assert length == flat_length == 2 * space.size // 3
        for pid, column in columns.items():
            spread = np.broadcast_to(column, (2,) + space.shape[1:]).ravel()
            assert spread.tolist() == np.broadcast_to(flat[pid], (length,)).tolist()

    def test_a_subset_reading_no_varying_pid_is_a_float(self, oracle, monkeypatch):
        """Each frontier has the shape of the grid axes its subset's
        predicates read (``res^k`` cells for ``k`` of them) and is a
        python float when they read none."""
        from repro.batchopt import kernel

        fresh, space, _ = oracle("4D_H_Q8")
        query = space.query
        frontiers = []
        finish = kernel._FrontierBuilder.finish

        def recording_finish(self):
            frontiers.append(finish(self))
            return frontiers[-1]

        monkeypatch.setattr(kernel._FrontierBuilder, "finish", recording_finish)
        fresh().optimize_slab(query, *space.grid_columns(0, space.shape[0]))
        enumerator = JoinEnumerator(query, query.schema)
        subsets = [frozenset((t,)) for t in enumerator.tables] + enumerator.subsets
        assert len(frontiers) == len(subsets)
        axis = {dim.pid: d for d, dim in enumerate(space.dimensions)}
        floats = 0
        for subset, frontier in zip(subsets, frontiers):
            pids = [s.pid for s in query.selections if s.table in subset] + [
                j.pid
                for j in query.joins
                if j.left_table in subset and j.right_table in subset
            ]
            read = {axis[pid] for pid in pids if pid in axis}
            want = tuple(
                n if d in read else 1 for d, n in enumerate(space.shape)
            ) if read else ()
            assert np.shape(frontier.best.cost) == want, sorted(subset)
            if not read:
                floats += 1
                assert not isinstance(frontier.best.cost, np.ndarray)
                assert not isinstance(frontier.best.rows, np.ndarray)
        assert 0 < floats < len(subsets)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mixed_float_and_array_columns(self, optimizer, lab, data):
        """Random 2-D slabs over ``3D_H_Q5``: each predicate a float, a
        row, a column or a full block, drawn independently; every
        location pins to the scalar DP, plan ids in row-major order."""
        entry = lab.workload["3D_H_Q5"]
        query = entry.query
        base = actual_selectivities(query, lab.h_db)
        rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
        cols = data.draw(st.integers(min_value=1, max_value=3), label="cols")
        selectivity = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
        columns = {}
        for pid in query.predicate_ids:
            shape = data.draw(
                st.sampled_from([(), (rows, 1), (1, cols), (rows, cols)]), label=pid
            )
            if shape:
                values = data.draw(
                    st.lists(selectivity, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))),
                    label=f"{pid} values",
                )
                columns[pid] = np.array(values).reshape(shape)
            else:
                columns[pid] = base[pid]
        # The slab is what its columns span (a float-only one repeats
        # its location ``rows`` times).
        shape = np.broadcast_shapes(*(np.shape(c) for c in columns.values())) or (rows,)
        fresh = Optimizer(lab.h_schema, lab.h_stats)
        choice, plan_ids = fresh.optimize_slab(query, columns, int(np.prod(shape)))
        oracle = Optimizer(lab.h_schema, lab.h_stats)
        for index, cell in enumerate(np.ndindex(shape)):
            assignment = {
                pid: float(np.broadcast_to(column, shape)[cell])
                for pid, column in columns.items()
            }
            want = scalar_optimize(oracle, query, assignment)
            assert choice.plans[choice.winner[index]].canonical_signature() == want.signature
            assert choice.cost[index] == want.cost
            assert choice.rows[index] == want.rows
            assert plan_ids[index] == want.plan_id


class TestOneLocationOptimize:
    def test_optimize_pins_the_scalar_dp_over_the_lab(self, lab):
        """``optimize`` is the one-location slab: at 20 random locations
        in each of the 14 ``Lab()`` spaces (280), plan id, cost, rows and
        plan equal to the scalar DP's."""
        rng = np.random.default_rng(37)
        assert len(lab.workload) == 14
        for name, entry in lab.workload.items():
            optimizer, database = lab._env_for(name)
            fast = Optimizer(optimizer.schema, optimizer.statistics)
            oracle = Optimizer(optimizer.schema, optimizer.statistics)
            base = actual_selectivities(entry.query, database)
            for _ in range(20):
                assignment = dict(base)
                for dim in entry.dimensions():
                    assignment[dim.pid] = float(
                        dim.lo * (dim.hi / dim.lo) ** rng.random()
                    )
                got = fast.optimize(entry.query, assignment=assignment)
                want = scalar_optimize(oracle, entry.query, assignment)
                assert (got.plan_id, got.cost, got.rows, got.signature) == (
                    want.plan_id, want.cost, want.rows, want.signature
                ), name
