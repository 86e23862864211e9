"""Worker-pool semantics: ordering, caching, failure, lifecycle."""

import multiprocessing
import os
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.par import (
    ParError,
    WorkerPool,
    encode_payload,
    get_pool,
    leaked_segments,
    shutdown_pools,
)
from repro.par.pool import PAYLOAD_CACHE_SLOTS


# --- task functions (module-level: picklable under spawn) -----------------


def _affine(ctx, payload, item):
    return payload["a"] * item + payload["b"]


def _boom(ctx, payload, item):
    if item == payload:
        raise ValueError(f"boom at {item}")
    return item


def _exit_hard(ctx, payload, item):
    if item == payload:
        os._exit(3)
    return item


def _interrupt(ctx, payload, item):
    if item == payload:
        raise KeyboardInterrupt
    return item


def _memoed_token(ctx, payload, item):
    # The memo builder runs once per (worker, payload digest); every task
    # under the same digest must observe the identical object.
    return id(ctx.memo("token", object))


_MEMO_BUILDS = {"count": 0}


def _memo_build_count(ctx, payload, item):
    # Worker-global build counter: the memo value records which build
    # produced it, so a purged-then-rebuilt memo is distinguishable from
    # a retained one without relying on object identity.
    def build():
        _MEMO_BUILDS["count"] += 1
        return _MEMO_BUILDS["count"]

    return ctx.memo("generation", build)


def _worker_pid(ctx, payload, item):
    return os.getpid()


def _live_pool_workers():
    """Pool worker processes of this interpreter that are still running."""
    return [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-par-")
    ]


# --- ordering and reuse ---------------------------------------------------


class TestRunSemantics:
    def test_results_in_submission_order(self):
        pool = WorkerPool(2)
        try:
            items = list(range(37))
            payload = {"a": 3, "b": -1}
            assert pool.run(_affine, payload, items) == [
                3 * i - 1 for i in items
            ]
        finally:
            pool.close()

    def test_identical_results_at_any_worker_count(self):
        items = list(range(23))
        payload = {"a": 2, "b": 5}
        rosters = []
        for workers in (1, 2, 4):
            pool = WorkerPool(workers)
            try:
                rosters.append(pool.run(_affine, payload, items))
            finally:
                pool.close()
        assert rosters[0] == rosters[1] == rosters[2]

    def test_empty_items_short_circuits(self):
        pool = WorkerPool(2)
        try:
            assert pool.run(_affine, {"a": 1, "b": 0}, []) == []
            assert pool.stats.runs == 0  # never started
        finally:
            pool.close()

    def test_on_result_streams_every_completion(self):
        pool = WorkerPool(2)
        try:
            seen = []
            pool.run(
                _affine,
                {"a": 1, "b": 0},
                list(range(9)),
                on_result=lambda seq, value: seen.append((seq, value)),
            )
            assert sorted(seen) == [(i, i) for i in range(9)]
        finally:
            pool.close()


class TestConcurrency:
    def test_concurrent_runs_from_threads_do_not_interleave(self):
        # Threads asking get_pool for one worker count share a pool;
        # run() must serialize so the seq-numbered result streams
        # cannot cross-assign.
        pool = WorkerPool(2)
        try:
            def batch(k):
                payload = {"a": k, "b": k}
                return pool.run(_affine, payload, list(range(25)))

            with ThreadPoolExecutor(max_workers=4) as pex:
                rosters = list(pex.map(batch, range(8)))
            for k, roster in enumerate(rosters):
                assert roster == [k * i + k for i in range(25)]
        finally:
            pool.close()


class TestOnResultFailure:
    def test_raising_callback_drains_batch_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            def explode(seq, value):
                raise RuntimeError("progress sink broke")

            with pytest.raises(RuntimeError, match="progress sink broke"):
                pool.run(_affine, {"a": 1, "b": 0}, list(range(12)), on_result=explode)
            # the batch fully drained: the next run must see only its
            # own results, in order, with no stale tuples cross-wired
            assert pool.run(_affine, {"a": 2, "b": 1}, list(range(6))) == [
                2 * i + 1 for i in range(6)
            ]
        finally:
            pool.close()


class TestPayloadCache:
    def test_payload_ships_once_per_worker_per_digest(self):
        pool = WorkerPool(2)
        try:
            payload = {"a": 1, "b": 2}
            pool.run(_affine, payload, [1, 2, 3])
            assert pool.stats.payload_ships == 2
            assert pool.stats.payload_hits == 0
            # byte-identical payload: pure cache hits
            pool.run(_affine, dict(payload), [4, 5])
            assert pool.stats.payload_ships == 2
            assert pool.stats.payload_hits == 2
            # new digest ships again
            pool.run(_affine, {"a": 9, "b": 9}, [6])
            assert pool.stats.payload_ships == 4
        finally:
            pool.close()

    def test_memo_is_stable_per_digest(self):
        pool = WorkerPool(1)
        try:
            first = pool.run(_memoed_token, "cfg", [0, 1, 2])
            second = pool.run(_memoed_token, "cfg", [3, 4])
            assert len(set(first + second)) == 1
            # a different payload digest gets a fresh memo entry
            other = pool.run(_memoed_token, "cfg2", [0])
            assert other[0] != first[0]
        finally:
            pool.close()

    def test_payload_cache_evicts_beyond_slots_and_reships(self):
        pool = WorkerPool(1)
        try:
            # Stream more distinct payloads than the cache holds …
            for k in range(PAYLOAD_CACHE_SLOTS + 1):
                assert pool.run(_affine, {"a": k, "b": 0}, [1]) == [k]
            ships = pool.stats.payload_ships
            assert ships == PAYLOAD_CACHE_SLOTS + 1
            # … the oldest digest was evicted (parent and worker agree),
            # so re-running it ships again instead of hanging the worker
            assert pool.run(_affine, {"a": 0, "b": 0}, [2, 3]) == [0, 0]
            assert pool.stats.payload_ships == ships + 1
            # while a still-cached digest is a pure hit
            hits = pool.stats.payload_hits
            assert pool.run(
                _affine, {"a": PAYLOAD_CACHE_SLOTS, "b": 0}, [1]
            ) == [PAYLOAD_CACHE_SLOTS]
            assert pool.stats.payload_ships == ships + 1
            assert pool.stats.payload_hits == hits + 1
        finally:
            pool.close()

    def test_memo_entries_die_with_evicted_payloads(self):
        pool = WorkerPool(1)
        try:
            assert pool.run(_memo_build_count, "cfg-0", [0]) == [1]
            # …and it is retained while the digest stays cached
            assert pool.run(_memo_build_count, "cfg-0", [0]) == [1]
            for k in range(1, PAYLOAD_CACHE_SLOTS + 1):
                pool.run(_memo_build_count, f"cfg-{k}", [0])
            # "cfg-0" was evicted with its memo: the builder runs again
            assert pool.run(_memo_build_count, "cfg-0", [0]) == [
                PAYLOAD_CACHE_SLOTS + 2
            ]
        finally:
            pool.close()

    def test_encode_payload_digest_tracks_bytes(self):
        d1, b1 = encode_payload({"x": 1})
        d2, b2 = encode_payload({"x": 1})
        d3, _ = encode_payload({"x": 2})
        assert d1 == d2 and b1 == b2
        assert d3 != d1
        assert pickle.loads(b1) == {"x": 1}


class TestFailure:
    def test_task_exception_surfaces_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ParError, match="boom at 3"):
                pool.run(_boom, 3, list(range(6)))
            assert pool.alive
            # the pool is still usable after a task-level failure
            assert pool.run(_boom, -1, [7, 8]) == [7, 8]
        finally:
            pool.close()

    def test_dead_worker_breaks_pool(self):
        pool = WorkerPool(2)
        try:
            pids = set(pool.run(_worker_pid, None, list(range(8))))
            with pytest.raises(ParError, match="died mid-run"):
                pool.run(_exit_hard, 1, list(range(4)))
            assert not pool.alive
            # terminate() ran inside the failed run: the crashed worker
            # and its surviving sibling are both gone already.
            assert pids.isdisjoint(proc.pid for proc in _live_pool_workers())
            with pytest.raises(ParError, match="closed"):
                pool.run(_affine, {"a": 1, "b": 0}, [1])
        finally:
            pool.close()
        assert leaked_segments() == []

    def test_keyboard_interrupt_in_task_kills_worker_cleanly(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ParError, match="died mid-run"):
                pool.run(_interrupt, 0, list(range(4)))
            assert not pool.alive
        finally:
            pool.close()
        assert leaked_segments() == []


class TestSpawnFallback:
    def test_spawn_results_match_fork(self):
        items = list(range(11))
        payload = {"a": 4, "b": 1}
        spawn_pool = WorkerPool(2, start_method="spawn")
        try:
            spawn_results = spawn_pool.run(_affine, payload, items)
            assert spawn_pool.stats.payload_ships == 2
        finally:
            spawn_pool.close()
        fork_pool = WorkerPool(2)
        try:
            assert spawn_results == fork_pool.run(_affine, payload, items)
        finally:
            fork_pool.close()

    def test_spawn_workers_are_real_processes(self):
        pool = WorkerPool(2, start_method="spawn")
        try:
            pids = set(pool.run(_worker_pid, None, list(range(8))))
            assert os.getpid() not in pids
        finally:
            pool.close()

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ParError, match="unavailable"):
            WorkerPool(2, start_method="no-such-method")


class TestRegistry:
    def test_get_pool_reuses_live_pool(self):
        a = get_pool(2)
        b = get_pool(2)
        assert a is b
        assert a.alive

    def test_broken_pool_is_replaced(self):
        a = get_pool(2)
        with pytest.raises(ParError):
            a.run(_exit_hard, 0, [0, 1])
        b = get_pool(2)
        assert b is not a
        assert b.run(_affine, {"a": 1, "b": 0}, [5]) == [5]

    def test_shutdown_pools_closes_everything(self):
        pool = get_pool(2)
        pool.run(_affine, {"a": 1, "b": 0}, [1, 2])
        shutdown_pools()
        assert not pool.alive
        assert leaked_segments() == []
        assert _live_pool_workers() == []
        # and the registry hands out a fresh pool afterwards
        assert get_pool(2).run(_affine, {"a": 1, "b": 0}, [3]) == [3]

    def test_workers_must_be_positive(self):
        with pytest.raises(ParError, match="workers"):
            WorkerPool(0)
