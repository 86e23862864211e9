"""The serving clocks: the gateway's real default clock, the HTTP
front-end's ``AsyncioRuntime`` (clock + bounded worker pool), and the
virtual ``SimulatedRuntime`` the load model and gateway tests run on."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.exceptions import ReproError
from repro.serve import AsyncioRuntime, ServeGateway, ServeResponse
from tests.serve.load_model import SimulatedRuntime


class _Backend:
    def serve_request(self, request):
        return ServeResponse(status="ok")


class TestDefaultClock:
    def test_clock_is_monotonic(self):
        gateway = ServeGateway(_Backend())
        assert gateway.admission.runtime is gateway.runtime
        a = gateway.runtime.now()
        time.sleep(0.005)
        assert gateway.runtime.now() >= a + 0.004


class TestSimulatedRuntime:
    def test_virtual_clock_never_moves_on_its_own(self):
        runtime = SimulatedRuntime(start=10.0)
        assert runtime.now() == 10.0
        assert runtime.advance(2.5) == 12.5
        time.sleep(0.001)
        assert runtime.now() == 12.5

    def test_clock_cannot_run_backwards(self):
        with pytest.raises(ReproError):
            SimulatedRuntime().advance(-1.0)
        with pytest.raises(ReproError):
            SimulatedRuntime().schedule(-0.1, lambda: None)

    def test_events_fire_in_time_order(self):
        runtime = SimulatedRuntime()
        fired = []
        runtime.schedule(3.0, fired.append, "late")
        runtime.schedule(1.0, fired.append, "early")
        runtime.schedule(2.0, fired.append, "middle")
        assert runtime.pending == 3
        assert runtime.run_until_idle() == 3
        assert fired == ["early", "middle", "late"]
        assert runtime.now() == 3.0  # clock advanced to the last event

    def test_same_tick_is_fifo(self):
        runtime = SimulatedRuntime()
        fired = []
        for tag in ("a", "b", "c"):
            runtime.schedule(1.0, fired.append, tag)
        runtime.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_events_can_schedule_events(self):
        runtime = SimulatedRuntime()
        ticks = []

        def tick(n):
            ticks.append(runtime.now())
            if n > 1:
                runtime.schedule(1.0, tick, n - 1)

        runtime.schedule(1.0, tick, 3)
        runtime.run_until_idle()
        assert ticks == [1.0, 2.0, 3.0]

    def test_runaway_backstop(self):
        runtime = SimulatedRuntime()

        def forever():
            runtime.schedule(1.0, forever)

        runtime.schedule(1.0, forever)
        with pytest.raises(ReproError, match="exceeded"):
            runtime.run_until_idle(max_events=100)

    def test_determinism_across_instances(self):
        def run():
            runtime = SimulatedRuntime()
            log = []
            for i in range(50):
                runtime.schedule((i * 7919) % 13 * 0.1, log.append, i)
            runtime.run_until_idle()
            return log

        assert run() == run()


class TestAsyncioRuntime:
    def test_needs_a_worker(self):
        with pytest.raises(ReproError):
            AsyncioRuntime(max_workers=0)

    def test_arun_bridges_to_the_pool(self):
        with AsyncioRuntime(max_workers=2) as runtime:

            async def main():
                value = await runtime.arun(lambda a, b: a + b, 40, b=2)
                return value, await runtime.arun(threading.current_thread)

            value, worker = asyncio.run(main())
        assert value == 42
        assert worker.name.startswith("bouquet-serve")

    def test_arun_keeps_the_loop_responsive(self):
        """A blocking call on the pool must not stall loop callbacks."""
        with AsyncioRuntime(max_workers=2) as runtime:

            async def main():
                heartbeat = []

                async def beat():
                    for _ in range(5):
                        heartbeat.append(runtime.now())
                        await asyncio.sleep(0.005)

                _, beats = await asyncio.gather(
                    runtime.arun(time.sleep, 0.05), beat()
                )
                return heartbeat

            assert len(asyncio.run(main())) == 5

    def test_clock_is_real(self):
        with AsyncioRuntime(max_workers=1) as runtime:
            a = runtime.now()
            time.sleep(0.005)
            assert runtime.now() >= a + 0.004
