"""The asyncio HTTP/JSON front-end: wire round trips, the HTTP status
mapping, shedding at loop speed, and keep-alive connections."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import (
    AsyncioRuntime,
    AsyncServeClient,
    BouquetFrontEnd,
    ServeGateway,
    ServeRequest,
    ServeResponse,
    TenantQuota,
)
from repro.serve.http import http_status_for

SQL = "select * from part where p_retailprice < 1000"


class FakeBackend:
    def __init__(self):
        self.requests = []

    def serve_request(self, request):
        self.requests.append(request)
        if request.sql and "broken" in request.sql:
            return ServeResponse(
                status="failed", error="boom", error_code="execute-failed"
            )
        return ServeResponse(
            status="ok", cache="memory", query_name=request.sql or "", rows=7
        )


def run_with_front(coro_fn, **gateway_kwargs):
    """Spin up runtime + gateway + front-end, run the coroutine, tear
    everything down."""
    backend = FakeBackend()

    async def main():
        with AsyncioRuntime(max_workers=4) as runtime:
            gateway = ServeGateway(backend, runtime=runtime, **gateway_kwargs)
            async with BouquetFrontEnd(gateway, port=0) as front:
                return await coro_fn(front, backend)

    return asyncio.run(main())


class TestStatusMapping:
    @pytest.mark.parametrize(
        "response,expected",
        [
            (ServeResponse(status="ok"), 200),
            (ServeResponse(status="degraded", error_code="cached-only-miss"), 200),
            (
                ServeResponse(
                    status="budget-exhausted", error_code="budget-exhausted"
                ),
                200,
            ),
            (ServeResponse(status="shed", error_code="shed-quota"), 429),
            (ServeResponse(status="failed", error_code="invalid-request"), 400),
            (ServeResponse(status="failed", error_code="parse-error"), 400),
            (ServeResponse(status="failed", error_code="execute-failed"), 500),
        ],
    )
    def test_taxonomy_maps_onto_http(self, response, expected):
        assert http_status_for(response) == expected


class TestRoundTrips:
    def test_serve_ok(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                return await client.serve(
                    ServeRequest(query=SQL, tenant="alpha", request_id="r1")
                )

        response = run_with_front(scenario)
        assert response.ok
        assert response.rows == 7
        assert response.tenant == "alpha"
        assert response.request_id == "r1"

    def test_failed_is_500_but_still_an_envelope(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                payload = ServeRequest(query="select broken").to_dict()
                return await client._round_trip("POST", "/v1/serve", payload)

        status, payload = run_with_front(scenario)
        assert status == 500
        assert payload["status"] == "failed"
        assert payload["error_code"] == "execute-failed"

    def test_bad_payload_is_400(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                return await client._round_trip(
                    "POST", "/v1/serve", {"query": SQL, "bogus": 1}
                )

        status, payload = run_with_front(scenario)
        assert status == 400
        assert payload["status"] == "failed"
        assert payload["error_code"] == "invalid-request"
        assert "bogus" in payload["error"]

    def test_a_wire_request_is_validated_once(self, monkeypatch):
        """Decoding a payload checks its shape; admission checks its
        fields — one ``validate`` per request, and an invalid one still
        gets the typed ``invalid-request`` answer."""
        calls = []
        validate = ServeRequest.validate
        monkeypatch.setattr(
            ServeRequest, "validate", lambda self: calls.append(self) or validate(self)
        )

        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                for i in range(5):
                    response = await client.serve(ServeRequest(query=SQL, request_id=f"r{i}"))
                    assert response.ok
                served = len(calls)
                payload = ServeRequest(query=SQL, budget=-1.0).to_dict()
                return served, await client._round_trip("POST", "/v1/serve", payload)

        served, (status, payload) = run_with_front(scenario)
        assert served == 5
        assert status == 400
        assert (payload["status"], payload["error_code"]) == ("failed", "invalid-request")
        assert "budget must be positive" in payload["error"]
        assert len(calls) == 6

    def test_garbage_bytes_are_400_not_a_crash(self):
        async def scenario(front, backend):
            reader, writer = await asyncio.open_connection(
                front.host, front.port
            )
            body = b"not json {"
            writer.write(
                b"POST /v1/serve HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert run_with_front(scenario) == 400

    def test_shed_is_429(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                first = await client.serve(ServeRequest(query=SQL))
                payload = ServeRequest(query=SQL).to_dict()
                status, body = await client._round_trip(
                    "POST", "/v1/serve", payload
                )
                return first, status, body

        first, status, body = run_with_front(
            scenario,
            # One token, glacial refill: the second request must shed.
            default_quota=TenantQuota(rate=1e-6, burst=1.0, max_queue=4),
        )
        assert first.ok
        assert status == 429
        assert body["status"] == "shed"
        assert body["error_code"] == "shed-quota"

    def test_unknown_route_is_404(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                return await client._round_trip("GET", "/v2/nope")

        status, payload = run_with_front(scenario)
        assert status == 404
        assert "no route" in payload["error"]

    def test_health_and_stats(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                await client.serve(ServeRequest(query=SQL, tenant="alpha"))
                return await client.health(), await client.stats()

        healthy, stats = run_with_front(scenario)
        assert healthy
        assert stats["tenants"]["alpha"]["depth"] == 0

    def test_keep_alive_reuses_one_connection(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                writer_before = client._writer
                for i in range(3):
                    response = await client.serve(
                        ServeRequest(query=SQL, request_id=f"r{i}")
                    )
                    assert response.ok
                return writer_before is client._writer

        assert run_with_front(scenario)

    def test_concurrent_clients_interleave(self):
        async def scenario(front, backend):
            async def one(i):
                async with AsyncServeClient(front.host, front.port) as client:
                    return await client.serve(
                        ServeRequest(query=SQL, request_id=f"c{i}")
                    )

            responses = await asyncio.gather(*(one(i) for i in range(12)))
            return responses, backend

        responses, backend = run_with_front(scenario)
        assert len(responses) == 12
        assert all(r.ok for r in responses)
        assert sorted(r.request_id for r in responses) == sorted(
            f"c{i}" for i in range(12)
        )
        assert len(backend.requests) == 12

    def test_wire_payload_is_the_versioned_envelope(self):
        async def scenario(front, backend):
            async with AsyncServeClient(front.host, front.port) as client:
                payload = ServeRequest(query=SQL).to_dict()
                return await client._round_trip("POST", "/v1/serve", payload)

        _, payload = run_with_front(scenario)
        assert payload["format"] == "repro.serve.response.v1"
        # The wire shape is pure JSON scalars — re-encodable as-is.
        json.dumps(payload)
