"""The versioned serve wire schema: envelope validation, the outcome
taxonomy, and JSON round trips."""

from __future__ import annotations

import pytest

from repro.exceptions import BouquetError
from repro.serve import (
    ERROR_CODES,
    REQUEST_FORMAT,
    RESPONSE_FORMAT,
    STATUSES,
    ServeRequest,
    ServeResponse,
)

SQL = "select * from part where p_retailprice < 1000"


class TestRequestValidation:
    def test_defaults_are_valid(self):
        request = ServeRequest(query=SQL).validate()
        assert request.tenant == "default"
        assert request.budget is None and not request.cached_only

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query": ""},
            {"query": 42},
            {"tenant": ""},
            {"tenant": "   "},
            {"budget": 0.0},
            {"budget": -1.0},
            {"deadline": -0.1},
            {"mode": "turbo"},
            # Retired wire key: only the one schedule left is accepted.
            {"crossing": "diagonal"},
            {"crossing": "concurrent"},
            # Retired wire key: no longer a field, so an unknown one.
            {"compile_engine": "batch"},
            {"cached_only": "yes"},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        # from_dict refuses what it cannot construct; admission
        # validate()s what it constructed.
        with pytest.raises(BouquetError):
            ServeRequest.from_dict({"query": SQL, **kwargs}).validate()

    def test_zero_deadline_is_legal(self):
        # 0 means "degrade immediately on a compile miss", not "invalid".
        ServeRequest(query=SQL, deadline=0.0).validate()

    def test_with_returns_modified_copy(self):
        request = ServeRequest(query=SQL, tenant="a")
        stripped = request.with_(cached_only=True, budget=50.0)
        assert stripped.cached_only and stripped.budget == 50.0
        assert not request.cached_only and request.budget is None

    def test_sql_property(self, eq_query):
        assert ServeRequest(query=SQL).sql == SQL
        assert ServeRequest(query=eq_query).sql is None


class TestRequestWire:
    def test_dict_roundtrip(self):
        request = ServeRequest(
            query=SQL,
            tenant="alpha",
            request_id="r1",
            budget=500.0,
            deadline=2.0,
            mode="basic",
            cached_only=True,
        )
        payload = request.to_dict()
        assert payload["format"] == REQUEST_FORMAT
        assert ServeRequest.from_dict(payload) == request

    @pytest.mark.parametrize("crossing", [None, "sequential"])
    def test_sequential_crossing_is_dropped(self, crossing):
        request = ServeRequest.from_dict({"query": SQL, "crossing": crossing})
        assert request == ServeRequest(query=SQL)
        assert "crossing" not in request.to_dict()

    def test_null_fields_get_defaults(self):
        request = ServeRequest.from_dict(
            {"query": SQL, "tenant": None, "cached_only": None}
        )
        assert request.tenant == "default"
        assert request.cached_only is False

    def test_unknown_fields_rejected(self):
        with pytest.raises(BouquetError, match="unknown fields"):
            ServeRequest.from_dict({"query": SQL, "priority": "high"})

    def test_unknown_format_rejected(self):
        with pytest.raises(BouquetError, match="unknown format"):
            ServeRequest.from_dict({"format": "repro.serve.request.v99", "query": SQL})

    def test_missing_query_rejected(self):
        with pytest.raises(BouquetError, match="query"):
            ServeRequest.from_dict({"tenant": "alpha"})

    def test_non_object_payload_rejected(self):
        with pytest.raises(BouquetError):
            ServeRequest.from_dict([SQL])

    def test_query_objects_cannot_cross_the_wire(self, eq_query):
        with pytest.raises(BouquetError, match="wire"):
            ServeRequest(query=eq_query).to_dict()


class _StubResult:
    result_rows = 123
    total_cost = 4.5


class TestResponseTaxonomy:
    def test_status_universe_is_closed(self):
        assert STATUSES == ("ok", "degraded", "budget-exhausted", "shed", "failed")
        with pytest.raises(BouquetError, match="unknown status"):
            ServeResponse(status="maybe")

    def test_error_codes_are_a_closed_set(self):
        with pytest.raises(BouquetError, match="unknown error code"):
            ServeResponse(status="failed", error_code="oops")
        for code in ERROR_CODES:
            ServeResponse(status="failed", error_code=code)

    @pytest.mark.parametrize("status", ["degraded", "budget-exhausted", "shed", "failed"])
    def test_non_ok_requires_an_error_code(self, status):
        with pytest.raises(BouquetError, match="requires an error_code"):
            ServeResponse(status=status)

    def test_result_fills_scalars(self):
        response = ServeResponse(status="ok", result=_StubResult())
        assert response.rows == 123
        assert response.total_cost == 4.5

    def test_outcome_predicates(self):
        ok = ServeResponse(status="ok")
        shed = ServeResponse(status="shed", error_code="shed-quota")
        degraded = ServeResponse(status="degraded", error_code="cached-only-miss")
        failed = ServeResponse(status="failed", error_code="parse-error")
        assert ok.ok and ok.answered and not ok.shed
        assert shed.shed and not shed.failed and not shed.answered
        assert degraded.degraded and degraded.answered and not degraded.ok
        assert failed.failed and not failed.shed

    def test_latency_sums_queue_and_service(self):
        response = ServeResponse(
            status="ok", queue_seconds=0.25, service_seconds=0.5
        )
        assert response.latency_seconds == pytest.approx(0.75)


class TestResponseWire:
    def test_dict_roundtrip(self):
        response = ServeResponse(
            status="degraded",
            cache="none",
            query_name="q",
            tenant="beta",
            request_id="r9",
            rows=10,
            total_cost=2.0,
            mso_bound=None,
            error="overload",
            error_code="overload-degraded",
            queue_seconds=0.1,
            service_seconds=0.2,
        )
        payload = response.to_dict()
        assert payload["format"] == RESPONSE_FORMAT
        assert ServeResponse.from_dict(payload) == response

    def test_artifact_key_flattens_to_digest(self):
        class Key:
            digest = "abc123"

        assert ServeResponse(status="ok", key=Key()).to_dict()["key"] == "abc123"

    def test_unknown_fields_rejected(self):
        with pytest.raises(BouquetError, match="unknown fields"):
            ServeResponse.from_dict({"status": "ok", "extra": 1})

    def test_unknown_format_rejected(self):
        with pytest.raises(BouquetError, match="unknown format"):
            ServeResponse.from_dict({"format": "nope", "status": "ok"})

    def test_missing_status_rejected(self):
        with pytest.raises(BouquetError, match="status"):
            ServeResponse.from_dict({})
