"""The transport-agnostic serving core and overload middleware.

Everything here runs without sockets: :class:`repro.serving.core.Request`
objects go straight into :class:`RequestCore`/:class:`ServingApp` and the
typed :class:`Response` comes back, so the HTTP caching contract (strong
ETags, 304 without plan execution, the response-body LRU), the admission
gauge, the per-client token bucket (driven by a fake clock), deadline
503s, stale-serving under overload and gzip encoding are all asserted
deterministically.
"""

from __future__ import annotations

import gzip
import json
import time
from email.message import Message

import pytest

from repro.config import ServingConfig
from repro.errors import QueryError
from repro.serving.core import Request, RequestCore, Response, ResponseCache
from repro.serving.middleware import InflightGauge, ServingApp, TokenBucket
from repro.simulate.fast import generate_store_fast
from repro.workbench import Workbench


@pytest.fixture(scope="module")
def wb():
    store, __ = generate_store_fast(120, seed=3)
    return Workbench(store)


def _req(target: str, headers: dict | None = None,
         client: str = "10.0.0.1", method: str = "GET") -> Request:
    return Request.from_target(target, headers=headers, client=client,
                               method=method)


def _payload(response: Response) -> dict:
    return json.loads(response.body.decode("utf-8"))


# -- request parsing --------------------------------------------------------


class TestRequest:
    def test_from_target_parses_path_params_headers(self):
        request = Request.from_target(
            "/cohort?q=concept%20T90&rows=5",
            headers={"If-None-Match": '"abc"', "ACCEPT-ENCODING": "gzip"},
        )
        assert request.path == "/cohort"
        assert request.param("q") == "concept T90"
        assert request.int_param("rows", 1) == 5
        # header lookup is case-insensitive both ways
        assert request.header("if-none-match") == '"abc"'
        assert request.header("Accept-Encoding") == "gzip"

    def test_repeated_header_lines_combine(self):
        message = Message()
        message["If-None-Match"] = '"a"'
        message["if-none-match"] = '"b"'
        request = Request.from_target("/", headers=message)
        assert request.header("If-None-Match") == '"a", "b"'

    def test_int_param_rejects_garbage(self):
        request = Request.from_target("/timeline.svg?rows=abc")
        with pytest.raises(QueryError, match="must be an integer"):
            request.int_param("rows", 1)

    def test_header_items_always_carry_content_length(self):
        response = Response.text("hello", "text/plain")
        items = dict(response.header_items())
        assert items["Content-Length"] == "5"
        assert items["Content-Type"] == "text/plain"


# -- the response-body LRU --------------------------------------------------


class TestResponseCache:
    def _body(self, text: str) -> Response:
        return Response.text(text, "text/plain")

    def test_entry_bound_evicts_lru(self):
        cache = ResponseCache(max_entries=2, max_bytes=1 << 20)
        cache.put("a", self._body("A"))
        cache.put("b", self._body("B"))
        assert cache.get("a") is not None  # touch: 'b' is now LRU
        cache.put("c", self._body("C"))
        assert cache.peek("b") is None
        assert cache.peek("a") is not None
        assert cache.evictions == 1

    def test_byte_bound_evicts(self):
        cache = ResponseCache(max_entries=100, max_bytes=10)
        cache.put("a", self._body("x" * 8))
        cache.put("b", self._body("y" * 8))
        assert len(cache) == 1
        assert cache.peek("a") is None

    def test_peek_does_not_touch_counters(self):
        cache = ResponseCache()
        cache.put("a", self._body("A"))
        cache.peek("a")
        cache.peek("missing")
        assert cache.hits == 0 and cache.misses == 0
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1

    def test_put_replaces_without_leaking_bytes(self):
        cache = ResponseCache(max_entries=4, max_bytes=1 << 20)
        cache.put("a", self._body("x" * 100))
        cache.put("a", self._body("y"))
        assert cache.stats_dict()["bytes"] == 1


# -- routes and HTTP caching ------------------------------------------------


class TestCoreRoutes:
    @pytest.fixture()
    def core(self, wb):
        return RequestCore(wb, ServingConfig())

    def test_index_serves_form(self, core):
        response = core.handle(_req("/"))
        assert response.status == 200
        assert b"run query" in response.body

    def test_unknown_path_404(self, core):
        assert core.handle(_req("/nope")).status == 404

    def test_post_is_405(self, core):
        response = core.handle(_req("/", method="POST"))
        assert response.status == 405
        assert response.headers["Allow"] == "GET, HEAD"

    def test_head_answers_as_get(self, core):
        target = "/cohort?q=concept%20T90"
        got = core.handle(_req(target))
        head = core.handle(_req(target, method="HEAD"))
        assert head.status == 200
        assert head.header_items() == got.header_items()
        # one rendering serves both: the HEAD hit the response cache
        assert core.counters["queries_executed"] == 1
        assert core.response_cache.hits == 1
        revalidated = core.handle(
            _req(target, method="HEAD",
                 headers={"If-None-Match": got.headers["ETag"]})
        )
        assert revalidated.status == 304
        assert revalidated.headers["ETag"] == got.headers["ETag"]

    def test_bad_query_is_400(self, core):
        response = core.handle(_req("/cohort?q=concept%20%3C%3C"))
        assert response.status == 400
        assert core.counters["errors_400"] == 1

    def test_cohort_carries_strong_etag(self, core):
        response = core.handle(_req("/cohort?q=concept%20T90"))
        assert response.status == 200
        etag = response.headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        assert response.headers["Cache-Control"].startswith("private")

    def test_if_none_match_304_skips_execution(self, core):
        first = core.handle(_req("/cohort?q=concept%20T90"))
        assert core.counters["queries_executed"] == 1
        etag = first.headers["ETag"]
        second = core.handle(
            _req("/cohort?q=concept%20T90",
                 headers={"If-None-Match": etag})
        )
        assert second.status == 304
        assert second.body == b""
        assert second.headers["ETag"] == etag
        # the plan never ran again: the 304 came from the ETag alone
        assert core.counters["queries_executed"] == 1
        assert core.counters["etag_304"] == 1

    def test_repeat_request_served_from_response_cache(self, core):
        core.handle(_req("/timeline.svg?q=concept%20T90"))
        renders = core.counters["renders"]
        again = core.handle(_req("/timeline.svg?q=concept%20T90"))
        assert again.status == 200
        assert again.body.startswith(b"<svg")
        assert core.counters["renders"] == renders
        assert core.response_cache.hits >= 1

    def test_equivalent_spellings_share_svg_etag(self, core):
        # extra whitespace parses to the same canonical plan, and the
        # SVG body depends only on the result: one ETag, one rendering
        a = core.handle(_req("/timeline.svg?q=concept%20T90"))
        b = core.handle(_req("/timeline.svg?q=concept%20%20T90"))
        assert a.headers["ETag"] == b.headers["ETag"]

    def test_cohort_etag_keeps_raw_query_text(self, core):
        # /cohort echoes the query text in the form, so equivalent
        # spellings must NOT share a representation
        a = core.handle(_req("/cohort?q=concept%20T90"))
        b = core.handle(_req("/cohort?q=concept%20%20T90"))
        assert a.headers["ETag"] != b.headers["ETag"]

    def test_params_partition_the_etag(self, core):
        a = core.handle(_req("/timeline.svg?q=concept%20T90&rows=10"))
        b = core.handle(_req("/timeline.svg?q=concept%20T90&rows=20"))
        assert a.headers["ETag"] != b.headers["ETag"]

    def test_analyze_is_json_and_cacheable(self, core):
        response = core.handle(_req("/analyze?q=concept%20T90"))
        assert response.status == 200
        assert response.content_type == "application/json"
        assert "ETag" in response.headers
        assert _payload(response)["query"] == "concept T90"

    def test_stats_reports_http_cache_counters(self, core):
        core.handle(_req("/cohort?q=concept%20T90"))
        etag = core.handle(_req("/cohort?q=concept%20T90")).headers["ETag"]
        core.handle(_req("/cohort?q=concept%20T90",
                         headers={"If-None-Match": etag}))
        stats = _payload(core.handle(_req("/stats")))
        http = stats["http_cache"]
        assert http["etag_304"] == 1
        assert http["queries_executed"] == 1
        assert http["response_cache"]["hits"] >= 1

    def test_cached_response_probe_never_executes(self, core):
        # nothing cached yet: the overload probe must answer None
        # without running the query
        assert core.cached_response(_req("/cohort?q=concept%20T90")) is None
        assert core.counters["queries_executed"] == 0
        core.handle(_req("/cohort?q=concept%20T90"))
        probed = core.cached_response(_req("/cohort?q=concept%20T90"))
        assert probed is not None and probed.status == 200
        assert core.counters["queries_executed"] == 1

    def test_debug_sleep_absent_unless_enabled(self, wb):
        assert RequestCore(wb, ServingConfig()).handle(
            _req("/debug/sleep?s=0")
        ).status == 404
        assert RequestCore(wb, ServingConfig(debug_routes=True)).handle(
            _req("/debug/sleep?s=0")
        ).status == 200


# -- readiness --------------------------------------------------------------


class TestReadyz:
    def _core_with_probe(self, wb, **saturation):
        core = RequestCore(wb, ServingConfig())
        state = {"inflight": 0, "max_inflight": 4, "draining": False}
        state.update(saturation)
        core.saturation_probe = lambda: state
        return core

    def test_ready_when_idle(self, wb):
        core = self._core_with_probe(wb)
        response = core.handle(_req("/readyz"))
        assert response.status == 200
        assert _payload(response)["ready"] is True

    def test_saturated_is_503_before_shedding_starts(self, wb):
        # high-water default 0.8: 4 of 4 in flight is beyond it
        core = self._core_with_probe(wb, inflight=4)
        response = core.handle(_req("/readyz"))
        assert response.status == 503
        payload = _payload(response)
        assert any("saturated" in reason for reason in payload["reasons"])
        assert payload["inflight"] == 4

    def test_draining_is_503(self, wb):
        core = self._core_with_probe(wb, draining=True)
        payload = _payload(core.handle(_req("/readyz")))
        assert payload["ready"] is False
        assert "draining" in payload["reasons"]


# -- middleware: admission, rate limiting, stale-serve, gzip ---------------


class TestInflightGauge:
    def test_sheds_at_limit_and_recovers(self):
        gauge = InflightGauge(2)
        assert gauge.try_acquire() and gauge.try_acquire()
        assert not gauge.try_acquire()
        assert gauge.shed == 1
        gauge.release()
        assert gauge.try_acquire()
        stats = gauge.stats_dict()
        assert stats["peak"] == 2
        assert stats["admitted"] == 3

    def test_release_never_goes_negative(self):
        gauge = InflightGauge(1)
        gauge.release()
        assert gauge.inflight == 0


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.allow("a") and bucket.allow("a")
        assert not bucket.allow("a")
        now[0] += 1.0
        assert bucket.allow("a")
        assert bucket.limited == 1

    def test_clients_are_independent(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1, clock=lambda: now[0])
        assert bucket.allow("a")
        assert bucket.allow("b")
        assert not bucket.allow("a")

    def test_client_state_is_bounded(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1, clock=lambda: now[0],
                             max_clients=2)
        for client in ("a", "b", "c"):
            bucket.allow(client)
        assert bucket.stats_dict()["clients"] == 2
        # 'a' was evicted; on return it refills to full burst
        assert bucket.allow("a")

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)


class TestServingApp:
    def test_rate_limit_sheds_with_retry_after(self, wb):
        now = [0.0]
        app = ServingApp(
            wb, ServingConfig(rate_limit_rps=1.0, rate_limit_burst=2),
            clock=lambda: now[0],
        )
        assert app.handle(_req("/")).status == 200
        assert app.handle(_req("/")).status == 200
        shed = app.handle(_req("/"))
        assert shed.status == 429
        assert shed.headers["Retry-After"] == "1"
        assert _payload(shed)["error"] == "rate-limited"
        assert app.counters["shed_rate_limited"] == 1
        # a different client has its own bucket
        assert app.handle(_req("/", client="10.0.0.2")).status == 200

    def test_admission_sheds_when_gauge_full(self, wb):
        app = ServingApp(wb, ServingConfig(max_inflight=1))
        assert app.gauge.try_acquire()  # pin the only slot
        shed = app.handle(_req("/cohort?q=concept%20T90"))
        assert shed.status == 429
        assert shed.headers["Retry-After"] == "1"
        assert _payload(shed)["error"] == "overloaded"
        assert app.counters["shed_inflight"] == 1
        app.gauge.release()
        assert app.handle(_req("/cohort?q=concept%20T90")).status == 200

    def test_saturated_worker_serves_cached_bytes_instead(self, wb):
        app = ServingApp(wb, ServingConfig(max_inflight=1))
        primed = app.handle(_req("/cohort?q=concept%20T90"))
        assert primed.status == 200
        executed = app.core.counters["queries_executed"]
        assert app.gauge.try_acquire()
        served = app.handle(_req("/cohort?q=concept%20T90"))
        assert served.status == 200
        assert served.headers["X-Served-From"] == "response-cache-overload"
        assert served.body == primed.body
        assert app.counters["served_stale_on_overload"] == 1
        assert app.core.counters["queries_executed"] == executed

    def test_health_routes_bypass_shedding(self, wb):
        app = ServingApp(
            wb, ServingConfig(max_inflight=1, rate_limit_rps=0.001,
                              rate_limit_burst=1),
        )
        assert app.gauge.try_acquire()
        for __ in range(3):
            assert app.handle(_req("/healthz")).status == 200
        # /readyz stays reachable too — it *reports* the saturation
        ready = app.handle(_req("/readyz"))
        assert ready.status == 503
        assert any("saturated" in reason
                   for reason in _payload(ready)["reasons"])

    def test_expired_deadline_is_503(self, wb):
        app = ServingApp(wb, ServingConfig(request_deadline_s=0.0))
        response = app.handle(_req("/cohort?q=concept%20T90"))
        assert response.status == 503
        assert "Retry-After" in response.headers
        assert app.core.counters["deadline_503"] == 1

    def test_drain_flips_readiness_only(self, wb):
        app = ServingApp(wb, ServingConfig())
        app.drain()
        assert app.handle(_req("/healthz")).status == 200
        payload = _payload(app.handle(_req("/readyz")))
        assert payload["ready"] is False and "draining" in payload["reasons"]
        # admitted work still completes while draining
        assert app.handle(_req("/")).status == 200

    def test_gzip_for_willing_clients_only(self, wb):
        app = ServingApp(wb, ServingConfig())
        plain = app.handle(_req("/timeline.svg?q=concept%20T90"))
        assert plain.status == 200
        assert "Content-Encoding" not in plain.headers
        zipped = app.handle(
            _req("/timeline.svg?q=concept%20T90",
                 headers={"Accept-Encoding": "gzip, br"})
        )
        assert zipped.headers["Content-Encoding"] == "gzip"
        assert zipped.headers["Vary"] == "Accept-Encoding"
        assert len(zipped.body) < len(plain.body)
        assert gzip.decompress(zipped.body) == plain.body
        assert app.counters["gzipped"] == 1

    def test_gzip_bodies_do_not_depend_on_the_clock(self, wb, monkeypatch):
        # One strong ETag must always name the same bytes: a gzip header
        # stamped with the time would change them every second.
        app = ServingApp(wb, ServingConfig())
        bodies = []
        for now in (1_700_000_000.0, 1_700_000_123.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            response = app.handle(
                _req("/timeline.svg?q=concept%20T90",
                     headers={"Accept-Encoding": "gzip"})
            )
            assert response.headers["Content-Encoding"] == "gzip"
            bodies.append(response.body)
        assert bodies[0] == bodies[1]

    def test_small_bodies_not_compressed(self, wb):
        app = ServingApp(wb, ServingConfig(debug_routes=True))
        response = app.handle(
            _req("/debug/sleep?s=0", headers={"Accept-Encoding": "gzip"})
        )
        assert response.status == 200
        assert "Content-Encoding" not in response.headers

    def test_stats_exposes_serving_section(self, wb):
        app = ServingApp(
            wb, ServingConfig(max_inflight=4, rate_limit_rps=100.0)
        )
        app.handle(_req("/cohort?q=concept%20T90"))
        stats = _payload(app.handle(_req("/stats")))
        serving = stats["serving"]
        assert serving["inflight_gauge"]["limit"] == 4
        assert serving["rate_limiter"]["rate_rps"] == 100.0
        assert serving["draining"] is False


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
