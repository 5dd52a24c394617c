"""Transport-agnostic request core: parsed request -> typed response.

The web workbench's routes, lifted out of :mod:`http.server` so they can
be exercised without sockets: a :class:`Request` (method, path, params,
headers) goes in, a :class:`Response` (status, headers, body bytes)
comes out.  :class:`RequestCore` owns one :class:`~repro.workbench.Workbench`
and is pure in the serving sense — no I/O beyond the workbench itself,
no threads, no global state — which is what makes the overload
middleware (:mod:`repro.serving.middleware`), the in-process test server
and the pre-forked pool (:mod:`repro.serving.pool`) all trivially share
it.

HTTP-level caching lives here because it is a *semantic* concern:

* every cacheable route gets a strong ``ETag`` derived from the store's
  ``content_token()`` plus the query's canonical plan key (the same
  machinery that keys the planner's memo cache) — computable *without*
  executing the plan, so a matching ``If-None-Match`` answers ``304``
  before any query runs;
* rendered 200 bodies are kept in a byte-bounded LRU
  (:class:`ResponseCache`) keyed by that ``ETag``, so a repeated
  identical request without a conditional header is served from the
  cached bytes object instead of re-rendering the SVG/HTML.

Liveness and readiness are split: ``/healthz`` answers 200 for any
process able to serve it (a supervisor should not kill a worker merely
because a registry is down), while ``/readyz`` reflects *load-balancer*
concerns — worker saturation (via :attr:`saturation_probe`) and
degraded sources / quarantined shards — so a draining instance stops
receiving new traffic while still finishing what it has.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from email.message import Message
from urllib.parse import parse_qs, quote, urlparse
from xml.sax.saxutils import escape

from repro.config import ServingConfig
from repro.errors import DeadlineExceededError, QueryError, ReproError
from repro.query.ast import Concept
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.resilience.retry import Deadline
from repro.viz.timeline_view import TimelineConfig

__all__ = ["Request", "Response", "ResponseCache", "RequestCore"]

#: Alignment concepts are terminology codes: letters, digits, dots.
_CONCEPT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9.]{0,15}$")

_PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{title}</title>
<style>
 body {{ font-family: sans-serif; margin: 1.2em; background: #fafafa; }}
 input[type=text] {{ width: 34em; }}
 pre {{ background: #f0f0f0; padding: 0.6em; }}
 img, object {{ border: 1px solid #ddd; background: #fff; }}
 .err {{ color: #b00020; }}
 .warn {{ color: #8a6d00; }}
</style></head><body>
<h2>{title}</h2>
<form action="/cohort" method="get">
 <input type="text" name="q" value="{query}"
  placeholder="concept T90 and atleast 2 category gp_contact">
 <button>run query</button>
</form>
{body}
</body></html>
"""

#: Methods served; HEAD answers exactly as GET, minus the body.
_METHODS = ("GET", "HEAD")

#: Routes whose 200 bodies are content-addressed (ETag + response cache).
_ETAG_ROUTES = ("/cohort", "/analyze", "/timeline.svg", "/overview.svg",
                "/cohort/density", "/cohort/flow")

#: Cache-Control for rendered, content-addressed responses: they are
#: valid exactly as long as their ETag, so clients may reuse them
#: briefly and must revalidate after.
_CACHE_CONTROL = "private, max-age=60, must-revalidate"


@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    path: str = "/"
    params: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    method: str = "GET"
    client: str = ""

    @classmethod
    def from_target(cls, target: str,
                    headers: Mapping[str, str] | Message | None = None,
                    client: str = "", method: str = "GET") -> "Request":
        """Build a request from an origin-form target like ``/cohort?q=…``.

        ``headers`` may be a parsed ``email.message.Message`` (what
        :mod:`http.server` hands over), whose ``items()`` repeats a
        field sent on several lines; repeated lines combine into one
        value joined by ``", "`` (RFC 9110 §5.3).
        """
        url = urlparse(target)
        lowered: dict[str, str] = {}
        for key, value in (headers or {}).items():
            key = key.lower()
            lowered[key] = (f"{lowered[key]}, {value}" if key in lowered
                            else value)
        return cls(path=url.path, params=parse_qs(url.query),
                   headers=lowered, method=method, client=client)

    def param(self, name: str, default: str = "") -> str:
        """First value of a query parameter, stripped."""
        values = self.params.get(name)
        return values[0].strip() if values else default

    def int_param(self, name: str, default: int) -> int:
        """Parse an integer query parameter or raise a 400-able error."""
        raw = self.param(name, str(default))
        try:
            return int(raw)
        except ValueError:
            raise QueryError(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """One typed response: status, body bytes, headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "text/html; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)
    #: Set by the core on 200 bodies that are safe to replay for the
    #: same ETag (used by the response cache and the stale-serving path).
    cacheable: bool = False

    @classmethod
    def text(cls, body: str, content_type: str,
             status: int = 200) -> "Response":
        return cls(status=status, body=body.encode("utf-8"),
                   content_type=content_type)

    @classmethod
    def json(cls, payload: dict, status: int = 200) -> "Response":
        return cls(status=status,
                   body=json.dumps(payload, sort_keys=True).encode("utf-8"),
                   content_type="application/json")

    def header_items(self) -> list[tuple[str, str]]:
        """Every header to send, including Content-Type/Content-Length."""
        items = [("Content-Type", self.content_type),
                 ("Content-Length", str(len(self.body)))]
        items.extend(sorted(self.headers.items()))
        return items


class ResponseCache:
    """A byte- and entry-bounded LRU of rendered response bodies.

    Keyed by the response's strong ``ETag``: the tag already encodes the
    store content token and the canonical plan, so invalidation is
    automatic — a store rebuild or a different query simply misses.
    """

    def __init__(self, max_entries: int = 128,
                 max_bytes: int = 32 * 1024 * 1024) -> None:
        self.max_entries = max(1, int(max_entries))
        self.max_bytes = max(1, int(max_bytes))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, Response] = OrderedDict()
        self._nbytes = 0

    def get(self, etag: str) -> Response | None:
        entry = self._entries.get(etag)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(etag)
        self.hits += 1
        return entry

    def peek(self, etag: str) -> Response | None:
        """Like :meth:`get` but without touching the hit/miss counters
        (the stale-under-overload probe must not skew them)."""
        return self._entries.get(etag)

    def put(self, etag: str, response: Response) -> None:
        previous = self._entries.pop(etag, None)
        if previous is not None:
            self._nbytes -= len(previous.body)
        self._entries[etag] = response
        self._nbytes += len(response.body)
        while len(self._entries) > self.max_entries or (
            self._nbytes > self.max_bytes and len(self._entries) > 1
        ):
            __, evicted = self._entries.popitem(last=False)
            self._nbytes -= len(evicted.body)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": self._nbytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }


class RequestCore:
    """Routes :class:`Request` objects over one workbench.

    ``saturation_probe`` and ``serving_stats_probe`` are wired in by the
    overload middleware (:class:`~repro.serving.middleware.ServingApp`)
    so ``/readyz`` and ``/stats`` can report gauge state without the
    core depending on the middleware.
    """

    def __init__(self, workbench, config: ServingConfig | None = None,
                 clock=time.monotonic) -> None:
        self.workbench = workbench
        self.config = config or ServingConfig()
        self.response_cache = ResponseCache(
            max_entries=self.config.response_cache_entries,
            max_bytes=self.config.response_cache_bytes,
        )
        self.saturation_probe = None
        self.serving_stats_probe = None
        self._clock = clock
        self.counters = {
            "requests": 0,
            "queries_executed": 0,
            "renders": 0,
            "etag_304": 0,
            "errors_400": 0,
            "deadline_503": 0,
        }

    # -- entry point ---------------------------------------------------------

    def handle(self, request: Request,
               deadline: Deadline | None = None) -> Response:
        """Answer one request; never raises (errors become responses)."""
        self.counters["requests"] += 1
        try:
            return self._route(request, deadline)
        except DeadlineExceededError as exc:
            self.counters["deadline_503"] += 1
            return self._page(
                "Deadline exceeded",
                f"<p class='err'>{escape(str(exc))}</p>",
                query=request.param("q"), status=503,
                headers={"Retry-After": self._retry_after()},
            )
        except ReproError as exc:
            self.counters["errors_400"] += 1
            return self._page(
                "Query error", f"<p class='err'>{escape(str(exc))}</p>",
                query=request.param("q"), status=400,
            )

    def cached_response(self, request: Request) -> Response | None:
        """The resident rendering for this request, or None — *without*
        executing anything.  The overload path serves this when the
        worker is saturated: a stale-but-correct cached body beats a
        shed."""
        try:
            etag = self._etag_for(request)
        except ReproError:
            return None
        if etag is None:
            return None
        cached = self.response_cache.peek(etag)
        if cached is None:
            return None
        return self._finalize(request, cached, etag)

    # -- routing -------------------------------------------------------------

    def _route(self, request: Request,
               deadline: Deadline | None) -> Response:
        path = request.path
        if request.method not in _METHODS:
            return self._page(
                "Method not allowed",
                "<p class='err'>only GET and HEAD are served</p>",
                status=405, headers={"Allow": ", ".join(_METHODS)},
            )
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/stats":
            return self._stats()
        if self.config.degraded_mode == "fail" \
                and self.workbench.is_degraded:
            return self._degraded_page()
        if path == "/debug/sleep" and self.config.debug_routes:
            return self._debug_sleep(request, deadline)

        etag = self._etag_for(request)
        if etag is not None:
            if self._if_none_match(request, etag):
                self.counters["etag_304"] += 1
                return Response(
                    status=304, body=b"", content_type="text/plain",
                    headers={"ETag": etag,
                             "Cache-Control": _CACHE_CONTROL},
                )
            cached = self.response_cache.get(etag)
            if cached is not None:
                return self._finalize(request, cached, etag)

        if path == "/":
            response = self._index()
        elif path == "/cohort":
            response = self._cohort(request, deadline)
        elif path == "/cohort/density":
            response = self._cohort_density(request, deadline)
        elif path == "/cohort/flow":
            response = self._cohort_flow(request, deadline)
        elif path == "/analyze":
            response = self._analyze(request)
        elif path == "/timeline.svg":
            response = self._timeline(request, deadline)
        elif path == "/overview.svg":
            response = self._overview(request, deadline)
        elif path.startswith("/patient/"):
            response = self._patient(request, deadline)
        else:
            return self._page(
                "Not found", "<p class='err'>no such page</p>", status=404,
            )
        if etag is not None and response.status == 200:
            response.cacheable = True
            self.response_cache.put(etag, response)
            return self._finalize(request, response, etag)
        return response

    def _finalize(self, request: Request, cached: Response,
                  etag: str) -> Response:
        """A fresh response object around a cached body (per-request
        headers must not mutate the cached entry)."""
        headers = dict(cached.headers)
        headers["ETag"] = etag
        headers["Cache-Control"] = _CACHE_CONTROL
        return Response(status=cached.status, body=cached.body,
                        content_type=cached.content_type, headers=headers,
                        cacheable=True)

    # -- HTTP caching --------------------------------------------------------

    def _etag_for(self, request: Request) -> str | None:
        """The strong ETag for a cacheable GET or HEAD, or None.

        Derived from the store ``content_token`` (content-addresses the
        data), the canonical plan key of ``q`` (two spellings of the
        same query share SVG renderings), the raw query text for routes
        that echo it back, the remaining parameters, and the degraded
        set (a quarantined shard changes every answer).  Raises
        :class:`~repro.errors.QueryError` on an unparseable ``q`` so
        the route's own 400 path reports it.
        """
        path = request.path
        if request.method not in _METHODS:
            return None
        if path not in _ETAG_ROUTES and not path.startswith("/patient/"):
            return None
        parts = [self.workbench.store.content_token(), path]
        query = request.param("q")
        if query:
            parts.append(plan_query(parse_query(query)).key)
        if path in ("/cohort", "/analyze"):
            # These bodies echo the raw query text (form value, JSON
            # "query" field), so equivalent-but-differently-written
            # queries must not share a representation.
            parts.append(query)
        for name in sorted(self.workbench.degraded_sources):
            parts.append(f"degraded:{name}")
        for name in sorted(request.params):
            if name != "q":
                parts.append(f"{name}={','.join(request.params[name])}")
        digest = hashlib.sha1(
            "\x1f".join(parts).encode("utf-8")
        ).hexdigest()
        return f'"{digest}"'

    def _if_none_match(self, request: Request, etag: str) -> bool:
        header = request.header("if-none-match")
        if not header:
            return False
        candidates = {part.strip() for part in header.split(",")}
        return etag in candidates or "*" in candidates

    def _retry_after(self) -> str:
        return str(max(1, int(round(self.config.retry_after_s))))

    # -- helpers -------------------------------------------------------------

    def _page(self, title: str, body: str, query: str = "",
              status: int = 200,
              headers: dict[str, str] | None = None) -> Response:
        html = _PAGE.format(
            title=escape(title), body=body,
            query=escape(query, {'"': "&quot;"}),
        )
        response = Response.text(html, "text/html; charset=utf-8", status)
        if headers:
            response.headers.update(headers)
        return response

    def _check_deadline(self, deadline: Deadline | None) -> None:
        """Raise once the per-request budget is spent (between stages)."""
        if deadline is not None and deadline.expired():
            raise DeadlineExceededError(
                "request exceeded its "
                f"{self.config.request_deadline_s:.1f}s deadline"
                if self.config.request_deadline_s is not None
                else "request exceeded its deadline"
            )

    def _diagnostic_list(self, diagnostics, css: str) -> str:
        items = "".join(
            f"<li><code>{escape(d.rule)}</code> at "
            f"<code>{escape(d.path)}</code>: {escape(d.message)}"
            + (f"<br><i>hint: {escape(d.hint)}</i>" if d.hint else "")
            + "</li>"
            for d in diagnostics
        )
        return f"<ul class='{css}'>{items}</ul>"

    # -- health and introspection routes -------------------------------------

    def _healthz(self) -> Response:
        """Liveness: a process that can answer at all is alive (200).

        The payload still carries the full health report — humans and
        dashboards read it — but degradation no longer flips the status
        code; that is ``/readyz``'s job.
        """
        return Response.json(self.workbench.health(), status=200)

    def _readyz(self) -> Response:
        """Readiness: should a load balancer route traffic here?

        503 while the worker is saturated (inflight at or beyond the
        high-water fraction of ``max_inflight``), draining, serving
        without sources/shards, holding a replicated shard with zero
        healthy replicas, or too far behind on compaction (more pending
        delta segments than ``max_pending_deltas``) — each reason is
        listed so the operator can tell a drain from an overload from
        an ingestion backlog from exhausted redundancy.
        """
        reasons = []
        saturation = (
            self.saturation_probe() if self.saturation_probe else None
        )
        if saturation is not None:
            limit = saturation.get("max_inflight")
            inflight = saturation.get("inflight", 0)
            if saturation.get("draining"):
                reasons.append("draining")
            if limit and inflight >= max(
                1, int(limit * self.config.ready_high_water)
            ):
                reasons.append(
                    f"saturated: {inflight}/{limit} requests in flight"
                )
        for name, reason in sorted(
            self.workbench.degraded_sources.items()
        ):
            reasons.append(f"degraded {name}: {reason}")
        # Zero-healthy-replica shards: on a replicated store, failover
        # masks single-replica damage exactly, so readiness only trips
        # when a shard has run out of replicas entirely.
        replication_stats = getattr(
            self.workbench.store, "replication_stats", None
        )
        if callable(replication_stats):
            replication = replication_stats()
            if replication.get("replication", 1) > 1:
                for name in replication.get("zero_healthy_shards") or []:
                    reasons.append(
                        f"zero healthy replicas: {name} (run shard scrub "
                        f"or shard repair)"
                    )
        # Compaction lag (manifest metadata only — no query execution,
        # so readiness stays cheap and deadline-free).
        delta_stats = getattr(self.workbench.store, "delta_stats", None)
        ingestion = delta_stats() if callable(delta_stats) else None
        limit = self.config.max_pending_deltas
        if ingestion is not None and limit is not None \
                and ingestion["pending_deltas"] > limit:
            reasons.append(
                f"compaction lag: {ingestion['pending_deltas']} pending "
                f"delta segment(s) exceed the bound of {limit}; run "
                f"shard compact"
            )
        payload = {
            "ready": not reasons,
            "reasons": reasons,
        }
        if ingestion is not None:
            payload["ingestion"] = ingestion
        if saturation is not None:
            payload["inflight"] = saturation.get("inflight", 0)
            payload["max_inflight"] = saturation.get("max_inflight")
        return Response.json(payload, status=200 if not reasons else 503)

    def _stats(self) -> Response:
        store = self.workbench.store
        payload = {
            "patients": int(store.n_patients),
            "events": int(store.n_events),
            "query_cache": self.workbench.query_cache_stats(),
            "analyzer": dict(self.workbench.engine.analyzer_counters),
            "http_cache": {
                **{key: self.counters[key]
                   for key in ("requests", "queries_executed", "renders",
                               "etag_304")},
                "response_cache": self.response_cache.stats_dict(),
            },
        }
        shards = self.workbench.shard_stats()
        if shards is not None:
            payload["shards"] = shards
        if self.serving_stats_probe is not None:
            payload["serving"] = self.serving_stats_probe()
        return Response.json(payload)

    def _degraded_page(self) -> Response:
        items = "".join(
            f"<li><b>{escape(source)}</b>: {escape(reason)}</li>"
            for source, reason in
            sorted(self.workbench.degraded_sources.items())
        )
        return self._page(
            "Workbench degraded",
            "<p class='err'>The workbench is running without these "
            f"sources:</p><ul class='err'>{items}</ul>"
            "<p>Retry once the registries recover, or restart with "
            "<code>--degraded-mode serve</code> to browse the partial "
            "integration.</p>",
            status=503,
        )

    def _debug_sleep(self, request: Request,
                     deadline: Deadline | None) -> Response:
        """Hold a request slot for a bounded wall-clock interval.

        The overload tests and the serving benchmark need a route with a
        *deterministic* service time; only exists when
        ``ServingConfig.debug_routes`` is set.
        """
        seconds = min(5.0, max(0.0, float(request.param("s", "0.1"))))
        start = self._clock()
        while self._clock() - start < seconds:
            self._check_deadline(deadline)
            time.sleep(min(0.01, seconds))
        return Response.json({"slept_s": seconds})

    # -- workbench routes ----------------------------------------------------

    def _index(self) -> Response:
        stats = self.workbench.stats()
        banner = ""
        if self.workbench.is_degraded:
            degraded = ", ".join(sorted(self.workbench.degraded_sources))
            banner = (
                f"<p class='err'>degraded: integrated without "
                f"{escape(degraded)} (see <a href='/healthz'>/healthz</a>)"
                f"</p>"
            )
        report = self.workbench.report
        report_block = (
            f"<pre>{escape(report.format_summary())}</pre>"
            if report is not None and (report.is_degraded
                                       or report.failures_truncated)
            else ""
        )
        body = (
            banner + report_block
            + f"<pre>{escape(stats.format_table())}</pre>"
            '<p><a href="/overview.svg">population density overview</a></p>'
        )
        return self._page("PAsTAs workbench", body)

    def _analyze(self, request: Request) -> Response:
        query = request.param("q")
        if not query:
            raise QueryError("missing query parameter 'q'")
        diagnostics = self.workbench.analyze(query)
        payload = {
            "query": query,
            "ok": not any(d.severity == "error" for d in diagnostics),
            "diagnostics": [d.to_json() for d in diagnostics],
        }
        return Response.json(payload)

    def _cohort(self, request: Request,
                deadline: Deadline | None) -> Response:
        query = request.param("q")
        if not query:
            return self._page("Cohort", "<p class='err'>empty query</p>",
                              status=400)
        diagnostics = self.workbench.analyze(query)
        if any(d.severity == "error" for d in diagnostics):
            return self._page(
                "Query rejected",
                "<p class='err'>static analysis rejected this query "
                "(it was not evaluated):</p>"
                + self._diagnostic_list(diagnostics, "err"),
                query=query, status=400,
            )
        self.counters["queries_executed"] += 1
        ids = self.workbench.select(query, deadline=deadline)
        self._check_deadline(deadline)
        stats = self.workbench.stats(ids)
        self.counters["renders"] += 1
        encoded = quote(query)
        links = "".join(
            f'<li><a href="/patient/{int(p)}">patient {int(p)}</a></li>'
            for p in ids[:20]
        )
        warnings_block = (
            "<p class='warn'>static-analysis warnings:</p>"
            + self._diagnostic_list(diagnostics, "warn")
            if diagnostics else ""
        )
        body = (
            warnings_block
            + f"<p>{len(ids):,} patients match.</p>"
            f"<pre>{escape(stats.format_table())}</pre>"
            f'<object data="/timeline.svg?q={encoded}&rows=60" '
            'type="image/svg+xml" width="100%"></object>'
            f"<ul>{links}</ul>"
        )
        return self._page("Cohort", body, query=query)

    def _timeline(self, request: Request,
                  deadline: Deadline | None) -> Response:
        query = request.param("q")
        rows = request.int_param("rows", 100)
        align = request.param("align")
        if align and not _CONCEPT_RE.match(align):
            raise QueryError(
                f"query parameter 'align' must be a concept code "
                f"(e.g. T90), got {align!r}"
            )
        if query:
            self.counters["queries_executed"] += 1
            ids = self.workbench.select(query, deadline=deadline)
        else:
            ids = self.workbench.store.patient_ids
        ids = ids[: max(1, min(rows, 2_000))]
        self._check_deadline(deadline)
        self.counters["renders"] += 1
        if align:
            alignment = self.workbench.align(Concept(align.upper()))
            scene = self.workbench.timeline(
                ids, TimelineConfig(mode="aligned"), alignment
            )
        else:
            scene = self.workbench.timeline(ids)
        return Response.text(scene.svg_text, "image/svg+xml")

    def _overview(self, request: Request,
                  deadline: Deadline | None) -> Response:
        query = request.param("q")
        if query:
            self.counters["queries_executed"] += 1
            ids = self.workbench.select(query, deadline=deadline)
        else:
            ids = None
        self._check_deadline(deadline)
        self.counters["renders"] += 1
        scene = self.workbench.overview(ids)
        return Response.text(scene.svg_text, "image/svg+xml")

    def _cohort_sketch_for(self, request: Request,
                           deadline: Deadline | None):
        """The request's cohort sketch (``q`` refines; empty = whole store).

        Served from per-segment sidecar folds — no per-patient rows
        materialize on this path regardless of cohort size."""
        query = request.param("q") or None
        if query:
            self.counters["queries_executed"] += 1
        self._check_deadline(deadline)
        sketch = self.workbench.cohort_sketch(query, deadline=deadline)
        self._check_deadline(deadline)
        return sketch

    def _cohort_density(self, request: Request,
                        deadline: Deadline | None) -> Response:
        from repro.viz.cohort_views import (  # noqa: PLC0415 (cycle)
            render_cohort_density,
        )

        sketch = self._cohort_sketch_for(request, deadline)
        if request.param("format") == "json":
            return Response.json(sketch.summary())
        self.counters["renders"] += 1
        scene = render_cohort_density(sketch)
        return Response.text(scene.svg_text, "image/svg+xml")

    def _cohort_flow(self, request: Request,
                     deadline: Deadline | None) -> Response:
        from repro.viz.cohort_views import (  # noqa: PLC0415 (cycle)
            render_cohort_flow,
        )

        sketch = self._cohort_sketch_for(request, deadline)
        if request.param("format") == "json":
            return Response.json({
                "n_patients": int(sketch.n_patients),
                "n_transitions": int(sketch.flow.sum()),
                "first_k": sketch.spec.first_k,
                "top_transitions": sketch.top_transitions(limit=25),
            })
        self.counters["renders"] += 1
        scene = render_cohort_flow(sketch)
        return Response.text(scene.svg_text, "image/svg+xml")

    def _patient(self, request: Request,
                 deadline: Deadline | None) -> Response:
        raw_id = request.path[len("/patient/"):]
        try:
            patient_id = int(raw_id)
        except ValueError:
            raise QueryError(
                f"patient id must be an integer, got {raw_id!r}"
            ) from None
        self._check_deadline(deadline)
        self.counters["renders"] += 1
        html = self.workbench.personal_timeline(patient_id)
        return Response.text(html, "text/html; charset=utf-8")
