"""Overload protection around the request core: fail fast, not slow.

The serving stack, outermost first:

1. **Per-client rate limiting** — a seedless, clock-injectable token
   bucket per client address.  A client bursting past its bucket gets
   ``429 Retry-After`` before it can crowd out everyone else.
2. **Admission control** — a bounded in-flight gauge
   (:class:`InflightGauge`).  Once ``max_inflight`` requests are
   executing, further requests are *shed* with ``429 Retry-After``
   instead of queueing: queued work melts tail latency for every
   admitted request, while a shed request costs the client one cheap
   retry.  If the worker already holds a rendered body for the exact
   request (same ``ETag``), the saturated path serves those cached
   bytes instead of shedding — stale-but-correct beats a 429.
3. **Deadline** — every admitted request gets a
   :class:`~repro.resilience.retry.Deadline` that the core threads into
   query execution (scatter-gather aborts between shards); overruns
   answer 503.
4. **The core** (:class:`~repro.serving.core.RequestCore`).
5. **Content encoding** — gzip for SVG/JSON/HTML bodies when the client
   asks, applied after the response cache so cached entries stay
   uncompressed (one cached rendering serves both kinds of client).

Health endpoints bypass shedding entirely: a load balancer must always
be able to ask ``/healthz`` (liveness) and ``/readyz`` (readiness), and
``/readyz`` reads the gauge to report saturation *before* requests are
actually shed (``ServingConfig.ready_high_water``).
"""

from __future__ import annotations

import gzip
import threading
import time
from collections import OrderedDict

from repro.config import ServingConfig
from repro.resilience.retry import Deadline
from repro.serving.core import Request, RequestCore, Response

__all__ = ["InflightGauge", "TokenBucket", "ServingApp"]

#: Content types worth compressing (textual; SVG compresses ~10x).
_COMPRESSIBLE = ("text/", "application/json", "image/svg+xml")

#: Routes that must stay reachable on an overloaded or draining worker.
_HEALTH_ROUTES = ("/healthz", "/readyz")


class InflightGauge:
    """A bounded count of concurrently executing requests.

    ``try_acquire`` never blocks — admission control *sheds* instead of
    queueing, so the gauge is a counter plus a lock, not a semaphore
    that callers wait on.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(1, int(limit))
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0
        self.admitted = 0
        self.shed = 0

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.limit:
                self.shed += 1
                return False
            self._inflight += 1
            self.admitted += 1
            self.peak = max(self.peak, self._inflight)
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def stats_dict(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "limit": self.limit,
                "peak": self.peak,
                "admitted": self.admitted,
                "shed": self.shed,
            }


class TokenBucket:
    """Per-client token buckets: ``burst`` capacity, ``rate`` refill/s.

    The clock is injectable so tests drive time explicitly.  Client
    state is a bounded LRU — an adversary cycling source addresses can
    evict other buckets (which refill to full burst on return), never
    grow memory.
    """

    def __init__(self, rate: float, burst: int,
                 clock=time.monotonic, max_clients: int = 4096) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self.max_clients = max(1, int(max_clients))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, tuple[float, float]] = OrderedDict()
        self.allowed = 0
        self.limited = 0

    def allow(self, client: str) -> bool:
        now = self._clock()
        with self._lock:
            tokens, last = self._buckets.pop(
                client, (float(self.burst), now)
            )
            tokens = min(float(self.burst),
                         tokens + (now - last) * self.rate)
            ok = tokens >= 1.0
            if ok:
                tokens -= 1.0
                self.allowed += 1
            else:
                self.limited += 1
            self._buckets[client] = (tokens, now)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
            return ok

    def stats_dict(self) -> dict:
        with self._lock:
            return {
                "rate_rps": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "allowed": self.allowed,
                "limited": self.limited,
            }


class ServingApp:
    """The full middleware stack around one :class:`RequestCore`.

    One app serves one process (worker); every member is thread-safe so
    a threading HTTP server can drive it from concurrent connections.
    """

    def __init__(self, workbench, config: ServingConfig | None = None,
                 clock=time.monotonic) -> None:
        self.config = config or ServingConfig()
        self.core = RequestCore(workbench, self.config, clock=clock)
        self.gauge = (
            InflightGauge(self.config.max_inflight)
            if self.config.max_inflight is not None else None
        )
        self.limiter = (
            TokenBucket(self.config.rate_limit_rps,
                        self.config.rate_limit_burst, clock=clock)
            if self.config.rate_limit_rps is not None else None
        )
        self._draining = False
        self.counters = {
            "shed_inflight": 0,
            "shed_rate_limited": 0,
            "served_stale_on_overload": 0,
            "gzipped": 0,
        }
        self.core.saturation_probe = self._saturation
        self.core.serving_stats_probe = self.stats_dict

    @property
    def workbench(self):
        return self.core.workbench

    # -- probes wired into the core -----------------------------------------

    def _saturation(self) -> dict:
        return {
            "inflight": self.gauge.inflight if self.gauge else 0,
            "max_inflight": self.gauge.limit if self.gauge else None,
            "draining": self._draining,
        }

    def drain(self) -> None:
        """Mark this worker not-ready (``/readyz`` 503) while it keeps
        finishing admitted requests — the load-balancer half of a
        graceful shutdown."""
        self._draining = True

    # -- request path --------------------------------------------------------

    def handle(self, request: Request) -> Response:
        if request.path in _HEALTH_ROUTES:
            # Never shed or rate-limit the probes a supervisor/LB needs
            # to decide this worker's fate.
            return self.core.handle(request)
        if self.limiter is not None \
                and not self.limiter.allow(request.client):
            self.counters["shed_rate_limited"] += 1
            return self._shed_response(request, "rate-limited")
        if self.gauge is not None and not self.gauge.try_acquire():
            cached = self.core.cached_response(request)
            if cached is not None:
                self.counters["served_stale_on_overload"] += 1
                cached.headers["X-Served-From"] = "response-cache-overload"
                return self._encode(request, cached)
            self.counters["shed_inflight"] += 1
            return self._shed_response(request, "overloaded")
        try:
            deadline = (
                Deadline(self.config.request_deadline_s)
                if self.config.request_deadline_s is not None else None
            )
            response = self.core.handle(request, deadline)
        finally:
            if self.gauge is not None:
                self.gauge.release()
        return self._encode(request, response)

    def _shed_response(self, request: Request, reason: str) -> Response:
        response = Response.json(
            {"error": reason,
             "retry_after_s": self.config.retry_after_s},
            status=429,
        )
        response.headers["Retry-After"] = str(
            max(1, int(round(self.config.retry_after_s)))
        )
        return response

    # -- content encoding ----------------------------------------------------

    def _encode(self, request: Request, response: Response) -> Response:
        body = response.body
        if (
            len(body) < self.config.gzip_min_bytes
            or response.status != 200
            or "gzip" not in request.header("accept-encoding")
            or not response.content_type.startswith(_COMPRESSIBLE)
        ):
            return response
        # mtime=0: the header carries no clock, so repeated requests under
        # one strong ETag get the same gzip bytes.
        compressed = gzip.compress(body, compresslevel=6, mtime=0)
        if len(compressed) >= len(body):
            return response
        self.counters["gzipped"] += 1
        headers = dict(response.headers)
        headers["Content-Encoding"] = "gzip"
        headers["Vary"] = "Accept-Encoding"
        return Response(status=response.status, body=compressed,
                        content_type=response.content_type,
                        headers=headers, cacheable=response.cacheable)

    # -- introspection -------------------------------------------------------

    def stats_dict(self) -> dict:
        payload = dict(self.counters)
        payload["draining"] = self._draining
        if self.gauge is not None:
            payload["inflight_gauge"] = self.gauge.stats_dict()
        if self.limiter is not None:
            payload["rate_limiter"] = self.limiter.stats_dict()
        return payload
