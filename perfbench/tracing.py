"""Spans around the calls into each layer of the served path.

The program has no spans of its own yet, so the traced run patches
wrappers over the public functions each layer exposes — at the name the
*caller* looks up (``repro.workbench.summarize``,
``repro.serving.core.plan_query``, ...), so every call on the served
path passes through one.  A span records its name, start, end, parent
span, the id of the request it served (the ``X-Request-Id`` the
client sent; ``-`` outside requests) and the phase of the run it fell
in: ``setup``, ``measure`` or ``probe`` (the freshness probes or the
closing compaction).  Spans stay in memory until the run ends.

Work inside executor worker processes is invisible here: the
parent-side spans ``shard.scatter`` and ``sketch.refine`` cover scatter,
worker compute, IPC and gather together.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import repro.serving.core
import repro.serving.middleware
import repro.viz.cohort_views
import repro.workbench
from repro.events.store import EventStore
from repro.serving.middleware import ServingApp
from repro.shard.executor import ParallelExecutor
from repro.shard.store import ShardedEventStore
from repro.viz.timeline_view import TimelineView
from repro.workbench import Workbench

#: The interaction budget each route is measured against (ParcoursVis).
BUDGET_MS = 100.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    request: str
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _builds(args) -> bool:
    """``materialize_store`` only counts when it actually merges rows."""
    return args[0]._materialized is None


class Tracer:
    """Records spans from wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: phase -> bytes handed to gzip during it
        self.gzip_bytes_in: dict[str, int] = defaultdict(int)
        #: set by the benchmark between phases: setup, measure, probe
        self.phase = "setup"
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = "-"
        return local

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        state = self._state()
        outer_request = state.request
        if request is not None:
            state.request = request
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent,
                                   state.request, self.phase))
            state.request = outer_request

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, when=None,
             request_of=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``when(args)`` limits recording to the calls it accepts;
        ``request_of(args)`` names the request the call serves.  Calls
        from other processes (forked executor workers) pass straight
        through.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid or (when and not when(args)):
                return original(*args, **kwargs)
            request = request_of(args) if request_of else None
            with tracer.span(name, request):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer boundary on the served path."""
        core = repro.serving.core
        wb = repro.workbench
        views = repro.viz.cohort_views
        self.wrap(ServingApp, "handle", "serving.handle",
                  request_of=lambda a: a[1].header("x-request-id", "-"))
        self.wrap(core, "parse_query", "serving.etag")
        self.wrap(core, "plan_query", "serving.etag")
        self.wrap(Workbench, "select", "query.select")
        self.wrap(Workbench, "analyze", "query.analyze")
        self.wrap(Workbench, "append_batch", "shard.append")
        self.wrap(Workbench, "compact", "shard.compact")
        self.wrap(ParallelExecutor, "patients", "shard.scatter")
        self.wrap(ParallelExecutor, "sketch_shards", "sketch.refine")
        self.wrap(ShardedEventStore, "materialize_store",
                  "shard.materialize_store", when=_builds)
        self.wrap(ShardedEventStore, "materialize",
                  "shard.materialize_patient")
        self.wrap(os, "fsync", "shard.fsync")
        self.wrap(wb, "summarize", "cohort.summarize")
        self.wrap(wb, "compute_alignment", "cohort.align")
        self.wrap(TimelineView, "render", "viz.timeline")
        self.wrap(wb, "render_density", "viz.overview")
        self.wrap(views, "render_cohort_density", "viz.cohort_density")
        self.wrap(views, "render_cohort_flow", "viz.cohort_flow")
        self.wrap(wb, "export_personal_timeline", "viz.patient_page")
        self.wrap(EventStore, "mask_patients", "events.mask_patients")
        # gzip as the middleware calls it: a stand-in module whose
        # compress counts the bytes it is handed.
        compress = gzip.compress

        def counted_compress(data, *args, **kwargs):
            self.gzip_bytes_in[self.phase] += len(data)
            return compress(data, *args, **kwargs)

        stand_in = types.SimpleNamespace(compress=counted_compress)
        self._undo.append((repro.serving.middleware, "gzip", gzip))
        repro.serving.middleware.gzip = stand_in
        self.wrap(stand_in, "compress", "serving.gzip")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "id": s.span_id, "parent": s.parent,
                    "request": s.request, "phase": s.phase}) + "\n")


def _self_times(spans) -> dict[int, float]:
    """span id -> duration minus what its child spans cover.  A span and
    its children always share a phase, so any one phase's spans hold
    every child of every span among them."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def layer_totals(spans) -> dict[str, tuple[int, float, float]]:
    """span name -> ``(calls, total_s, self_s)`` over ``spans``."""
    selfs = _self_times(spans)
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = totals[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += selfs[span.span_id]
    return {name: tuple(row) for name, row in totals.items()}


def layer_lines(title: str, totals: dict) -> list[str]:
    """Report lines: calls, total and self time of each layer."""
    lines = [f"{title}: calls, total ms, self ms"]
    for name, (calls, total, own) in sorted(totals.items()):
        lines.append(f"  {name:<26} {calls:>6} {1000 * total:>10.1f} "
                     f"{1000 * own:>10.1f}")
    return lines


def route_lines(spans, replies) -> list[str]:
    """For each route: the mean client latency, the mean self time per
    request of each layer, and the layer with the largest self time,
    against the interaction budget.  ``transport`` is client latency
    minus the ``serving.handle`` span: HTTP parsing, socket writes and
    the time the reply spends on the wire."""
    selfs = _self_times(spans)
    by_request: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    handle: dict[str, float] = {}
    for span in spans:
        by_request[span.request][span.name] += selfs[span.span_id]
        if span.name == "serving.handle":
            handle[span.request] = span.duration
    routes: dict[str, list] = defaultdict(list)
    for reply in replies:
        routes[reply.route].append(reply)
    lines = [f"per route: mean self ms per request by layer "
             f"(budget {BUDGET_MS:.0f} ms)"]
    for route in sorted(routes):
        members = routes[route]
        layers: dict[str, float] = defaultdict(float)
        for reply in members:
            for name, seconds in by_request.get(reply.request_id,
                                                {}).items():
                layers[name] += seconds
            layers["transport"] += reply.latency - handle.get(
                reply.request_id, 0.0)
        mean_ms = 1000 * sum(r.latency for r in members) / len(members)
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        top, top_s = ranked[0]
        verdict = "over" if mean_ms > BUDGET_MS else "within"
        lines.append(
            f"  {route:<9} n={len(members):<5} mean {mean_ms:8.1f} ms, "
            f"{verdict} budget; largest self time: {top} "
            f"{1000 * top_s / len(members):.1f} ms")
        lines.append("      " + ", ".join(
            f"{name} {1000 * seconds / len(members):.1f}"
            for name, seconds in ranked if seconds > 0))
    return lines
