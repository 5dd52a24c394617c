"""Clinician-loop benchmark: the paper's E5 loop over the real HTTP stack.

One clinician selects a cohort with the query builder, looks at its
counts, timeline, density and flow views and one patient, then refines
three times — through ``HTTP transport → ServingApp middleware →
RequestCore → Workbench`` over an 8-shard store with a two-worker
scatter-gather executor, all in this process, from one client thread
over one keep-alive loopback connection with ``Accept-Encoding: gzip``.
Every reply is checked (status, content type, gzip, document shape,
and each ``/cohort`` count against the flat in-memory store) before its
numbers count.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore_cold --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # all workloads, small, ~1 min

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same seed twice, untraced then traced, and prints the per-layer metrics
(``trace.overhead_pct`` compares the two) from the spans of its
measured phase.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Stores are
built under ``perfbench/.work/`` and removed at exit; ``--trace 1``
leaves its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
_SRC = os.path.join(CHECKOUT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"perfbench: no program source at {_SRC}/repro; run from the "
             f"root of a checkout of the repository")
sys.path.insert(0, _SRC)

import numpy  # noqa: E402

from client import check  # noqa: E402
from inputs import make_inputs  # noqa: E402
from stack import N_SHARDS, N_WORKERS, Stack, filesystem_of  # noqa: E402
from tracing import (  # noqa: E402
    Tracer, layer_lines, layer_totals, route_lines,
)
from workloads import (  # noqa: E402
    compact, probe_freshness, revisit, run_sessions,
)

#: Base population.  E5 is 168,000 patients; a run at that scale spends
#: a whole measured phase on one or two sessions, so it is smaller.
PATIENTS = 10_000
SMOKE_PATIENTS = 2_000
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPS = 3
#: Freshness probes after the measured phase of a workload without
#: appends of its own.
N_PROBES = 5

WORKLOADS = {
    # name: (replication, appends between sessions, revisits one session)
    "explore_cold": (1, False, False),
    "revisit_warm": (1, False, True),
    "ingest_mixed": (2, True, False),
}
ROUTES = ("cohort", "timeline", "density", "flow", "overview", "patient")
#: Per-layer timing metric -> the span it averages over the measured
#: phase (appends and compactions: over the measured phase and probes).
TIMINGS = {
    "serving.etag_ms": "serving.etag",
    "serving.gzip_ms": "serving.gzip",
    "query.select_ms": "query.select",
    "query.analyze_ms": "query.analyze",
    "shard.scatter_ms": "shard.scatter",
    "shard.materialize_store_ms": "shard.materialize_store",
    "shard.materialize_patient_ms": "shard.materialize_patient",
    "shard.append_ms": "shard.append",
    "shard.compact_s": "shard.compact",
    "sketch.refine_ms": "sketch.refine",
    "cohort.summarize_ms": "cohort.summarize",
    "cohort.align_ms": "cohort.align",
    "viz.timeline_ms": "viz.timeline",
    "viz.overview_ms": "viz.overview",
    "viz.cohort_density_ms": "viz.cohort_density",
    "viz.cohort_flow_ms": "viz.cohort_flow",
    "viz.patient_page_ms": "viz.patient_page",
    "events.mask_patients_ms": "events.mask_patients",
}


def say(line: str) -> None:
    print(line, flush=True)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile, samples)``: the eleventh-largest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def git_sha() -> str:
    """HEAD's commit (``unknown`` outside a git checkout)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=30, check=True,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(CHECKOUT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the kernel;
    glibc would otherwise keep them resident, and a forked process
    would count them in its RSS."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


class Run:
    """One workload at one seed: inputs, set-up and measured phases."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 patients: int, setup_reps: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_reps = setup_reps
        self.replication, self.ingest, self.revisit = WORKLOADS[workload]
        self.root = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
        # More than twice the sessions a run gets through (9 in 20 s on
        # two cores); a phase that runs out measures less than
        # ``seconds`` (the report shows it).  Distinct sessions run out
        # beyond about 24 at 10,000 patients.
        n_sessions = 1 if self.revisit else 4 + int(seconds)
        start = time.perf_counter()
        self.inputs = make_inputs(
            seed, patients, n_sessions,
            n_probes=0 if self.ingest else N_PROBES, appends=self.ingest)
        self.generate_s = time.perf_counter() - start

    # -- phases --------------------------------------------------------------

    def working_set(self) -> list[tuple[str, str, int | None]]:
        """``revisit_warm``'s targets: one session's 24 requests."""
        return [(route, target, step.expected if route == "cohort" else None)
                for step in self.inputs.sessions[0].steps
                for route, target in step.targets()]

    def setup(self, reps: int, free: bool):
        """Set up ``reps`` times; the last stack keeps running.

        With ``free``, the generated population is dropped after the
        last shard build, before the server starts and forks its
        executor workers, so neither they nor the peak-RSS watermark
        hold a copy of it.  Returns the stack, each set-up's seconds
        (dropping the population is not counted) and, for
        ``revisit_warm``, the working set with the ETag of each reply.
        """
        targets = self.working_set() if self.revisit else []
        times, stack = [], None
        for rep in range(reps):
            if stack is not None:
                stack.close()
            stack = Stack(self.root, self.replication)
            stack.build(self.inputs.base)
            if free and rep == reps - 1:
                self.inputs.base = None
                release_memory()
            replies = stack.start([(r, t) for r, t, _ in targets])
            times.append(stack.build_s + stack.warm_s)
        working = []
        for reply, (route, target, expected) in zip(replies, targets):
            problem = check(reply, 200, expected)
            if problem is not None:
                raise RuntimeError(f"working set {target}: {problem}")
            working.append((route, target, expected,
                            reply.headers.get("etag")))
        return stack, times, working

    def measure(self, stack, working, seconds: float, limit=None):
        if self.revisit:
            return revisit(stack, working, self.seed, seconds, limit)
        return run_sessions(stack, self.inputs.sessions,
                            self.inputs.batches, seconds, limit)

    def probe(self, stack, phase) -> None:
        """After the measured phase: ``ingest_mixed`` compacts once
        more, so every run ends on a compacted store; the others land
        freshness probes."""
        if self.ingest:
            compact(stack, phase)
        else:
            probe_freshness(stack, self.inputs.probes, self.inputs.batches,
                            phase)

    # -- the two modes -------------------------------------------------------

    def end_to_end(self) -> dict:
        stack, times, working = self.setup(self.setup_reps, free=True)
        try:
            stack.reset_peak_rss()
            phase = self.measure(stack, working, self.seconds)
            peak_mb = stack.peak_rss_mb()
            if self.ingest:
                compact(stack, phase)
            disk = stack.disk_bytes() / stack.workbench.store.n_events
        finally:
            stack.close()
        latencies = [r.latency for r in phase.replies]
        tail_s, pct, n = tail(latencies)
        self.report(phase)
        say(f"set-up runs: {', '.join(f'{t:.3f}' for t in times)} s")
        say(f"latency tail is p{pct:.2f} of {n} requests; "
            f"{self.post_append(phase)}")
        say(f"peak RSS of {1 + len(stack.worker_pids)} processes")
        return self.result(phase, {
            "latency_p50_ms": (1000 * median(latencies), "ms"),
            "latency_tail_ms": (1000 * tail_s, "ms"),
            "session_s": (median(phase.session_s), "s"),
            "setup_s": (median(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "disk_bytes_per_event": (disk, "bytes/event"),
        })

    @staticmethod
    def post_append(phase) -> str:
        """How many requests were the first ``/cohort`` after an append,
        and where they rank by latency (1 = slowest)."""
        if not phase.post_append:
            return "no request follows an append"
        ranked = sorted(phase.replies, key=lambda r: -r.latency)
        found = [f"#{i + 1} {1000 * r.latency:.0f} ms"
                 for i, r in enumerate(ranked)
                 if r.request_id in phase.post_append]
        return (f"{len(phase.post_append)} requests are the first /cohort "
                f"after an append, ranked by latency: {', '.join(found)}")

    def per_layer(self) -> dict:
        """An untraced pass for ``seconds / 2``, then a traced pass over
        exactly the same sessions on a freshly built stack.  Layer
        figures come from the traced pass's measured phase; appends and
        compactions also from the probe phase that follows it."""
        stack, _, working = self.setup(1, free=False)
        try:
            plain = self.measure(stack, working, self.seconds / 2)
        finally:
            stack.close()
        build_s, warm_s = stack.build_s, stack.warm_s
        tracer = Tracer().install()
        try:
            stack, _, working = self.setup(1, free=True)
            try:
                counters = [self.counters(stack)]
                tracer.phase = "measure"
                traced = self.measure(stack, working, 0, plain.sessions)
                counters.append(self.counters(stack))
                tracer.phase = "probe"
                self.probe(stack, traced)
                counters.append(self.counters(stack))
            finally:
                stack.close()
        finally:
            tracer.uninstall()
        path = os.path.join(
            WORK_DIR, f"trace-{self.workload}-seed{self.seed}.jsonl")
        tracer.dump(path)
        spans = {phase: [s for s in tracer.spans if s.phase == phase]
                 for phase in ("setup", "measure", "probe")}
        measured = layer_totals(spans["measure"])
        later = layer_totals(spans["measure"] + spans["probe"])
        self.report(traced)
        for phase, own in spans.items():
            for line in layer_lines(f"{phase} phase, per layer",
                                    layer_totals(own)):
                say(line)
        for line in route_lines(spans["measure"], traced.replies):
            say(line)
        say(f"{len(tracer.spans)} spans written to {path}")
        metrics = self.layer_metrics(plain, traced, tracer, measured, later,
                                     counters)
        metrics["shard.build_s"] = (build_s, "s")
        metrics["shard.warm_s"] = (warm_s, "s")
        plain.attempted += traced.attempted
        plain.failures += traced.failures
        return self.result(plain, metrics)

    @staticmethod
    def counters(stack) -> dict:
        """Program counters the per-layer metrics difference."""
        wb = stack.workbench
        executor = wb.engine.executor.stats_dict()
        cache = stack.server.app.core.response_cache
        return {
            **wb.store.counters,
            "shards_scanned": executor["shards_scanned"],
            "retries": executor["shard_retries"] + executor["pool_failures"]
            + executor["pool_fallbacks"],
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }

    @staticmethod
    def layer_metrics(plain, traced, tracer, measured, later,
                      counters) -> dict:
        """``measured`` and ``later`` are per-layer totals over the
        measured phase, and over it and the probe phase."""
        before, during, after = counters

        def delta(key, end=during):
            return end[key] - before[key]

        def calls(span, totals=measured):
            return totals.get(span, (0, 0.0, 0.0))[0]

        metrics = {}
        handled = {s.request: s.duration for s in tracer.spans
                   if s.name == "serving.handle" and s.phase == "measure"}
        transport = [r.latency - handled[r.request_id]
                     for r in traced.replies if r.request_id in handled]
        metrics["serving.transport_ms"] = (
            1000 * statistics.fmean(transport) if transport else 0.0, "ms")
        metrics["serving.transport.calls"] = (len(transport), "count")
        for metric, span in TIMINGS.items():
            totals = later if span in ("shard.append", "shard.compact") \
                else measured
            n, total, _ = totals.get(span, (0, 0.0, 0.0))
            unit = "s" if metric.endswith("_s") else "ms"
            scale = 1.0 if unit == "s" else 1000.0
            metrics[metric] = (scale * total / n if n else 0.0, unit)
            metrics[metric.rsplit("_", 1)[0] + ".calls"] = (n, "count")
        metrics["serving.gzip_bytes_in"] = (
            tracer.gzip_bytes_in["measure"]
            / max(1, calls("serving.gzip")), "bytes")
        hits = delta("cache_hits")
        lookups = hits + delta("cache_misses")
        metrics["serving.response_cache_hit_rate"] = (
            hits / lookups if lookups else 0.0, "ratio")
        metrics["serving.not_modified_share"] = (
            sum(r.status == 304 for r in traced.replies)
            / max(1, len(traced.replies)), "ratio")
        for route in ROUTES:
            own = [r for r in plain.replies if r.route == route]
            metrics[f"serving.route_p50_ms.{route}"] = (
                1000 * median([r.latency for r in own]), "ms")
            metrics[f"viz.body_bytes.{route}"] = (
                median([r.body_bytes for r in own if r.status == 200]),
                "bytes")
        metrics["shard.shards_scanned"] = (delta("shards_scanned"), "count")
        metrics["shard.retries"] = (delta("retries"), "count")
        metrics["shard.row_materializations"] = (
            delta("row_materializations"), "count")
        # freshness: append call to the last byte of the first /cohort
        # that counts the batch (ingest_mixed's sessions, else probes)
        metrics["freshness_ms"] = (1000 * median(traced.freshness_s), "ms")
        metrics["freshness.calls"] = (len(traced.freshness_s), "count")
        spans = {s.span_id: s for s in tracer.spans}

        def in_append(span) -> bool:
            while span.parent is not None:
                span = spans[span.parent]
                if span.name == "shard.append":
                    return True
            return False

        fsyncs = sum(1 for s in tracer.spans
                     if s.name == "shard.fsync" and in_append(s))
        metrics["shard.fsyncs_per_append"] = (
            fsyncs / max(1, calls("shard.append", later)), "count")
        metrics["shard.append_bytes_per_event"] = (
            median(traced.append_bytes_per_event), "bytes/event")
        metrics["shard.compact_bytes_rewritten"] = (
            median(traced.compact_bytes), "bytes")
        # the append path's sketch work: over the measured phase and
        # the probes, like the append figures
        for metric, key in (("sketch.sidecar_loads", "sketch_sidecar_loads"),
                            ("sketch.rebuilds", "sketch_rebuilds"),
                            ("sketch.delta_resketches",
                             "sketch_delta_resketches")):
            metrics[metric] = (delta(key, after), "count")
        untraced = median([r.latency for r in plain.replies])
        metrics["trace.overhead_pct"] = (
            100.0 * (median([r.latency for r in traced.replies]) - untraced)
            / untraced if untraced else 0.0, "%")
        return metrics

    # -- output ----------------------------------------------------------------

    def report(self, phase) -> None:
        sessions = self.inputs.sessions[: phase.sessions]
        sizes = sorted(step.expected for session in sessions
                       for step in session.steps)
        if len(sizes) > 1:
            q1, q2, q3 = statistics.quantiles(sizes, n=4)
            say(f"cohort sizes of {len(sizes)} steps: min {sizes[0]}, "
                f"q1 {q1:.0f}, median {q2:.0f}, q3 {q3:.0f}, "
                f"max {sizes[-1]}")
        say(f"measured {phase.sessions} sessions, {len(phase.replies)} "
            f"requests, {len(phase.failures)} failed operations")
        for failure in phase.failures[:10]:
            say(f"  FAILED {failure}")

    def result(self, phase, metrics: dict) -> dict:
        for name, (value, unit) in metrics.items():
            say(f"{self.workload} {name} = {value:.6g} {unit}")
        return {
            "correct": not phase.failures,
            "attempted": max(1, phase.attempted),
            "failed": len(phase.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def run_one(args, workload: str, trace: bool, seconds: float,
            patients: int, setup_reps: int) -> dict:
    bench = Run(workload, args.seed, seconds, patients, setup_reps)
    say(f"== {workload}, trace {int(trace)}: inputs generated in "
        f"{bench.generate_s:.1f} s")
    try:
        return bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.root, ignore_errors=True)


def smoke(args) -> dict:
    """Every workload, untraced and traced, on a small population."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(args, workload, trace, args.seconds,
                             SMOKE_PATIENTS, 1)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default 20; smoke 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"all workloads, untraced and traced, on "
                             f"{SMOKE_PATIENTS} patients")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    patients = SMOKE_PATIENTS if args.smoke else PATIENTS
    os.makedirs(WORK_DIR, exist_ok=True)
    say(f"git {git_sha()}; nproc {os.cpu_count()}; python "
        f"{platform.python_version()}; numpy {numpy.__version__}")
    say(f"{patients} base patients (E5: 168000); seed {args.seed}; "
        f"{N_SHARDS} hash shards; executor pinned to {N_WORKERS} "
        f"workers; one client, one keep-alive connection")
    say(f"store on {filesystem_of(WORK_DIR)} ({WORK_DIR}); compaction "
        f"inline between sessions; population freed before the server "
        f"starts; peak RSS reset before the measured phase")
    if args.smoke:
        args.seconds = args.seconds or 2.0
        result = smoke(args)
    else:
        result = run_one(args, args.workload, bool(args.trace),
                         args.seconds or 20.0, patients, SETUP_REPS)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
