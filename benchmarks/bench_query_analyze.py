"""Static analyzer overhead vs cold planner time at paper scale.

The analyzer runs on the hot serving path whenever the ``analyze=True``
gate (or the webapp) is on, so it must be cheap relative to the work it
guards.  Acceptance criterion (ISSUE 5): analyzing the refinement
session costs **under 5 % of the cold planner time** for the same
queries on the E5-scale (168k-patient) store — i.e. turning the gate on
is effectively free.

Also pins the rejection latency itself: a crafted catastrophic
backtracking pattern must be refused in well under 100 ms, while
*matching* it against even one long code would take seconds.
"""

from __future__ import annotations

import time

from bench_query_planner import refinement_session
from conftest import print_experiment

from repro.errors import QueryAnalysisError
from repro.query.analyze import AnalysisContext, analyze_query
from repro.query.ast import CodeMatch, HasEvent
from repro.query.engine import QueryEngine

#: Analyzer time as a fraction of cold planner time (the 5 % criterion).
MAX_OVERHEAD_FRACTION = 0.05

#: Static rejection budget for a pathological pattern (milliseconds).
MAX_REJECTION_MS = 100.0


def _analyze_session(context, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        analyze_query(query, context)
    return time.perf_counter() - start


def test_analyzer_overhead_under_5pct_of_cold_plan(paper_store):
    store, __ = paper_store
    queries = refinement_session(store)
    context = AnalysisContext.from_store(store)

    analyze_query(queries[0], context)  # warm lazy imports
    analyze_s = min(_analyze_session(context, queries) for __ in range(3))

    cold = QueryEngine(store)
    start = time.perf_counter()
    for query in queries:
        cold.patients(query)
    cold_s = time.perf_counter() - start

    fraction = analyze_s / cold_s
    print_experiment(
        "Static analyzer (ISSUE 5): overhead on the refinement session "
        f"of {len(queries)} queries",
        [
            ("planner cold", "-", f"{cold_s * 1e3:8.1f} ms"),
            ("analyzer", "-", f"{analyze_s * 1e3:8.1f} ms"),
            ("overhead", f"< {MAX_OVERHEAD_FRACTION:.0%}",
             f"{fraction:8.2%}"),
        ],
    )
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"analyzer cost {fraction:.1%} of cold planning "
        f"(analyze {analyze_s * 1e3:.1f} ms, cold {cold_s * 1e3:.1f} ms)"
    )


def test_pathological_pattern_rejected_fast(paper_store):
    store, __ = paper_store
    engine = QueryEngine(store, analyze=True)
    query = HasEvent(CodeMatch("ICPC-2", "(A+)+"))
    engine.analyze(query)  # warm lazy imports

    start = time.perf_counter()
    rejected = False
    try:
        engine.patients(query)
    except QueryAnalysisError as exc:
        rejected = any(d.rule == "QA102" for d in exc.diagnostics)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    print_experiment(
        "Static analyzer (ISSUE 5): catastrophic-backtracking rejection",
        [
            ("rejected", "yes", "yes" if rejected else "NO"),
            ("latency", f"< {MAX_REJECTION_MS:.0f} ms",
             f"{elapsed_ms:8.1f} ms"),
        ],
    )
    assert rejected, "gate failed to reject the ReDoS pattern"
    assert elapsed_ms < MAX_REJECTION_MS, (
        f"rejection took {elapsed_ms:.1f} ms"
    )
