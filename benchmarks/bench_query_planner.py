"""Query planner: cold vs warm vs naive on the E5-scale population.

The paper's cohort identification is an *iterative* loop — Section IV's
13,000-of-168,000 selection was reached by repeatedly refining a query
over predefined characteristics — so consecutive queries share most of
their sub-expressions.  This benchmark replays such a refinement
session three ways:

* **naive** — the recursive test oracle (``tests/naive_engine.py``),
  every mask recomputed per query;
* **cold**  — the planner on a fresh cache (pays normalization plus the
  one-off selectivity statistics);
* **warm**  — the same session again: every sub-result is memoized, so
  each query is a cache lookup.

Acceptance criterion (ISSUE 2): the warm-cache replay is at least 5x
faster than the naive engine on the same sequence.
"""

from __future__ import annotations

import time

from conftest import print_experiment

from repro.query.ast import (
    AgeRange,
    Category,
    Concept,
    CountAtLeast,
    HasEvent,
    PatientAnd,
    SexIs,
)
from repro.query.engine import QueryEngine
from tests.naive_engine import NaiveEngine

#: Warm-replay speedup the planner must deliver over naive evaluation.
REQUIRED_SPEEDUP = 5.0


def refinement_session(store):
    """A clinician-style refinement sequence sharing sub-expressions."""
    at_day = int(store.day.max())
    base = HasEvent(Concept("T90"))
    utilization = CountAtLeast(Category("gp_contact"), 2)
    return [
        base,
        PatientAnd((base, utilization)),
        PatientAnd((base, utilization, SexIs("F"))),
        PatientAnd((base, utilization, SexIs("F"),
                    AgeRange(40, 90, at_day))),
        PatientAnd((base, utilization, SexIs("F"), AgeRange(40, 90, at_day),
                    HasEvent(Category("hospital_stay")))),
        PatientAnd((base, CountAtLeast(Category("gp_contact"), 4))),
    ]


def _run_session(engine, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        engine.patients(query)
    return time.perf_counter() - start


def test_planner_matches_naive_on_e5(paper_store):
    store, __ = paper_store
    planned = QueryEngine(store)
    naive = NaiveEngine(store)
    for query in refinement_session(store):
        fast = planned.patients(query)
        slow = naive.patients(query)
        assert fast.tolist() == slow.tolist()


def test_warm_cache_refinement_speedup(paper_store):
    store, __ = paper_store
    queries = refinement_session(store)

    naive = NaiveEngine(store)
    naive_s = min(_run_session(naive, queries) for __ in range(3))

    planned = QueryEngine(store)
    cold_s = _run_session(planned, queries)  # fills the cache
    warm_s = min(_run_session(planned, queries) for __ in range(3))

    stats = planned.cache.stats
    print_experiment(
        "Query planner (ISSUE 2): refinement session of "
        f"{len(queries)} queries",
        [
            ("naive", "-", f"{naive_s * 1e3:8.1f} ms"),
            ("planned cold", "-", f"{cold_s * 1e3:8.1f} ms"),
            ("planned warm", "-", f"{warm_s * 1e3:8.1f} ms"),
            ("warm speedup", f">= {REQUIRED_SPEEDUP:.0f}x",
             f"{naive_s / warm_s:8.1f}x"),
            ("cache", "-",
             f"{stats.hits} hits / {stats.misses} misses"),
        ],
    )
    assert naive_s >= REQUIRED_SPEEDUP * warm_s, (
        f"warm replay only {naive_s / warm_s:.1f}x faster than naive "
        f"(naive {naive_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms)"
    )


def test_warm_query_latency(benchmark, paper_store):
    """Steady-state latency of one fully-cached refinement query."""
    store, __ = paper_store
    planned = QueryEngine(store)
    queries = refinement_session(store)
    _run_session(planned, queries)  # warm up
    ids = benchmark(lambda: planned.patients(queries[-2]))
    assert len(ids) > 0
