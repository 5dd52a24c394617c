"""Scatter-gather vs single-store cohort selection at E5 scale.

The shard subsystem's performance claim: once the study population is
partitioned into on-disk segments, a planned query can be evaluated
per-shard in parallel worker processes and the merged answer arrives
faster than one engine scanning the whole flat store.

Acceptance criterion (ISSUE 3): with 4 workers over an 8-shard store,
one pass of distinct selection queries runs at least 2x faster than the
same pass on the flat store.  The assertion needs hardware that can
actually run 4 workers (>= 4 usable cores) and enough per-query work to
amortize process-pool dispatch, so it skips on smaller machines and on
heavily reduced ``REPRO_BENCH_SCALE`` smoke runs — the correctness
differential below runs everywhere.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import bench_scale, print_experiment

from repro.query.ast import (
    AgeRange,
    Category,
    CodeMatch,
    CountAtLeast,
    HasEvent,
    PatientAnd,
)
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.shard import ParallelExecutor, ShardedEventStore, write_sharded_store

#: Speedup scatter-gather must deliver over the flat store (ISSUE 3).
REQUIRED_SPEEDUP = 2.0

N_SHARDS = 8
N_WORKERS = 4

_PATTERNS = [
    ("ICD-10", "E1[14]"), ("ICD-10", "I1.*"), ("ATC", "C07.*"),
    ("ATC", "A10.*"), ("ICPC-2", "F.*|H.*"), ("ICPC-2", "K8."),
]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _query_corpus(store, count: int):
    """Distinct, moderately heavy selection queries (no cross-run cache)."""
    at_day = int(store.day.max())
    queries = []
    for i in range(count):
        system, pattern = _PATTERNS[i % len(_PATTERNS)]
        low = 20 + 5 * i
        queries.append(PatientAnd((
            HasEvent(CodeMatch(system, pattern)),
            CountAtLeast(Category("gp_contact"), 1 + i % 3),
            AgeRange(low, low + 40, at_day),
        )))
    return queries


@pytest.fixture(scope="module")
def sharded_paper(paper_store, tmp_path_factory):
    store, __ = paper_store
    path = str(tmp_path_factory.mktemp("bench") / "paper.shards")
    write_sharded_store(store, path, n_shards=N_SHARDS)
    return ShardedEventStore(path)


def test_sharded_matches_single_at_scale(paper_store, sharded_paper):
    store, __ = paper_store
    single = QueryEngine(store)
    engine = QueryEngine(sharded_paper)
    for query in _query_corpus(store, 6):
        expected = single.patients(query)
        got = engine.patients(query)
        assert np.array_equal(got, expected)


def test_scatter_gather_speedup(paper_store, sharded_paper):
    cpus = _usable_cpus()
    if cpus < N_WORKERS:
        pytest.skip(
            f"{N_WORKERS} workers need >= {N_WORKERS} usable cores "
            f"(found {cpus}); a pool cannot physically deliver "
            f"{REQUIRED_SPEEDUP:.0f}x here"
        )
    if bench_scale() < 0.25:
        pytest.skip(
            f"REPRO_BENCH_SCALE={bench_scale()} leaves too little "
            f"per-query work to amortize process-pool dispatch"
        )
    store, __ = paper_store
    queries = _query_corpus(store, 12)
    warmup = _query_corpus(store, 1)[0]

    single = QueryEngine(store, cache=QueryCache())
    single.patients(warmup)  # page in columns, build planner statistics
    start = time.perf_counter()
    for query in queries:
        single.patients(query)
    single_s = time.perf_counter() - start

    with ParallelExecutor(n_workers=N_WORKERS) as executor:
        engine = QueryEngine(sharded_paper, executor=executor)
        engine.patients(warmup)  # spawn the pool, open worker mmaps
        start = time.perf_counter()
        for query in queries:
            engine.patients(query)
        sharded_s = time.perf_counter() - start
        stats = executor.stats_dict()

    speedup = single_s / sharded_s
    print_experiment(
        f"Sharded scatter-gather (ISSUE 3): {len(queries)} queries, "
        f"{N_SHARDS} shards, {N_WORKERS} workers",
        [
            ("flat store", "-", f"{single_s * 1e3:8.1f} ms"),
            ("scatter-gather", "-", f"{sharded_s * 1e3:8.1f} ms"),
            ("speedup", f">= {REQUIRED_SPEEDUP:.0f}x", f"{speedup:8.1f}x"),
            ("executor", "-",
             f"{stats['parallel_queries']} parallel / "
             f"{stats['serial_queries']} serial / "
             f"{stats['pool_fallbacks']} fallbacks"),
        ],
    )
    assert stats["pool_fallbacks"] == 0, "process pool broke mid-benchmark"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"scatter-gather only {speedup:.2f}x faster than the flat store "
        f"(flat {single_s * 1e3:.1f} ms, sharded {sharded_s * 1e3:.1f} ms)"
    )


def test_shard_open_is_lazy_and_cheap(sharded_paper, benchmark):
    """Opening a sharded store reads manifests only — O(metadata)."""
    path = sharded_paper.path
    opened = benchmark(lambda: ShardedEventStore(path))
    assert opened.open_shard_count == 0
    assert opened.n_patients == sharded_paper.n_patients
