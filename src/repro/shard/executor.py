"""Scatter-gather query execution across shard segments.

A planned query distributes over shards because patients are
partitioned and a patient's events all live in their shard: every
patient-level node (``HasEvent``, ``CountAtLeast``, ``FirstBefore``,
demographics, boolean set algebra — including ``PatientNot``, whose
universe is the shard's own demographics table) evaluates correctly on
each shard's disjoint universe, and the global answer is the sorted
union of the per-shard answers.

:class:`ParallelExecutor` runs that per-shard evaluation either

* **serially** in-process — each shard gets a
  :class:`~repro.query.engine.QueryEngine` sharing one
  :class:`~repro.query.cache.QueryCache`, whose keys already include the
  per-shard ``content_token``, so memoization works unchanged at shard
  granularity; or
* **in parallel** via a lazily spawned ``ProcessPoolExecutor`` — workers
  open their own memory-mapped shard handles (cached per process) and
  return plain results.

Both paths run a module-level *per-shard task* — patient ids
(:func:`_shard_patients`) or a masked cohort sketch
(:func:`_shard_sketch`) — and fold the per-shard results with a merge
function (sorted union or :func:`~repro.sketch.merge_sketches`).  The
tasks are plain functions, so they pickle by reference and never ship a
memory-mapped store into a pool payload.

The executor is *self-healing*, at two granularities:

* **Per shard**: a failed or timed-out shard evaluation is retried
  in-process with the seeded backoff of
  :class:`~repro.resilience.retry.RetryPolicy`; a per-shard
  :class:`~repro.resilience.circuit.CircuitBreaker` tracks consecutive
  failures.  Definite damage (checksum/format errors) skips the retries.
  When the store was opened with ``on_damage="quarantine"``, an
  exhausted shard is quarantined at query time and the query completes
  degraded; under the strict default the error propagates.
* **Per pool**: pool-infrastructure failures (a dead worker, an
  unpicklable environment, fork refusal) fall back to the serial path
  for the failing query, then *probe* parallel again on the next query,
  rebuilding the pool — each probe spends one rebuild from
  ``ShardConfig.max_pool_rebuilds``.  Only once that budget is
  exhausted does the serial fallback become permanent.

Worker count comes from :class:`repro.config.ShardConfig` (``None`` →
``min(4, cpu_count)``; ``<= 1`` never spawns a pool).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError

import numpy as np

from repro.config import DEFAULT_SEED, ShardConfig
from repro.errors import (
    DeadlineExceededError,
    ShardChecksumError,
    ShardFormatError,
    ShardStoreError,
)
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.faults import claim_worker_kill
from repro.resilience.retry import RetryPolicy
from repro.shard.store import ShardedEventStore
from repro.shard.writer import subset_store
from repro.sketch import build_sketch, merge_sketches

__all__ = ["ParallelExecutor"]

#: Per-worker-process cache of opened sharded stores, keyed by root path.
_WORKER_STORES: dict = {}
#: Per-worker-process query cache (shared across shards and queries).
_WORKER_CACHE = QueryCache()

#: Errors that mean "this shard's bytes are damaged" — retrying cannot
#: help, so the recovery path goes straight to quarantine-or-raise.
_DEFINITE_DAMAGE = (ShardChecksumError, ShardFormatError)


def _shard_patients(sharded, index: int, expr, cache) -> np.ndarray:
    """Per-shard task: sorted ids of shard ``index``'s matching patients."""
    engine = QueryEngine(sharded.shard(index), cache=cache)
    return np.asarray(engine.patients(expr))


def _shard_sketch(sharded, index: int, expr, cache):
    """Per-shard task: the sketch of shard ``index``'s matching patients.

    ``expr=None`` is the whole-shard sketch (pure sidecar fold — no
    rows touched).  With a query, the shard evaluates it locally and
    sketches only the matching patients' rows — the *refinement* step
    of aggregate-first rendering.  A :class:`CohortSketch` is a plain
    bundle of numpy arrays, so it pickles back to the parent cheaply
    (kilobytes, independent of shard row count).
    """
    if expr is None:
        return sharded.shard_sketch(index)
    pids = _shard_patients(sharded, index, expr, cache)
    return build_sketch(subset_store(sharded.shard(index), pids))


def _run_shard(task, path: str, index: int, expr, verify_checksums: bool,
               revision: int, expires_at: float | None):
    """Worker entry point: run one per-shard ``task`` on one shard.

    ``expires_at`` is the request's absolute ``time.monotonic()``
    expiry (``None`` = no deadline).  A task that leaves the pool's
    call queue after it — where ``future.cancel()`` cannot reach it —
    belongs to a request that has already been answered (a 503), so
    it raises :class:`~repro.errors.DeadlineExceededError` without
    running, instead of delaying the next request behind it.

    ``revision`` is the parent's view of the store's root-manifest
    revision.  A cached worker store on a different revision is stale —
    a delta append or compaction moved the manifest under it — and is
    reopened, so a query never mixes one worker's pre-append shard view
    with another's post-append view.  One superseded segment generation
    is retained through a compaction
    (:data:`~repro.shard.delta.KEEP_GENERATIONS`), so a worker one
    revision behind still resolves; further behind, the failure
    surfaces as an ordinary shard error and the parent's recovery path
    re-evaluates serially against its own manifest.  Every segment open
    checks the root manifest's content token, so a worker never serves
    a segment its manifest does not describe.

    Returns ``(result, replica_failovers)`` — the second element is how
    many replica failovers the worker's store performed for this call,
    so the parent can aggregate failovers that would otherwise be
    invisible inside worker processes.
    """
    if claim_worker_kill():
        os._exit(43)  # simulate a hard worker crash (chaos harness)
    if expires_at is not None and time.monotonic() > expires_at:
        raise DeadlineExceededError(
            "shard task skipped: its request deadline had passed"
        )
    sharded = _WORKER_STORES.get(path)
    if sharded is None or sharded.revision != revision:
        sharded = ShardedEventStore(
            path, config=ShardConfig(verify_checksums=verify_checksums)
        )
        _WORKER_STORES[path] = sharded
    before = sharded.counters.get("replica_failovers", 0)
    result = task(sharded, index, expr, _WORKER_CACHE)
    return result, sharded.counters.get("replica_failovers", 0) - before


def _merge_patient_results(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted union of disjoint per-shard patient-id arrays."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    merged = np.sort(np.concatenate(parts))
    return merged.astype(np.int64, copy=False)


class ParallelExecutor:
    """Evaluates queries shard-by-shard and merges the per-shard results.

    One executor is meant to live as long as its engine (the pool, the
    serial-path cache, the circuit breakers and the counters are all
    per-executor); call :meth:`close` (or use as a context manager) to
    reap worker processes.  A closed executor stays usable — the pool
    respawns lazily on the next parallel query.
    """

    def __init__(self, config: ShardConfig | None = None,
                 n_workers: int | None = None,
                 cache: QueryCache | None = None,
                 sleep=time.sleep, clock=time.monotonic) -> None:
        self.config = config or ShardConfig()
        self.n_workers = (self.config.resolved_workers()
                          if n_workers is None else max(1, int(n_workers)))
        self.cache = cache if cache is not None else QueryCache()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_failed = False   # last parallel attempt crashed the pool
        self._pool_broken = False   # rebuild budget exhausted: serial forever
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(DEFAULT_SEED)
        self._retry_policy = RetryPolicy(
            max_retries=self.config.shard_max_retries,
            backoff_base_s=0.01, backoff_max_s=0.25, jitter=0.5,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self.queries = 0
        self.sketch_queries = 0
        self.parallel_queries = 0
        self.serial_queries = 0
        self.pool_fallbacks = 0
        self.pool_failures = 0
        self.pool_rebuilds = 0
        self.shard_retries = 0
        self.query_time_quarantines = 0
        self.shards_scanned = 0
        self.replica_failovers = 0  # failovers observed in worker processes
        self.replica_advances = 0   # recovery-ladder preference rotations

    # -- execution -----------------------------------------------------------

    def patients(self, sharded: ShardedEventStore, expr,
                 cache: QueryCache | None = None,
                 deadline=None) -> np.ndarray:
        """Sorted patient ids matching ``expr`` across every serving shard.

        ``cache`` overrides the executor's serial-path result cache
        (e.g. the engine's own LRU); worker processes keep their own.

        ``deadline`` (a :class:`~repro.resilience.retry.Deadline`)
        bounds the *whole* scatter-gather: it is checked between shard
        evaluations, caps how long a parallel result is awaited, and
        aborts per-shard recovery retries — an overrun raises
        :class:`~repro.errors.DeadlineExceededError` to the caller (the
        serving tier's 503) instead of queueing behind a stuck shard.
        """
        return self._scatter(sharded, _shard_patients,
                             _merge_patient_results, expr, cache, deadline)

    def sketch_shards(self, sharded: ShardedEventStore, expr,
                      cache: QueryCache | None = None, deadline=None):
        """A query-masked :class:`CohortSketch`, folded across shards.

        Each shard evaluates ``expr`` locally and sketches only its
        matching patients (``expr=None`` folds the persisted sidecars
        instead); per-shard sketches merge associatively, so the result
        equals the sketch of the global cohort.  Shares the pool,
        fallback ladder, per-shard recovery and deadline semantics of
        :meth:`patients`.
        """
        self.sketch_queries += 1
        return self._scatter(sharded, _shard_sketch, merge_sketches, expr,
                             cache, deadline)

    def _scatter(self, sharded: ShardedEventStore, task, merge, expr,
                 cache: QueryCache | None, deadline):
        """Run ``task`` on every serving shard and ``merge`` the results."""
        self.queries += 1
        self.shards_scanned += len(sharded.active_indices())
        self._check_request_deadline(deadline)
        cache = cache if cache is not None else self.cache
        if self.n_workers > 1 and sharded.n_shards > 1 \
                and not self._pool_broken:
            if self._pool_failed:
                # Probing parallel again after a pool crash costs one
                # rebuild from the budget; past the budget, serial is
                # permanent — a pool that keeps dying is not coming back.
                if self.pool_rebuilds >= self.config.max_pool_rebuilds:
                    self._pool_broken = True
                else:
                    self.pool_rebuilds += 1
                    self._pool_failed = False
            if not self._pool_failed and not self._pool_broken:
                try:
                    return self._parallel(sharded, task, merge, expr, cache,
                                          deadline)
                except (BrokenProcessPool, PicklingError, OSError):
                    # Pool infrastructure failed (worker died mid-query,
                    # environment not picklable, fork refused): finish
                    # this query serially and probe again next time.
                    self.pool_failures += 1
                    self.pool_fallbacks += 1
                    self._pool_failed = True
                    self._shutdown_pool()
        return self._serial(sharded, task, merge, expr, cache, deadline)

    def _check_request_deadline(self, deadline) -> None:
        """Raise when the caller's request budget is already spent.

        Deliberately *outside* the per-shard try blocks: a request-level
        deadline overrun must propagate to the caller, never be retried
        or quarantined like a shard failure.
        """
        if deadline is not None and deadline.expired():
            raise DeadlineExceededError(
                "scatter-gather query exceeded its request deadline"
            )

    def _serial(self, sharded: ShardedEventStore, task, merge, expr,
                cache: QueryCache, deadline):
        self.serial_queries += 1
        parts = []
        for index in sharded.active_indices():
            self._check_request_deadline(deadline)
            try:
                part = self._run_local(task, sharded, index, expr, cache)
            except (ShardStoreError, DeadlineExceededError, OSError) as exc:
                part = self._recover_shard(task, sharded, index, expr, cache,
                                           exc, deadline)
            if part is not None:
                parts.append(part)
        return merge(parts)

    def _run_local(self, task, sharded: ShardedEventStore, index: int, expr,
                   cache: QueryCache):
        """Run one per-shard task in this process (serial path, retries)."""
        return task(sharded, index, expr, cache)

    def _parallel(self, sharded: ShardedEventStore, task, merge, expr,
                  cache: QueryCache, deadline):
        pool = self._ensure_pool()
        expires_at = (None if deadline is None
                      else time.monotonic() + deadline.remaining())
        futures = [
            (index,
             pool.submit(_run_shard, task, sharded.path, index, expr,
                         sharded.config.verify_checksums, sharded.revision,
                         expires_at))
            for index in sharded.active_indices()
        ]
        parts = []
        try:
            for index, future in futures:
                self._check_request_deadline(deadline)
                timeout = self.config.shard_timeout_s
                if deadline is not None:
                    remaining = max(0.001, deadline.remaining())
                    timeout = (remaining if timeout is None
                               else min(timeout, remaining))
                try:
                    part, failed_over = future.result(timeout=timeout)
                    self.replica_failovers += int(failed_over)
                    self._breaker(sharded, index).record_success()
                # A worker's deadline skip (DeadlineExceededError) is
                # the request's overrun, never a shard failure: it is
                # not caught here, so it bypasses the recovery path.
                except (_FuturesTimeout, ShardStoreError) as exc:
                    if isinstance(exc, _FuturesTimeout):
                        # A spent request budget goes to the caller (a
                        # 503 upstream).  Otherwise the worker is still
                        # grinding past its per-shard budget; the query
                        # cannot wait, so the shard is re-evaluated
                        # in-process through the recovery path.
                        self._check_request_deadline(deadline)
                        exc = DeadlineExceededError(
                            f"shard {sharded.shard_entries[index]['name']} "
                            f"exceeded the {self.config.shard_timeout_s}s "
                            f"per-shard budget"
                        )
                    part = self._recover_shard(task, sharded, index, expr,
                                               cache, exc, deadline)
                if part is not None:
                    parts.append(part)
        finally:
            # A scatter that ends early (spent deadline, strict-policy
            # shard error, broken pool) must not leave its queued tasks
            # ahead of the next request.  Tasks already in the pool's
            # call queue cannot be cancelled: past the request's expiry
            # they skip themselves (see _run_shard).  Results of tasks
            # a worker already runs are discarded.
            for __, future in futures:
                future.cancel()
        self.parallel_queries += 1
        return merge(parts)

    # -- per-shard recovery --------------------------------------------------

    def _breaker(self, sharded: ShardedEventStore,
                 index: int) -> CircuitBreaker:
        name = str(sharded.shard_entries[index]["name"])
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                failure_threshold=self.config.shard_failure_threshold,
                recovery_timeout_s=30.0,
                clock=self._clock,
            )
            self._breakers[name] = breaker
        return breaker

    def _recover_shard(self, task, sharded: ShardedEventStore, index: int,
                       expr, cache: QueryCache, exc: Exception,
                       deadline=None):
        """One shard failed: retry in-process, then quarantine or raise.

        Returns the task's result on a successful retry, ``None`` when
        the shard was quarantined (the query completes degraded), and
        re-raises when the store's policy is the strict default
        ``on_damage="fail"``.  A spent request ``deadline`` aborts the
        retry schedule immediately — recovery must not spend wall clock
        the request no longer has.

        On a replicated store, a *transient* failure (timeout, open
        error) first rotates the shard's preferred replica — a worker
        stuck on one copy's bad disk retries against a peer rather than
        the same bytes.  Definite damage skips the rotation: the open
        path already tried every replica before raising, so the shard
        has zero healthy copies.
        """
        breaker = self._breaker(sharded, index)
        breaker.record_failure(str(exc))
        definite = isinstance(exc, _DEFINITE_DAMAGE)
        if not definite:
            if sharded.advance_replica(index):
                self.replica_advances += 1
            for attempt in range(self._retry_policy.max_retries):
                self._check_request_deadline(deadline)
                self.shard_retries += 1
                self._sleep(self._retry_policy.delay_for(attempt, self._rng))
                try:
                    part = self._run_local(task, sharded, index, expr, cache)
                except (ShardStoreError, DeadlineExceededError,
                        OSError) as retry_exc:
                    breaker.record_failure(str(retry_exc))
                    exc = retry_exc
                    if isinstance(retry_exc, _DEFINITE_DAMAGE):
                        definite = True
                        break
                else:
                    breaker.record_success()
                    return part
        if (definite or not breaker.allow()) \
                and sharded.config.on_damage == "quarantine":
            sharded.quarantine_shard(index, type(exc).__name__, str(exc))
            self.query_time_quarantines += 1
            return None
        raise exc

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            kwargs = {}
            if "fork" in multiprocessing.get_all_start_methods():
                # Fork lets workers inherit the parent's imports and
                # page cache; spawn works too, just with a colder start.
                kwargs["mp_context"] = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, **kwargs
            )
        return self._pool

    # -- lifecycle -----------------------------------------------------------

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Reap worker processes (idempotent; the executor stays usable)."""
        self._shutdown_pool()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"parallel"`` or ``"serial"`` for the *next* query."""
        if self.n_workers <= 1 or self._pool_broken:
            return "serial"
        if self._pool_failed \
                and self.pool_rebuilds >= self.config.max_pool_rebuilds:
            return "serial"
        return "parallel"

    def open_breakers(self) -> dict[str, str]:
        """Shard name -> breaker state, for every non-closed breaker."""
        return {
            name: breaker.state
            for name, breaker in sorted(self._breakers.items())
            if breaker.state != "closed"
        }

    def stats_dict(self) -> dict:
        """JSON-ready counters (surfaced by the webapp's ``/stats``)."""
        return {
            "mode": self.mode,
            "workers": self.n_workers,
            "queries": self.queries,
            "sketch_queries": self.sketch_queries,
            "parallel_queries": self.parallel_queries,
            "serial_queries": self.serial_queries,
            "pool_fallbacks": self.pool_fallbacks,
            "pool_failures": self.pool_failures,
            "pool_rebuilds": self.pool_rebuilds,
            "max_pool_rebuilds": self.config.max_pool_rebuilds,
            "shard_retries": self.shard_retries,
            "query_time_quarantines": self.query_time_quarantines,
            "open_breakers": self.open_breakers(),
            "shards_scanned": self.shards_scanned,
            "replica_failovers": self.replica_failovers,
            "replica_advances": self.replica_advances,
        }

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor({self.mode}, workers={self.n_workers}, "
            f"{self.queries} queries)"
        )
