"""Library-wide configuration and deterministic seeding helpers.

The paper's tool pre-loads all content to be visualized or queried into an
in-memory data structure (Section IV).  We mirror that decision; the knobs
here bound how much is materialized eagerly and make every stochastic
component reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The seed used by examples and benchmarks unless overridden.
DEFAULT_SEED = 20160516  # ICDE 2016 conference week.

#: Shneiderman's bound on mouse/typing response time, in seconds (Section II-C2).
RESPONSE_TIME_BOUND_S = 0.1


def rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy random generator for the given seed.

    Passing ``None`` uses :data:`DEFAULT_SEED` so that *every* path through
    the library is reproducible unless the caller explicitly asks for
    entropy by supplying a seed of their own.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from a parent seed.

    Used by the simulator so that per-patient generation is independent of
    generation order (important for parallel or partial generation).
    """
    seq = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(count)]


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for fault-tolerant ingestion (:mod:`repro.resilience`).

    Attributes:
        max_retries: how many times a transient source-read failure is
            retried before it counts as exhausted.
        backoff_base_s: first retry delay; doubles per attempt.
        backoff_max_s: ceiling on a single retry delay.
        jitter: fraction of each delay that is randomized (0 disables
            jitter, 1 randomizes the whole delay).  The jitter stream is
            seeded (``retry_seed``) so schedules are deterministic.
        retry_seed: seed for the jitter stream.
        read_deadline_s: optional wall-clock budget for reading one
            source end to end; retries never sleep past it.
        failure_threshold: consecutive read failures before a source's
            circuit breaker opens and the source is declared degraded.
        recovery_timeout_s: how long an open breaker waits before letting
            a half-open probe through.
        fail_fast: raise on the first degraded source instead of
            completing the integration with the remaining sources.
        max_failure_messages: cap on per-record failure messages kept in
            the report; excess failures are still *counted* (as
            ``failures_truncated``), never silently dropped.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.5
    retry_seed: int = DEFAULT_SEED
    read_deadline_s: float | None = None
    failure_threshold: int = 5
    recovery_timeout_s: float = 30.0
    fail_fast: bool = False
    max_failure_messages: int = 100


@dataclass(frozen=True)
class ShardConfig:
    """Tunables for the sharded on-disk store (:mod:`repro.shard`).

    Attributes:
        n_workers: processes used by the scatter-gather executor.
            ``None`` resolves to ``min(4, cpu_count)``; ``0`` or ``1``
            forces the serial in-process path (no pool is ever spawned).
        verify_checksums: verify every column file against its manifest
            checksum when a shard is first opened.  Turning this off
            skips the O(bytes) read per shard open (the segment's
            content token is still compared with the root manifest's);
            ``shard verify`` always checks regardless.
        on_damage: what a :class:`~repro.shard.store.ShardedEventStore`
            does with a shard that fails checksum/format verification.
            ``"fail"`` (default) raises, making the whole store
            unopenable — the strict mode.  ``"quarantine"`` moves the
            damaged segment aside into a ``quarantine/`` directory,
            appends a damage report to ``quarantine/damage.jsonl``,
            opens the store with the surviving shards, and marks every
            query result as degraded (see
            :class:`~repro.shard.store.QueryDegradation`).
        max_pool_rebuilds: how many times the scatter-gather executor
            rebuilds a crashed process pool over its lifetime before
            the serial fallback becomes permanent.  Each recovery probe
            after a pool failure spends one rebuild from this budget.
        shard_timeout_s: wall-clock budget for one shard's evaluation on
            the process-pool path (``None`` = unlimited).  An overrun is
            treated as a per-shard failure: retried, then circuit-broken.
        shard_max_retries: in-process retries for a failed per-shard
            evaluation (seeded exponential backoff via
            :class:`~repro.resilience.retry.RetryPolicy`).
        shard_failure_threshold: consecutive failures before one shard's
            query-time circuit breaker opens; an open breaker quarantines
            the shard under ``on_damage="quarantine"``.
        replication: replica copies (R) of every base/delta/compacted
            segment the writers land (``shard-0003/r0``, ``r1``, …).
            ``1`` keeps the legacy flat layout.  With R >= 2 the read
            path fails over to a healthy peer replica on checksum
            damage or open failure (exact answers, no degradation) and
            the scrubber (:mod:`repro.shard.scrub`) rebuilds damaged
            replicas from a token-verified peer.
        scrub_bytes_per_tick: byte budget one scrubber tick spends
            verifying column files before persisting its cursor and
            yielding; bounds the I/O a background scrub steals from
            query traffic.
        damage_log_max_bytes: size cap on the quarantine damage-report
            JSONL; when an append would exceed it the log rotates to a
            single ``.1`` generation so repeated scrub→quarantine
            cycles keep the newest evidence without unbounded growth.
    """

    n_workers: int | None = None
    verify_checksums: bool = True
    on_damage: str = "fail"
    max_pool_rebuilds: int = 3
    shard_timeout_s: float | None = None
    shard_max_retries: int = 2
    shard_failure_threshold: int = 3
    replication: int = 1
    scrub_bytes_per_tick: int = 32 * 1024 * 1024
    damage_log_max_bytes: int = 256 * 1024

    def resolved_workers(self) -> int:
        """The effective worker count (``None`` -> ``min(4, cpus)``)."""
        if self.n_workers is None:
            import os

            return max(1, min(4, os.cpu_count() or 1))
        return max(1, int(self.n_workers))


@dataclass(frozen=True)
class ServingConfig:
    """Tunables for the production serving tier (:mod:`repro.serving`).

    Attributes:
        workers: pre-forked worker processes sharing one listening
            socket (``1`` serves in-process, no fork).
        max_inflight: admission-control bound on concurrently executing
            requests *per worker*.  Requests beyond it are shed with
            ``429 Retry-After`` (or served from the HTTP response cache
            when an identical rendering is already resident) instead of
            queueing.  ``None`` disables admission control.
        rate_limit_rps: per-client token-bucket refill rate in requests
            per second (``None`` disables rate limiting).
        rate_limit_burst: token-bucket capacity — how many requests one
            client may burst before the refill rate applies.
        request_deadline_s: wall-clock budget per request; the deadline
            is threaded into query execution (``503`` on overrun).
        degraded_mode: ``"serve"`` answers with a degradation banner
            while sources/shards are missing; ``"fail"`` turns every
            non-health route into a 503.
        retry_after_s: the ``Retry-After`` hint attached to shed
            responses.
        gzip_min_bytes: smallest body worth gzip-encoding when the
            client sends ``Accept-Encoding: gzip``.
        response_cache_entries: LRU entry bound of the HTTP response
            cache (rendered bodies keyed by ``ETag``).
        response_cache_bytes: LRU payload-byte bound of the same cache.
        ready_high_water: inflight fraction of ``max_inflight`` at which
            ``/readyz`` starts answering 503 so a load balancer drains
            the instance before requests are actually shed.
        max_pending_deltas: compaction-lag bound for ``/readyz``: when a
            sharded store has more than this many pending delta
            segments awaiting compaction, readiness answers 503 so the
            balancer sheds load until ``shard compact`` catches up
            (``None`` disables the check; appends keep working either
            way).
        debug_routes: expose ``/debug/sleep?s=…`` (bounded busy-wait)
            for overload tests and the serving benchmark harness.
    """

    workers: int = 1
    max_inflight: int | None = 64
    rate_limit_rps: float | None = None
    rate_limit_burst: int = 20
    request_deadline_s: float | None = None
    degraded_mode: str = "serve"
    retry_after_s: float = 1.0
    gzip_min_bytes: int = 1024
    response_cache_entries: int = 128
    response_cache_bytes: int = 32 * 1024 * 1024
    ready_high_water: float = 0.8
    max_pending_deltas: int | None = None
    debug_routes: bool = False

    def __post_init__(self) -> None:
        if self.degraded_mode not in ("serve", "fail"):
            raise ValueError(
                f"degraded_mode must be 'serve' or 'fail', "
                f"got {self.degraded_mode!r}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None, "
                f"got {self.max_inflight}"
            )
        if not 0.0 < self.ready_high_water <= 1.0:
            raise ValueError(
                f"ready_high_water must be in (0, 1], "
                f"got {self.ready_high_water}"
            )


@dataclass(frozen=True)
class WorkbenchConfig:
    """Tunables for the :class:`repro.workbench.Workbench` facade.

    Attributes:
        max_drawn_histories: upper bound on the number of history rows a
            single timeline rendering will materialize; beyond this the
            view samples (the paper notes the tool "can be challenging to
            use for very large data sets").
        analyze_queries: gate every query through the static analyzer
            (:mod:`repro.query.analyze`); error-severity findings are
            refused with :class:`~repro.errors.QueryAnalysisError`
            before any evaluation happens.
        query_cache_entries: LRU entry bound of the per-workbench query
            result cache.
        query_cache_bytes: LRU payload-byte bound of the same cache
            (event masks on paper-scale stores are megabytes each).
        drilldown_rows: cohort-size threshold for the aggregate-first
            views (:meth:`repro.workbench.Workbench.cohort_density`):
            at or below this many patients the view drills down to the
            per-patient rendering; above it only sketch folds are
            touched and no rows materialize.
    """

    max_drawn_histories: int = 20_000
    drilldown_rows: int = 512
    analyze_queries: bool = False
    query_cache_entries: int = 512
    query_cache_bytes: int = 256 * 1024 * 1024
