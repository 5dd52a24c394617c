"""Self-healing executor: pool probes, per-shard retries, breakers.

Every recovery decision in :class:`~repro.shard.executor.ParallelExecutor`
is deterministic and observable, so these tests drive it with stubbed
failure injections (a ``_parallel`` that raises ``BrokenProcessPool``, a
``_run_local`` that fails N times, a recorded ``sleep``) and assert the
exact state machine: fall back serially on a pool crash, probe parallel
again spending one rebuild per probe, go permanently serial only when
``max_pool_rebuilds`` is exhausted; retry transient shard failures with
seeded backoff, skip retries on definite damage, quarantine at query
time only when the policy allows and the evidence (definite damage or an
open breaker) demands it.  Pool-path edges run real workers: a typed
shard error raised in a worker must not break the pool, and a scatter
whose request deadline expired must neither start its queued per-shard
tasks nor count the overrun as a shard failure.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.config import ShardConfig
from repro.errors import (
    DeadlineExceededError,
    ShardChecksumError,
    ShardFormatError,
    ShardStoreError,
)
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.resilience.retry import Deadline
from repro.shard import ParallelExecutor, ShardedEventStore, write_sharded_store
from repro.shard import executor as executor_module
from repro.simulate.fast import generate_store_fast

N_SHARDS = 4

#: File the slowed per-shard task appends each call's start time to
#: (``time.monotonic()``, one per line); set before the pool forks, so
#: every worker inherits it.
_CALL_LOG = ""
_REAL_SHARD_PATIENTS = executor_module._shard_patients


def _slow_shard_patients(sharded, index, expr, cache):
    """The ids task, slowed to 0.25 s and logged (pickles by name)."""
    with open(_CALL_LOG, "a", encoding="utf-8") as log:
        log.write(f"{time.monotonic()!r}\n")
    time.sleep(0.25)
    return _REAL_SHARD_PATIENTS(sharded, index, expr, cache)


def _expired_scatter(path, log, monkeypatch) -> tuple[ParallelExecutor,
                                                      float]:
    """One slowed 2-worker scatter that overruns ``Deadline(0.3)``.

    Waits for the pool to drain every task it still held, and returns
    the executor plus the request's absolute ``time.monotonic()``
    expiry.
    """
    sharded = ShardedEventStore(path)
    log.write_text("")
    # Installed before the pool forks, so the workers run it too.
    monkeypatch.setattr(executor_module, "_shard_patients",
                        _slow_shard_patients)
    monkeypatch.setattr(f"{__name__}._CALL_LOG", str(log))
    with ParallelExecutor(config=ShardConfig(n_workers=2)) as executor:
        deadline = Deadline(0.3)
        expiry = time.monotonic() + deadline.remaining()
        with pytest.raises(DeadlineExceededError):
            executor.patients(sharded, parse_query("sex F"),
                              deadline=deadline)
        # Let every task still queued leave the pool: only the ones
        # that started before the expiry may have run.
        executor._pool.shutdown(wait=True)
    return executor, expiry


@pytest.fixture(scope="module")
def flat_store():
    store, __ = generate_store_fast(200, seed=17)
    return store


@pytest.fixture(scope="module")
def expr():
    return parse_query("concept T90 or sex F")


@pytest.fixture()
def root(flat_store, tmp_path):
    path = str(tmp_path / "recovery.shards")
    write_sharded_store(flat_store, path, n_shards=N_SHARDS)
    return path


def _executor(root_config=None, **kwargs) -> ParallelExecutor:
    sleeps: list[float] = []
    executor = ParallelExecutor(
        config=root_config or ShardConfig(**kwargs),
        sleep=sleeps.append,
    )
    executor._test_sleeps = sleeps
    return executor


class TestPoolSelfHealing:
    def _crashing(self, executor, fail_times: int):
        """Replace ``_parallel`` with a stub that crashes N times, then
        succeeds with a sentinel result."""
        calls = {"n": 0}
        sentinel = np.asarray([1, 2, 3], dtype=np.int64)

        def fake_parallel(sharded, task, merge, expr, cache, deadline):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise BrokenProcessPool("injected pool crash")
            executor.parallel_queries += 1
            return sentinel

        executor._parallel = fake_parallel
        return calls, sentinel

    def test_crash_falls_back_then_probe_succeeds(self, flat_store, root,
                                                  expr):
        sharded = ShardedEventStore(root)
        expected = np.asarray(QueryEngine(flat_store).patients(expr))
        executor = _executor(n_workers=2, max_pool_rebuilds=3)
        calls, sentinel = self._crashing(executor, fail_times=1)

        # Query 1: pool crashes, the query still completes serially with
        # the full, correct answer.
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        assert executor.pool_failures == 1
        assert executor.pool_fallbacks == 1
        assert executor.serial_queries == 1
        assert executor.mode == "parallel"  # a probe is still owed

        # Query 2: the probe spends one rebuild and sticks.
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), sentinel)
        assert executor.pool_rebuilds == 1
        assert executor.mode == "parallel"
        assert calls["n"] == 2

        # Query 3: healthy parallel again, no further rebuild spent.
        executor.patients(sharded, expr)
        assert executor.pool_rebuilds == 1
        assert executor.stats_dict()["parallel_queries"] == 2

    def test_budget_exhaustion_goes_permanently_serial(self, flat_store,
                                                       root, expr):
        sharded = ShardedEventStore(root)
        expected = np.asarray(QueryEngine(flat_store).patients(expr))
        executor = _executor(n_workers=2, max_pool_rebuilds=2)
        calls, __ = self._crashing(executor, fail_times=100)

        # Crash 1 + two probe crashes exhaust the rebuild budget.
        for __ in range(3):
            got = executor.patients(sharded, expr)
            assert np.array_equal(np.asarray(got), expected)
        assert executor.pool_failures == 3
        assert executor.pool_rebuilds == 2
        # The budget is spent: mode already reports serial for the next
        # query, even before the permanent flag is set by running one.
        assert executor.mode == "serial"

        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        assert executor.mode == "serial"
        assert calls["n"] == 3  # the broken pool is never attempted again
        executor.patients(sharded, expr)
        assert calls["n"] == 3
        stats = executor.stats_dict()
        assert stats["mode"] == "serial"
        assert stats["pool_rebuilds"] == stats["max_pool_rebuilds"] == 2

    def test_close_is_idempotent_and_pool_respawns(self, flat_store, root,
                                                   expr):
        sharded = ShardedEventStore(root)
        expected = np.asarray(QueryEngine(flat_store).patients(expr))
        with ParallelExecutor(config=ShardConfig(n_workers=2)) as executor:
            got = executor.patients(sharded, expr)
            assert np.array_equal(np.asarray(got), expected)
            assert executor.parallel_queries == 1
            executor.close()
            executor.close()  # idempotent
            # A closed executor stays usable: the pool respawns lazily.
            got = executor.patients(sharded, expr)
            assert np.array_equal(np.asarray(got), expected)
            assert executor.parallel_queries == 2
            assert executor.mode == "parallel"
            assert executor.pool_failures == 0


class TestShardRecovery:
    def _failing_eval(self, executor, bad_index: int, fail_times: int,
                      exc_factory):
        """``_run_local`` that fails ``fail_times`` times on one shard."""
        real = executor._run_local
        calls = {"n": 0}

        def flaky(task, sharded, index, expr, cache):
            if index == bad_index:
                calls["n"] += 1
                if calls["n"] <= fail_times:
                    raise exc_factory()
            return real(task, sharded, index, expr, cache)

        executor._run_local = flaky
        return calls

    @pytest.mark.parametrize("exc_factory", [
        lambda: ShardStoreError("transient shard I/O failure"),
        lambda: DeadlineExceededError("shard exceeded the per-shard budget"),
    ])
    def test_transient_failure_retried_to_success(self, flat_store, root,
                                                  expr, exc_factory):
        sharded = ShardedEventStore(root)
        expected = np.asarray(QueryEngine(flat_store).patients(expr))
        executor = _executor(n_workers=1, shard_max_retries=2)
        self._failing_eval(executor, bad_index=1, fail_times=2,
                           exc_factory=exc_factory)
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        assert executor.shard_retries == 2
        assert len(executor._test_sleeps) == 2
        assert all(delay >= 0 for delay in executor._test_sleeps)
        # The eventual success closed the breaker again.
        assert executor.open_breakers() == {}
        assert executor.query_time_quarantines == 0

    def test_exhausted_transient_raises_under_fail_policy(self, root, expr):
        sharded = ShardedEventStore(root)  # on_damage="fail" default
        executor = _executor(n_workers=1, shard_max_retries=2,
                             shard_failure_threshold=3)
        self._failing_eval(
            executor, bad_index=1, fail_times=100,
            exc_factory=lambda: ShardStoreError("persistent failure"),
        )
        with pytest.raises(ShardStoreError):
            executor.patients(sharded, expr)
        assert executor.shard_retries == 2
        assert executor.open_breakers() == {"shard-0001": "open"}
        assert executor.query_time_quarantines == 0

    def test_open_breaker_quarantines_under_quarantine_policy(
            self, flat_store, root, expr):
        sharded = ShardedEventStore(
            root, config=ShardConfig(on_damage="quarantine"))
        executor = _executor(
            root_config=ShardConfig(on_damage="quarantine", n_workers=1,
                                    shard_max_retries=2,
                                    shard_failure_threshold=3))
        self._failing_eval(
            executor, bad_index=1, fail_times=100,
            exc_factory=lambda: ShardStoreError("persistent failure"),
        )
        got = executor.patients(sharded, expr)
        # 1 initial failure + 2 retries == the breaker threshold: the
        # shard is quarantined and the query completes degraded.
        assert executor.query_time_quarantines == 1
        degradation = sharded.degradation()
        assert degradation.quarantined_shards == ("shard-0001",)
        expected = np.intersect1d(
            np.asarray(QueryEngine(flat_store).patients(expr)),
            sharded.patient_ids,
        )
        assert np.array_equal(np.asarray(got), expected)

    def test_closed_breaker_raises_even_under_quarantine_policy(self, root,
                                                                expr):
        # One failure + one retry leaves the breaker below threshold:
        # transient trouble is not evidence enough to drop a shard.
        executor = _executor(
            root_config=ShardConfig(on_damage="quarantine", n_workers=1,
                                    shard_max_retries=1,
                                    shard_failure_threshold=3))
        sharded = ShardedEventStore(
            root, config=ShardConfig(on_damage="quarantine"))
        self._failing_eval(
            executor, bad_index=2, fail_times=100,
            exc_factory=lambda: ShardStoreError("flaky but unproven"),
        )
        with pytest.raises(ShardStoreError):
            executor.patients(sharded, expr)
        assert executor.query_time_quarantines == 0
        assert not sharded.degradation().is_degraded

    def test_definite_damage_skips_retries(self, root, expr):
        sharded = ShardedEventStore(
            root, config=ShardConfig(on_damage="quarantine"))
        executor = _executor(
            root_config=ShardConfig(on_damage="quarantine", n_workers=1))
        self._failing_eval(
            executor, bad_index=0, fail_times=100,
            exc_factory=lambda: ShardChecksumError(
                "shard-0000", "patient", "aa", "bb"),
        )
        executor.patients(sharded, expr)
        assert executor.shard_retries == 0
        assert executor._test_sleeps == []
        assert executor.query_time_quarantines == 1
        assert sharded.degradation().quarantined_shards == ("shard-0000",)

    def test_genuine_post_open_corruption_quarantined(self, flat_store,
                                                      root, expr):
        # No stubs: the store opens clean, then a byte rots underneath
        # it.  The lazy shard open detects the checksum mismatch and the
        # executor quarantines the shard mid-query.
        sharded = ShardedEventStore(
            root, config=ShardConfig(on_damage="quarantine"))
        assert not sharded.degradation().is_degraded
        target = os.path.join(root, "shard-0002", "patient.npy")
        with open(target, "r+b") as f:
            f.seek(os.path.getsize(target) - 1)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0xFF]))
        executor = _executor(
            root_config=ShardConfig(on_damage="quarantine", n_workers=1))
        got = executor.patients(sharded, expr)
        assert executor.query_time_quarantines == 1
        degradation = sharded.degradation()
        assert degradation.quarantined_shards == ("shard-0002",)
        assert "checksum mismatch" in degradation.reasons[0]
        expected = np.intersect1d(
            np.asarray(QueryEngine(flat_store).patients(expr)),
            sharded.patient_ids,
        )
        assert np.array_equal(np.asarray(got), expected)


class TestPoolPathEdges:
    def test_worker_raised_shard_error_keeps_the_pool(self, root, expr):
        # A strict store loses a shard directory after open.  Workers
        # hit the damage and raise ShardFormatError; the typed error
        # must reach the parent intact rather than break the pool.
        sharded = ShardedEventStore(root)
        shutil.rmtree(os.path.join(root, "shard-0002"))
        with ParallelExecutor(config=ShardConfig(n_workers=2)) as executor:
            for __ in range(5):
                with pytest.raises(ShardFormatError):
                    executor.patients(sharded, expr)
            assert executor.pool_failures == 0
            assert executor.pool_rebuilds == 0
            assert executor.mode == "parallel"

    def test_deadline_expired_scatter_cancels_queued_tasks(
            self, flat_store, tmp_path, monkeypatch):
        path = str(tmp_path / "slow.shards")
        write_sharded_store(flat_store, path, n_shards=8)
        log = tmp_path / "calls"
        __, expiry = _expired_scatter(path, log, monkeypatch)
        starts = [float(line) for line in log.read_text().split()]
        assert 0 < len(starts) < 8
        # Tasks that were already in the pool's call queue when the
        # request gave up skip themselves instead of running late.
        late = [round(start - expiry, 3) for start in starts
                if start > expiry + 0.05]
        assert not late, f"tasks started {late} s after the expiry"

    def test_deadline_expired_scatter_is_no_shard_failure(
            self, flat_store, tmp_path, monkeypatch):
        path = str(tmp_path / "slow.shards")
        write_sharded_store(flat_store, path, n_shards=4,
                            config=ShardConfig(replication=2))
        executor, __ = _expired_scatter(path, tmp_path / "calls",
                                        monkeypatch)
        assert executor.open_breakers() == {}
        stats = executor.stats_dict()
        assert stats["replica_advances"] == 0
        assert stats["shard_retries"] == 0
        assert stats["query_time_quarantines"] == 0
