"""Crash matrix: kill append/compaction at *every* durable-write step.

The incremental-ingestion protocol claims each multi-step operation is
atomic at its single root-manifest replace: a crash at any earlier
fsync/``os.replace`` boundary leaves the store exactly in its
pre-operation state (plus harmless orphan directories), and a crash at
any later boundary leaves it exactly in the post-operation state.  No
intermediate state is ever observable, no delta event is ever lost or
duplicated.

Rather than hand-pick "interesting" crash sites, the matrix first runs
each operation under :class:`~repro.resilience.faults.count_crashpoints`
to enumerate every instrumented boundary, then re-runs it once per
boundary under :class:`~repro.resilience.faults.crash_at` and checks
the reopened store with the strict (non-quarantining) config:

* it opens — no checksum or format error;
* ``fsck`` is clean (orphans are reported, never failures);
* its effective event content equals the pre- or the post-state;
* if pre, simply re-running the operation reaches the post-state.

A final test drives concurrent readers — fresh opens and a warmed
process pool — through a compaction install and asserts every observed
``content_token`` is the pre- or post-token (never a torn hybrid) and
every query answer stays correct.
"""

from __future__ import annotations

import shutil
import threading

import numpy as np
import pytest

from repro.errors import SimulatedCrashError
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.resilience.faults import count_crashpoints, crash_at
from repro.shard import (
    Compactor,
    DeltaWriter,
    ParallelExecutor,
    ShardedEventStore,
    fsck_store,
    subset_store,
    write_sharded_store,
)
from repro.simulate.fast import generate_store_fast


@pytest.fixture(scope="module")
def population():
    store, __ = generate_store_fast(40, seed=5)
    return store


@pytest.fixture(scope="module")
def split(population):
    pids = np.sort(population.patient_ids)
    base = subset_store(population, pids[:30])
    batch = subset_store(population, pids[30:])
    return base, batch


@pytest.fixture(scope="module")
def template(split, tmp_path_factory):
    """A pristine 2-shard base store the matrix copies per crash step."""
    base, __ = split
    path = str(tmp_path_factory.mktemp("crash") / "base.shards")
    write_sharded_store(base, path, n_shards=2)
    return path


def _copy(template: str, tmp_path, name: str) -> str:
    dst = str(tmp_path / name)
    shutil.copytree(template, dst)
    return dst


def _effective(path: str):
    """The store's effective event content under the strict config."""
    return ShardedEventStore(path).materialize_store()


def _enumerate(op, path) -> int:
    """How many crash boundaries ``op`` passes on a throwaway copy."""
    with count_crashpoints() as trace:
        op(path)
    assert trace.labels, "operation passed no crash points"
    assert all(
        label.split(":", 1)[0] in ("fsync", "replace", "install", "installed")
        for label in trace.labels
    )
    return len(trace.labels)


def test_append_crash_matrix(template, split, tmp_path):
    __, batch = split
    pre = _effective(template)
    probe = _copy(template, tmp_path, "probe")
    DeltaWriter(probe).append(batch)
    post = _effective(probe)
    assert not pre.content_equal(post)

    n = _enumerate(lambda p: DeltaWriter(p).append(batch),
                   _copy(template, tmp_path, "count"))
    committed = 0
    for step in range(1, n + 1):
        work = _copy(template, tmp_path, f"append-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            DeltaWriter(work).append(batch)
        assert fsck_store(work).ok, f"fsck dirty after crash at step {step}"
        state = _effective(work)
        if state.content_equal(post):
            committed += 1
        else:
            # Pre-commit crash: nothing of the batch is visible, and a
            # plain retry (which sweeps the orphan delta dirs) lands it.
            assert state.content_equal(pre), (
                f"torn state after crash at step {step}"
            )
            DeltaWriter(work).append(batch)
            assert _effective(work).content_equal(post)
            assert fsck_store(work).ok
    # The commit point is the single root-manifest replace: exactly the
    # crash *after* it (and any later boundary) shows the post-state.
    assert committed >= 1
    assert committed < n


def test_compact_crash_matrix(template, split, tmp_path):
    __, batch = split
    appended = _copy(template, tmp_path, "appended")
    DeltaWriter(appended).append(batch)
    truth = _effective(appended)

    n = _enumerate(lambda p: Compactor(p).compact(),
                   _copy(appended, tmp_path, "count"))
    for step in range(1, n + 1):
        work = _copy(appended, tmp_path, f"compact-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            Compactor(work).compact()
        # Compaction never changes content, so *every* crash leaves the
        # effective view identical — only the physical layout may be in
        # the pre- or post-install arrangement.
        assert fsck_store(work).ok, f"fsck dirty after crash at step {step}"
        assert _effective(work).content_equal(truth), (
            f"content changed by crashed compaction at step {step}"
        )
        # Re-running the compactor finishes the job idempotently.
        Compactor(work).compact()
        reopened = ShardedEventStore(work)
        assert not reopened.has_pending_deltas
        assert reopened.materialize_store().content_equal(truth)
        assert fsck_store(work).ok


def test_append_then_compact_crash_chain(template, split, tmp_path):
    """A crash mid-append followed by a crash mid-compact still
    converges: retry append, retry compact, content intact."""
    __, batch = split
    work = _copy(template, tmp_path, "chain")
    probe = _copy(template, tmp_path, "chain-probe")
    DeltaWriter(probe).append(batch)
    truth = _effective(probe)

    with crash_at(3), pytest.raises(SimulatedCrashError):
        DeltaWriter(work).append(batch)
    DeltaWriter(work).append(batch)
    with crash_at(2), pytest.raises(SimulatedCrashError):
        Compactor(work).compact()
    Compactor(work).compact()
    store = ShardedEventStore(work)
    assert not store.has_pending_deltas
    assert store.materialize_store().content_equal(truth)
    assert fsck_store(work).ok


# -- sketch sidecars under crashes ---------------------------------------------


def _assert_sketches_truthful(path: str, context: str) -> None:
    """The reopened store's sketch fold must equal a fresh row sketch.

    This is the "never silently wrong" contract: a crash may leave a
    sidecar absent or stale (the read path rebuilds from columns), but
    folding must always reproduce the brute-force row recomputation.
    """
    from repro.sketch import build_sketch

    store = ShardedEventStore(path)
    folded = store.store_sketch()
    truth = build_sketch(store.materialize_store())
    assert folded.content_equal(truth), (
        f"sketch fold diverged from rows {context}"
    )
    statuses = {h["status"] for h in store.sketch_health()}
    assert statuses <= {"ok", "missing", "stale", "corrupt"}


def test_sketch_writes_pass_crash_boundaries(template, split, tmp_path):
    """Sidecar writes ride the same crashpoint() harness as every other
    durable store file — they are part of the enumerated matrix, not a
    side channel."""
    __, batch = split
    with count_crashpoints() as trace:
        DeltaWriter(_copy(template, tmp_path, "labels")).append(batch)
    assert any("sketch.npz" in label for label in trace.labels)
    with count_crashpoints() as trace:
        appended = _copy(template, tmp_path, "labels-compact")
        DeltaWriter(appended).append(batch)
        Compactor(appended).compact()
    assert any("sketch.npz" in label for label in trace.labels)


def test_append_crash_matrix_keeps_sketches_truthful(template, split,
                                                     tmp_path):
    __, batch = split
    n = _enumerate(lambda p: DeltaWriter(p).append(batch),
                   _copy(template, tmp_path, "sk-count"))
    for step in range(1, n + 1):
        work = _copy(template, tmp_path, f"sk-append-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            DeltaWriter(work).append(batch)
        _assert_sketches_truthful(work, f"after append crash at step {step}")
        # Rebuilding sidecars restores full health without content change.
        store = ShardedEventStore(work)
        store.rebuild_sketches()
        assert all(h["status"] == "ok" for h in store.sketch_health())
        _assert_sketches_truthful(work, f"after rebuild at step {step}")


def test_compact_crash_matrix_keeps_sketches_truthful(template, split,
                                                      tmp_path):
    __, batch = split
    appended = _copy(template, tmp_path, "sk-appended")
    DeltaWriter(appended).append(batch)
    n = _enumerate(lambda p: Compactor(p).compact(),
                   _copy(appended, tmp_path, "sk-count2"))
    for step in range(1, n + 1):
        work = _copy(appended, tmp_path, f"sk-compact-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            Compactor(work).compact()
        _assert_sketches_truthful(work, f"after compact crash at step {step}")
        # Finishing the compaction leaves sidecar-only folds exact.
        Compactor(work).compact()
        store = ShardedEventStore(work)
        store.rebuild_sketches()
        assert all(h["status"] == "ok" for h in store.sketch_health())
        _assert_sketches_truthful(work, f"after recompact at step {step}")


# -- concurrent readers through a compaction install ---------------------------


def test_concurrent_reads_see_pre_or_post_never_torn(tmp_path):
    population, __ = generate_store_fast(120, seed=9)
    pids = np.sort(population.patient_ids)
    base = subset_store(population, pids[:90])
    path = str(tmp_path / "live.shards")
    write_sharded_store(base, path, n_shards=4)
    writer = DeltaWriter(path)
    for lo in range(90, 120, 10):
        writer.append(subset_store(population, pids[lo:lo + 10]))

    query = parse_query("sex F or sex M")
    flat = QueryEngine(population)
    expected = flat.patients(query)
    pre_token = ShardedEventStore(path).content_token()

    tokens_seen: set[str] = set()
    failures: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            snapshot = ShardedEventStore(path)
            # Per-open token snapshot: whatever revision this reader
            # caught, its token and its answers must be consistent.
            tokens_seen.add(snapshot.content_token())
            got = QueryEngine(snapshot).patients(query)
            if not np.array_equal(got, expected):
                failures.append(
                    f"query returned {len(got)} of {len(expected)} ids"
                )
                return

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        Compactor(path).compact()
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    post_token = ShardedEventStore(path).content_token()
    assert post_token != pre_token
    assert not failures
    assert tokens_seen <= {pre_token, post_token}, (
        f"torn token observed: {tokens_seen - {pre_token, post_token}}"
    )


def test_warmed_pool_survives_append_and_compact(tmp_path):
    """Pool workers cache per-path stores; the revision handshake must
    reopen them after an append or a compaction install."""
    population, __ = generate_store_fast(60, seed=21)
    pids = np.sort(population.patient_ids)
    base = subset_store(population, pids[:45])
    batch = subset_store(population, pids[45:])
    path = str(tmp_path / "pool.shards")
    write_sharded_store(base, path, n_shards=2)

    query = parse_query("sex F or sex M")
    sharded = ShardedEventStore(path)
    with ParallelExecutor(n_workers=2) as executor:
        engine = QueryEngine(sharded, executor=executor)
        before = engine.patients(query)
        assert len(before) == base.n_patients

        DeltaWriter(path).append(batch)
        assert sharded.refresh()
        after_append = engine.patients(query)
        assert len(after_append) == population.n_patients

        Compactor(path).compact()
        assert sharded.refresh()
        after_compact = engine.patients(query)
        assert np.array_equal(after_compact, after_append)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
