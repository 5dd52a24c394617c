"""Differential harness: incremental delta ingestion ≡ full rebuild.

Delta-shard ingestion is only admissible if *how* events arrived is
invisible to queries: a base store plus ``k`` appended batches must
answer every query the planner can express with the bit-identical
patient-id array a store rebuilt from scratch over the union returns.
This suite re-uses the seeded 17-node AST generator from
``tests/test_query_planner_property.py`` and proves that equivalence
for k ∈ {0, 1, 3} appended batches on both hash and range
partitioning, plus the edge cases the format contract calls out:
empty batches (a durable no-op), batches landing on a single shard,
last-write-wins restatement (payload replacement, demographics,
within-batch duplicates), and ``merge_stores`` over a store that still
has pending deltas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EventModelError
from repro.events.store import EventStore
from repro.io import merge_stores
from repro.query.engine import QueryEngine
from repro.shard import (
    Compactor,
    DeltaWriter,
    ShardedEventStore,
    fsck_store,
    subset_store,
    write_sharded_store,
)
from repro.simulate.fast import generate_store_fast
from tests.test_query_planner_property import _generated_corpus
from repro.workbench import Workbench

N_SHARDS = 4


@pytest.fixture(scope="module")
def union_store():
    """The ground-truth population every incremental path must equal."""
    store, __ = generate_store_fast(250, seed=11)
    return store


def _split(union: EventStore, n_batches: int):
    """Split the union into a base store plus ``n_batches`` batches.

    Patients are disjoint: the base keeps most of the population and
    each batch carries a deterministic slice of "newly arrived"
    patients, the way nightly registry extracts land in production.
    """
    pids = np.sort(union.patient_ids)
    if n_batches == 0:
        return subset_store(union, pids), []
    per_batch = max(1, len(pids) // 10)
    cut = len(pids) - per_batch * n_batches
    base = subset_store(union, pids[:cut])
    batches = [
        subset_store(union, pids[cut + i * per_batch:
                                 cut + (i + 1) * per_batch])
        for i in range(n_batches)
    ]
    return base, batches


def _incremental(union, tmp_path, n_batches, partition="hash"):
    """Write the base, append each batch, return the sharded store."""
    base, batches = _split(union, n_batches)
    path = str(tmp_path / f"inc-{partition}-{n_batches}.shards")
    write_sharded_store(base, path, n_shards=N_SHARDS, partition=partition)
    writer = DeltaWriter(path)
    for batch in batches:
        writer.append(batch)
    return ShardedEventStore(path), base, batches


@pytest.mark.parametrize("partition", ["hash", "range"])
@pytest.mark.parametrize("n_batches", [0, 1, 3])
def test_incremental_equals_rebuild(union_store, tmp_path, n_batches,
                                    partition):
    """base + k appends ≡ one full rebuild of the union, per query."""
    sharded, base, batches = _incremental(
        union_store, tmp_path, n_batches, partition
    )
    assert sharded.n_patients == union_store.n_patients
    assert sharded.n_events == union_store.n_events

    rebuilt_path = str(tmp_path / "rebuilt.shards")
    write_sharded_store(union_store, rebuilt_path, n_shards=N_SHARDS,
                        partition=partition)
    rebuilt = ShardedEventStore(rebuilt_path)

    flat = QueryEngine(union_store)
    incremental = QueryEngine(sharded)
    full = QueryEngine(rebuilt)
    for i, query in enumerate(_generated_corpus(union_store, 2016, 120)):
        expected = flat.patients(query)
        got = incremental.patients(query)
        assert np.array_equal(got, expected), (
            f"case {i} ({partition}, k={n_batches}) diverged: "
            f"incremental {len(got)} vs flat {len(expected)} for {query!r}"
        )
        assert np.array_equal(full.patients(query), expected)

    # The materialized effective view is the union, event for event.
    assert sharded.materialize_store().content_equal(
        merge_stores(base, *batches) if batches else base
    )
    assert fsck_store(sharded.path).ok


@pytest.mark.parametrize("partition", ["hash", "range"])
def test_compaction_preserves_every_answer(union_store, tmp_path, partition):
    """Folding deltas into new base generations changes no result."""
    sharded, __, __ = _incremental(union_store, tmp_path, 3, partition)
    assert sharded.has_pending_deltas
    pre_token = sharded.content_token()
    flat = QueryEngine(union_store)
    queries = list(_generated_corpus(union_store, 909, 60))
    before = [flat.patients(q) for q in queries]

    report = Compactor(sharded.path).compact()
    assert report.compacted
    assert sharded.refresh()
    assert not sharded.has_pending_deltas
    assert sharded.delta_stats()["pending_deltas"] == 0
    # Compaction rewrites segments, so caches keyed on the token must
    # miss; the content itself is unchanged.
    assert sharded.content_token() != pre_token
    engine = QueryEngine(sharded)
    for query, expected in zip(queries, before):
        assert np.array_equal(engine.patients(query), expected)
    base, batches = _split(union_store, 3)
    assert sharded.materialize_store().content_equal(
        merge_stores(base, *batches)
    )
    assert fsck_store(sharded.path).ok


def test_append_bumps_revision_and_content_token(union_store, tmp_path):
    """Every append is one atomic manifest bump that invalidates caches."""
    sharded, __, batches = _incremental(union_store, tmp_path, 0)
    base_token = sharded.content_token()
    assert sharded.revision == 0

    batch = subset_store(union_store, sharded.patient_ids[:20])
    manifest = DeltaWriter(sharded.path).append(batch)
    assert manifest["revision"] == 1
    assert sharded.refresh()
    assert sharded.revision == 1
    token_after_append = sharded.content_token()
    assert token_after_append != base_token

    Compactor(sharded.path).compact()
    assert sharded.refresh()
    assert sharded.revision == 2
    assert sharded.content_token() not in (base_token, token_after_append)


def test_empty_batch_append_is_a_noop(union_store, tmp_path):
    sharded, __, __ = _incremental(union_store, tmp_path, 0)
    empty = subset_store(union_store, np.array([], dtype=np.int64))
    manifest = DeltaWriter(sharded.path).append(empty)
    assert manifest["revision"] == 0
    assert not sharded.refresh()
    assert not sharded.has_pending_deltas


def test_single_patient_batch_lands_on_one_shard(union_store, tmp_path):
    sharded, base, __ = _incremental(union_store, tmp_path, 0)
    batch = subset_store(union_store, base.patient_ids[:1])
    DeltaWriter(sharded.path).append(batch)
    sharded.refresh()
    touched = [e for e in sharded.shard_entries if e.get("deltas")]
    assert len(touched) == 1
    assert touched[0]["deltas"][0]["n_patients"] == 1
    stats = sharded.delta_stats()
    assert stats["pending_deltas"] == 1
    assert stats["shards_with_deltas"] == 1
    assert fsck_store(sharded.path).ok


# -- last-write-wins semantics -------------------------------------------------


def _with_values(store: EventStore, value: float) -> EventStore:
    """The same events with every payload value replaced."""
    return EventStore(
        systems=store.systems,
        system_names=store.system_names,
        categories=store.categories,
        sources=store.sources,
        details=store.details,
        patient=store.patient,
        day=store.day,
        end=store.end,
        is_point=store.is_point,
        category=store.category,
        system=store.system,
        code=store.code,
        value=np.full_like(store.value, value),
        value2=store.value2,
        source=store.source,
        detail=store.detail,
        patient_ids=store.patient_ids,
        birth_days=store.birth_days,
        sexes=store.sexes,
    )


def test_lww_restatement_replaces_payload(union_store, tmp_path):
    """Re-appending the same events with new values dedups to the
    latest payload — the corrected-lab-result case."""
    sharded, base, __ = _incremental(union_store, tmp_path, 0)
    target = subset_store(union_store, base.patient_ids[:10])
    restated = _with_values(target, 424242.0)
    DeltaWriter(sharded.path).append(restated)
    sharded.refresh()
    merged = sharded.materialize_store()
    assert merged.n_events == base.n_events  # replaced, not duplicated
    rows = np.isin(merged.patient, target.patient_ids)
    assert rows.sum() == target.n_events
    assert np.all(merged.value[rows] == 424242.0)


def test_lww_demographics_later_batch_wins(union_store, tmp_path):
    sharded, base, __ = _incremental(union_store, tmp_path, 0)
    pid = int(base.patient_ids[0])
    target = subset_store(union_store, np.array([pid]))
    corrected = EventStore(
        systems=target.systems,
        system_names=target.system_names,
        categories=target.categories,
        sources=target.sources,
        details=target.details,
        patient=target.patient,
        day=target.day,
        end=target.end,
        is_point=target.is_point,
        category=target.category,
        system=target.system,
        code=target.code,
        value=target.value,
        value2=target.value2,
        source=target.source,
        detail=target.detail,
        patient_ids=target.patient_ids,
        birth_days=target.birth_days - 365,
        sexes=target.sexes,
    )
    DeltaWriter(sharded.path).append(corrected)
    sharded.refresh()
    merged = sharded.materialize_store()
    assert merged.birth_day_of(pid) == target.birth_days[0] - 365
    assert merged.n_patients == base.n_patients


def test_within_batch_duplicates_are_preserved(union_store, tmp_path):
    """LWW dedups *across* batches, never rows inside one batch — a
    batch that legitimately carries two identical doses keeps both."""
    sharded, base, __ = _incremental(union_store, tmp_path, 0)
    fresh = subset_store(union_store, base.patient_ids[:3])
    doubled = EventStore(
        systems=fresh.systems,
        system_names=fresh.system_names,
        categories=fresh.categories,
        sources=fresh.sources,
        details=fresh.details,
        patient=np.repeat(fresh.patient, 2),
        day=np.repeat(fresh.day, 2),
        end=np.repeat(fresh.end, 2),
        is_point=np.repeat(fresh.is_point, 2),
        category=np.repeat(fresh.category, 2),
        system=np.repeat(fresh.system, 2),
        code=np.repeat(fresh.code, 2),
        value=np.repeat(fresh.value, 2),
        value2=np.repeat(fresh.value2, 2),
        source=np.repeat(fresh.source, 2),
        detail=np.repeat(fresh.detail, 2),
        patient_ids=fresh.patient_ids,
        birth_days=fresh.birth_days,
        sexes=fresh.sexes,
    )
    DeltaWriter(sharded.path).append(doubled)
    sharded.refresh()
    merged = sharded.materialize_store()
    rows = np.isin(merged.patient, fresh.patient_ids)
    # The doubled batch replaced the base rows for these patients and
    # kept both copies of each duplicated row.
    assert rows.sum() == 2 * fresh.n_events


# -- merge_stores over pending deltas (regression) -----------------------------


def test_merge_stores_accepts_pending_deltas(union_store, tmp_path):
    """A sharded input mid-ingestion merges its *effective* view."""
    sharded, base, batches = _incremental(union_store, tmp_path, 2)
    assert sharded.has_pending_deltas
    raw, __ = generate_store_fast(20, seed=77)
    # Shift the second population's ids out of the union's id space.
    other = EventStore(
        systems=raw.systems,
        system_names=raw.system_names,
        categories=raw.categories,
        sources=raw.sources,
        details=raw.details,
        patient=raw.patient + 10_000_000,
        day=raw.day,
        end=raw.end,
        is_point=raw.is_point,
        category=raw.category,
        system=raw.system,
        code=raw.code,
        value=raw.value,
        value2=raw.value2,
        source=raw.source,
        detail=raw.detail,
        patient_ids=raw.patient_ids + 10_000_000,
        birth_days=raw.birth_days,
        sexes=raw.sexes,
    )
    merged = merge_stores(sharded, other)
    truth = merge_stores(merge_stores(base, *batches), other)
    assert merged.content_equal(truth)


# -- workbench / serving wiring ------------------------------------------------


def test_workbench_append_and_compact(union_store, tmp_path):
    base, batches = _split(union_store, 1)
    path = str(tmp_path / "wb.shards")
    write_sharded_store(base, path, n_shards=N_SHARDS)
    wb = Workbench.from_shards(path)
    from repro.query.parser import parse_query

    query = parse_query("sex F or sex M")
    before = wb.select(query)
    stats = wb.append_batch(batches[0])
    assert stats["pending_deltas"] > 0
    assert stats["revision"] == 1
    after = wb.select(query)
    # The plan/result caches invalidated on the token change: the new
    # patients are visible without any explicit flush.
    assert len(after) == len(before) + batches[0].n_patients
    health = wb.health()
    assert health["shards"]["ingestion"]["pending_deltas"] > 0

    report = wb.compact()
    assert report["revision"] == 2
    assert wb.shard_stats()["ingestion"]["pending_deltas"] == 0
    assert np.array_equal(wb.select(query), after)


def test_workbench_append_requires_sharded_store(union_store):
    wb = Workbench(union_store)
    with pytest.raises(EventModelError):
        wb.append_batch(union_store)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
