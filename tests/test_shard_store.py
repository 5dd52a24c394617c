"""Unit tests for the shard subsystem: format, writer, lazy store.

The differential suite (``test_shard_differential.py``) proves query
equivalence; this file pins down the format contract — lazy opens,
manifest validation, patient routing, streaming writes, atomic
replacement and the content-token plumbing the query cache rides on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import EventModelError, ShardFormatError
from repro.query.parser import parse_query
from repro.shard import (
    ParallelExecutor,
    ShardedEventStore,
    ShardedStoreWriter,
    subset_store,
    write_sharded_store,
)
from repro.shard.format import atomic_replace
from repro.shard.writer import hash_shard_of, shard_dir_name
from repro.simulate.fast import generate_store_fast


@pytest.fixture(scope="module")
def store():
    built, __ = generate_store_fast(300, seed=11)
    return built


@pytest.fixture(scope="module")
def shard_path(store, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("store") / "cohort.shards")
    write_sharded_store(store, path, n_shards=3)
    return path


class TestFormat:
    def test_layout_on_disk(self, shard_path):
        assert os.path.exists(os.path.join(shard_path, "manifest.json"))
        for index in range(3):
            shard_dir = os.path.join(shard_path, shard_dir_name(index))
            assert os.path.exists(os.path.join(shard_dir, "manifest.json"))
            assert os.path.exists(os.path.join(shard_dir, "patient.npy"))

    def test_counts_in_manifest(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        assert sharded.n_shards == 3
        assert sharded.n_patients == store.n_patients
        assert sharded.n_events == store.n_events
        assert sum(e["n_patients"] for e in sharded.shard_entries) \
            == store.n_patients

    def test_missing_manifest_is_typed(self, tmp_path):
        with pytest.raises(ShardFormatError):
            ShardedEventStore(str(tmp_path / "nowhere"))

    def test_wrong_kind_is_typed(self, tmp_path):
        path = tmp_path / "notastore"
        path.mkdir()
        (path / "manifest.json").write_text('{"kind": "something_else"}')
        with pytest.raises(ShardFormatError) as excinfo:
            ShardedEventStore(str(path))
        assert "kind" in str(excinfo.value)

    def test_atomic_replace_failure_leaves_target_intact(self, tmp_path):
        target = tmp_path / "col.npy"
        target.write_bytes(b"original")

        def explode(tmp):
            raise OSError("disk full")

        with pytest.raises(OSError):
            atomic_replace(str(target), explode)
        assert target.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["col.npy"]


class TestLazyStore:
    def test_shards_open_on_demand(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        assert sharded.open_shard_count == 0
        sharded.shard(1)
        assert sharded.open_shard_count == 1
        sharded.shard(1)  # cached, not re-opened
        assert sharded.open_shard_count == 1

    def test_columns_are_memory_mapped(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        assert isinstance(sharded.shard(0).patient, np.memmap)

    def test_patient_ids_union(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        assert np.array_equal(sharded.patient_ids, store.patient_ids)

    def test_patient_routing(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        for pid in store.patient_ids[:25].tolist():
            owner = sharded.owner_of(pid)
            assert pid in sharded.shard(owner).patient_ids
            assert sharded.birth_day_of(pid) == store.birth_day_of(pid)
            assert sharded.sex_of(pid) == store.sex_of(pid)

    def test_unknown_patient_raises(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        with pytest.raises(EventModelError):
            sharded.owner_of(10**9)

    def test_materialize_history_matches_flat(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        pid = int(store.patient_ids[0])
        ours, theirs = sharded.materialize(pid), store.materialize(pid)
        assert len(ours.points) == len(theirs.points)
        assert len(ours.intervals) == len(theirs.intervals)

    def test_materialize_store_roundtrip(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        assert sharded.materialize_store().content_equal(store)

    def test_getattr_falls_through_to_materialized(self, store, shard_path):
        sharded = ShardedEventStore(shard_path)
        # mask_category is an EventStore method the sharded view lacks.
        mask = sharded.mask_category("gp_contact")
        assert int(mask.sum()) == int(store.mask_category("gp_contact").sum())

    def test_content_token_is_stable_and_cheap(self, shard_path):
        first = ShardedEventStore(shard_path)
        token = first.content_token()
        assert token.startswith("sharded-")
        assert token == ShardedEventStore(shard_path).content_token()
        # Token derives from the manifest alone: no shard was opened.
        assert first.open_shard_count == 0

    def test_shard_tokens_differ_per_shard(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        tokens = {sharded.shard_token(i) for i in range(sharded.n_shards)}
        assert len(tokens) == sharded.n_shards

    def test_rewriting_a_shard_changes_the_store_token(self, store, tmp_path):
        path = str(tmp_path / "mutate.shards")
        write_sharded_store(store, path, n_shards=2)
        before = ShardedEventStore(path).content_token()
        half = subset_store(store, store.patient_ids[:100])
        write_sharded_store(half, path, n_shards=2)
        assert ShardedEventStore(path).content_token() != before


class TestWriter:
    def test_hash_assignment_is_deterministic_and_bounded(self, store):
        first = hash_shard_of(store.patient_ids, 5)
        assert np.array_equal(first, hash_shard_of(store.patient_ids, 5))
        assert first.min() >= 0 and first.max() < 5

    def test_streaming_batches_equal_one_shot(self, store, tmp_path):
        half_a = subset_store(store, store.patient_ids[::2])
        half_b = subset_store(store, store.patient_ids[1::2])
        streamed = str(tmp_path / "streamed.shards")
        writer = ShardedStoreWriter(streamed, n_shards=3)
        writer.add(half_a)
        writer.add(half_b)
        writer.finalize()
        one_shot = str(tmp_path / "oneshot.shards")
        write_sharded_store(store, one_shot, n_shards=3)
        assert ShardedEventStore(streamed).materialize_store().content_equal(
            ShardedEventStore(one_shot).materialize_store()
        )

    def test_iterable_input_streams(self, store, tmp_path):
        halves = (subset_store(store, store.patient_ids[:150]),
                  subset_store(store, store.patient_ids[150:]))
        path = str(tmp_path / "iter.shards")
        write_sharded_store(iter(halves), path, n_shards=2)
        assert ShardedEventStore(path).materialize_store() \
            .content_equal(store)

    def test_streamed_generation_defaults_to_four_shards(self, tmp_path):
        """``generate --stream`` without ``--shards`` builds 4 shards."""
        from repro.cli import main
        from repro.simulate.stream import generate_streamed_store

        api = str(tmp_path / "api.shards")
        report = generate_streamed_store(60, api, batch_size=25, seed=3)
        assert report.n_shards == 4
        cli = str(tmp_path / "cli.shards")
        assert main(["generate", "--stream", "--patients", "60",
                     "--batch-size", "25", "--seed", "3",
                     "--out", cli]) == 0
        for path in (api, cli):
            sharded = ShardedEventStore(path)
            assert sharded.n_shards == 4
            assert sharded.n_patients == 60

    def test_range_partition_rejects_streaming(self, store, tmp_path):
        writer = ShardedStoreWriter(str(tmp_path / "r.shards"),
                                    n_shards=2, partition="range")
        writer.add(subset_store(store, store.patient_ids[:50]))
        with pytest.raises(ShardFormatError) as excinfo:
            writer.add(subset_store(store, store.patient_ids[50:]))
        assert "range" in str(excinfo.value)

    def test_range_partition_is_contiguous(self, store, tmp_path):
        path = str(tmp_path / "range.shards")
        write_sharded_store(store, path, n_shards=3, partition="range")
        sharded = ShardedEventStore(path)
        maxes = [e["patient_max"] for e in sharded.shard_entries]
        mins = [e["patient_min"] for e in sharded.shard_entries]
        for prev_max, next_min in zip(maxes, mins[1:]):
            assert prev_max < next_min

    def test_bad_parameters_are_typed(self, tmp_path):
        with pytest.raises(ShardFormatError):
            ShardedStoreWriter(str(tmp_path / "x"), n_shards=0)
        with pytest.raises(ShardFormatError):
            ShardedStoreWriter(str(tmp_path / "x"), partition="modulo")
        with pytest.raises(ShardFormatError):
            ShardedStoreWriter(str(tmp_path / "x"), n_shards=2).finalize()

    def test_subset_store_shares_tables(self, store):
        piece = subset_store(store, store.patient_ids[:10])
        assert piece.categories is store.categories
        assert piece.n_patients == 10
        assert np.array_equal(np.unique(piece.patient),
                              np.sort(store.patient_ids[:10])[
                                  np.isin(np.sort(store.patient_ids[:10]),
                                          piece.patient)])


class TestExecutor:
    def test_serial_cache_hits_at_shard_granularity(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        executor = ParallelExecutor(n_workers=1)
        query = parse_query("concept T90")
        first = executor.patients(sharded, query)
        hits_before = executor.cache.stats.hits
        second = executor.patients(sharded, query)
        assert np.array_equal(first, second)
        # Every shard's sub-result replayed from the shared LRU.
        assert executor.cache.stats.hits >= hits_before + sharded.n_shards

    def test_counters_and_mode(self, shard_path):
        sharded = ShardedEventStore(shard_path)
        executor = ParallelExecutor(n_workers=1)
        assert executor.mode == "serial"
        executor.patients(sharded, parse_query("sex F"))
        stats = executor.stats_dict()
        assert stats["queries"] == 1
        assert stats["serial_queries"] == 1
        assert stats["shards_scanned"] == sharded.n_shards

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(n_workers=2)
        executor.close()
        executor.close()


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
