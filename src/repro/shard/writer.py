"""Partition an :class:`EventStore` into on-disk shard segments.

Two partitioning schemes:

* ``"hash"`` — a patient's shard is a mixed hash of their id modulo the
  shard count.  Balanced whatever the id distribution, and *stable
  across batches*: the same patient always lands in the same shard, so
  an integration pipeline can stream batch stores into the writer and
  each shard accumulates exactly that patient's events.
* ``"range"`` — sorted patient ids are cut into N contiguous chunks.
  Keeps id locality (useful when cohorts correlate with id ranges) but
  needs the whole population up front, so it rejects streaming.

Shards share one set of string tables (written to the store-level
manifest): when batches arrive with diverging tables, ``finalize``
unions them in deterministic order and re-encodes each shard's integer
columns, so concatenating shard columns always decodes through a single
table.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np

from repro.config import ShardConfig
from repro.errors import EventModelError, ShardFormatError
from repro.events.store import EventStore
from repro.events.store import merge_stores as _merge_pair
from repro.shard.format import (
    segment_dir,
    segment_entry,
    write_replicated_segment,
    write_store_manifest,
)

__all__ = ["ShardedStoreWriter", "conform_tables", "hash_shard_of",
           "shard_dir_name", "subset_store", "union_tables",
           "write_sharded_store"]

_PARTITIONS = ("hash", "range")


def shard_dir_name(index: int) -> str:
    """The conventional directory name of shard ``index``."""
    return f"shard-{index:04d}"


def hash_shard_of(patient_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per patient id (splitmix-style avalanche, then mod).

    A raw ``pid % n`` would send sequentially-assigned ids from one
    registry extract into a round-robin that any stride in the id space
    defeats; mixing first makes the assignment insensitive to id
    structure while staying deterministic across processes and runs.
    """
    h = np.asarray(patient_ids, dtype=np.uint64).copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return (h % np.uint64(n_shards)).astype(np.int64)


def subset_store(store: EventStore, patient_ids: np.ndarray) -> EventStore:
    """A store holding only the given patients (rows and demographics).

    String tables and code systems are shared with the parent, not
    re-interned — the point is that sub-store columns stay concatenable.
    Rows keep their relative order, so the (patient, day) sort survives.
    """
    wanted = np.asarray(sorted(int(p) for p in patient_ids), dtype=np.int64)
    row_mask = np.isin(store.patient, wanted)
    pid_idx = np.searchsorted(store.patient_ids, wanted)
    in_store = (pid_idx < len(store.patient_ids)) & (
        store.patient_ids[np.minimum(pid_idx, len(store.patient_ids) - 1)]
        == wanted
    ) if len(store.patient_ids) else np.zeros(len(wanted), dtype=bool)
    pid_idx = pid_idx[in_store]
    return EventStore(
        systems=store.systems,
        system_names=store.system_names,
        categories=store.categories,
        sources=store.sources,
        details=store.details,
        patient=store.patient[row_mask],
        day=store.day[row_mask],
        end=store.end[row_mask],
        is_point=store.is_point[row_mask],
        category=store.category[row_mask],
        system=store.system[row_mask],
        code=store.code[row_mask],
        value=store.value[row_mask],
        value2=store.value2[row_mask],
        source=store.source[row_mask],
        detail=store.detail[row_mask],
        patient_ids=store.patient_ids[pid_idx],
        birth_days=store.birth_days[pid_idx],
        sexes=store.sexes[pid_idx],
    )


def _empty_like(template: EventStore) -> EventStore:
    """A zero-patient store sharing the template's tables and systems."""
    return subset_store(template, np.empty(0, dtype=np.int64))


def union_tables(*tables) -> tuple[list[str], list[str], list[str]]:
    """Unite ``(categories, sources, details)`` triples, first-seen order.

    The union is append-only over the first triple, so integer codes
    already written against it stay valid.
    """
    united: tuple[list[str], list[str], list[str]] = ([], [], [])
    for triple in tables:
        for union, own in zip(united, triple):
            known = set(union)
            union.extend(v for v in own if v not in known)
    return united


def conform_tables(store: EventStore, tables) -> EventStore:
    """Re-encode ``store``'s interned columns against ``tables``.

    ``tables`` is a ``(categories, sources, details)`` triple holding
    every value the store uses (a :func:`union_tables` result); a store
    already on those tables is returned as is.  Raises
    :class:`~repro.errors.EventModelError` naming any value the tables
    lack.
    """
    own = (store.categories, store.sources, store.details)
    if tuple(map(list, own)) == tuple(map(list, tables)):
        return store
    maps = []
    for union, values, kind in zip(tables, own,
                                   ("category", "source", "detail")):
        index = {v: i for i, v in enumerate(union)}
        unknown = [v for v in values if v not in index]
        if unknown:
            raise EventModelError(
                f"{kind} values {unknown} are not in the target tables")
        maps.append(np.asarray([index[v] for v in values], dtype=np.int64))
    categories, sources, details = tables
    return EventStore(
        systems=store.systems,
        system_names=store.system_names,
        categories=list(categories),
        sources=list(sources),
        details=list(details),
        patient=store.patient,
        day=store.day,
        end=store.end,
        is_point=store.is_point,
        category=maps[0][store.category].astype(np.int16),
        system=store.system,
        code=store.code,
        value=store.value,
        value2=store.value2,
        source=maps[1][store.source].astype(np.int16),
        detail=maps[2][store.detail].astype(np.int32),
        patient_ids=store.patient_ids,
        birth_days=store.birth_days,
        sexes=store.sexes,
    )


class ShardedStoreWriter:
    """Accumulates one or more stores and writes N shard segments.

    One-shot use::

        ShardedStoreWriter("cohort.shards", n_shards=8).write(store)

    Streaming use (e.g. per-batch stores out of an integration run)::

        writer = ShardedStoreWriter("cohort.shards", n_shards=8)
        for batch_store in batches:
            writer.add(batch_store)
        writer.finalize()
    """

    def __init__(
        self,
        out_dir: str,
        n_shards: int = 4,
        partition: str = "hash",
        config: ShardConfig | None = None,
    ) -> None:
        self.out_dir = out_dir
        self.n_shards = int(n_shards)
        self.partition = partition
        self.replication = max(1, int((config or ShardConfig()).replication))
        if self.n_shards < 1:
            raise ShardFormatError(
                out_dir, f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.partition not in _PARTITIONS:
            raise ShardFormatError(
                out_dir,
                f"unknown partition {self.partition!r}; "
                f"choose one of {_PARTITIONS}",
            )
        self._pending: list[EventStore | None] = [None] * self.n_shards
        self._batches = 0

    # -- accumulation --------------------------------------------------------

    def _assignment(self, store: EventStore) -> np.ndarray:
        if self.partition == "hash":
            return hash_shard_of(store.patient_ids, self.n_shards)
        if self._batches:
            raise ShardFormatError(
                self.out_dir,
                "range partitioning needs the whole population in one "
                "store; stream with partition='hash' instead",
            )
        assignment = np.empty(store.n_patients, dtype=np.int64)
        offset = 0
        for index, chunk in enumerate(
            np.array_split(np.arange(store.n_patients), self.n_shards)
        ):
            assignment[offset:offset + len(chunk)] = index
            offset += len(chunk)
        return assignment

    def add(self, store: EventStore) -> "ShardedStoreWriter":
        """Fold one store's patients and events into the pending shards."""
        assignment = self._assignment(store)
        for index in range(self.n_shards):
            pids = store.patient_ids[assignment == index]
            if not len(pids) and self._pending[index] is not None:
                continue
            piece = subset_store(store, pids)
            pending = self._pending[index]
            self._pending[index] = (
                piece if pending is None else _merge_pair(pending, piece)
            )
        self._batches += 1
        return self

    # -- output --------------------------------------------------------------

    def finalize(self) -> dict:
        """Write every shard segment plus the root manifest."""
        if not self._batches:
            raise ShardFormatError(self.out_dir, "no stores were added")
        shards = [s for s in self._pending if s is not None]
        template = shards[0]
        tables = union_tables(*((s.categories, s.sources, s.details)
                                for s in shards))
        os.makedirs(self.out_dir, exist_ok=True)
        entries: list[dict] = []
        for index in range(self.n_shards):
            shard = self._pending[index]
            if shard is None:
                shard = _empty_like(template)
            name = shard_dir_name(index)
            manifest = write_replicated_segment(
                conform_tables(shard, tables),
                segment_dir(self.out_dir, name), index,
                replication=self.replication,
            )
            entries.append(segment_entry(name, manifest))
        categories, sources, details = tables
        return write_store_manifest(self.out_dir, {
            "partition": self.partition,
            "system_names": list(template.system_names),
            "system_sizes": [len(template.systems[n])
                             for n in template.system_names],
            "categories": categories,
            "sources": sources,
            "details": details,
            "shards": entries,
            "replication": self.replication,
        })

    def write(self, store: EventStore) -> dict:
        """One-shot: partition a single store and write everything."""
        return self.add(store).finalize()


def write_sharded_store(
    store_or_stores: EventStore | Iterable[EventStore],
    out_dir: str,
    n_shards: int = 4,
    partition: str = "hash",
    config: ShardConfig | None = None,
) -> dict:
    """Write a sharded store from one store or a stream of batch stores.

    Returns the root manifest.  An iterable input (e.g. per-batch stores
    from an integration pipeline) requires hash partitioning so every
    patient's batches land in the same shard.
    """
    writer = ShardedStoreWriter(out_dir, n_shards=n_shards,
                                partition=partition, config=config)
    if isinstance(store_or_stores, EventStore):
        return writer.write(store_or_stores)
    for store in store_or_stores:
        writer.add(store)
    return writer.finalize()
