"""Incremental delta-shard ingestion and background compaction.

The sharded store was write-once: every new batch of events forced a
full :class:`~repro.shard.writer.ShardedStoreWriter` rebuild.  This
module adds the LSM-style append path:

* :class:`DeltaWriter` routes a batch store through the *existing*
  partitioner (the batch-stable patient-id hash, or range clamping for
  range-partitioned stores) and writes one small checksummed **delta
  segment** per touched shard — a ``delta-NNNNNN/`` directory inside
  the shard's base directory, in the exact same ``.npy``-plus-manifest
  format as a base segment.  The append commits with a single durable
  atomic root-manifest replace that bumps the store ``revision``; a
  crash at any earlier point leaves only unreferenced orphan
  directories, never a torn store.
* :func:`resolve_segments` merges one base segment with its pending
  deltas into the shard's **effective view** with last-write-wins
  semantics: when a later batch re-states an event (same patient, day,
  span, category, code and source), the latest batch's payload (value,
  value2, detail) wins and earlier statements are dropped.  Batches
  that only *add* events merge exactly like
  :func:`repro.events.store.merge_stores`.
* :class:`Compactor` reads each shard's segments through the catalogue
  (:func:`repro.shard.format.segments`, with replica failover) and folds
  its deltas into a fresh base segment, installed under a new
  **generation** directory name (``shard-0003.g1``, ``.g2``, ...) by
  the one atomic directory install,
  :func:`repro.shard.format.install_dir`, which verifies the staged
  segment once before it moves in.  Readers holding the previous
  manifest keep resolving against the previous generation's files, so
  compaction never blocks or tears a concurrent query.  Exactly one
  superseded generation (:data:`KEEP_GENERATIONS`) is kept after the
  manifest commit; older ones are garbage collected.

Durability: every file written on this path is fsynced before its
``os.replace`` and the directory entry after, and each boundary is a
:func:`repro.resilience.faults.crashpoint` — the crash-matrix test
kills append and compaction at every single boundary and proves the
store always reopens to exactly the pre- or post-operation state.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from repro.errors import EventModelError, ShardFormatError
from repro.events.store import EventStore, default_systems
from repro.shard.format import (
    install_dir,
    open_segment_any,
    read_store_manifest,
    segment_dir,
    segment_entry,
    segments,
    write_replicated_segment,
    write_store_manifest,
)
from repro.shard.writer import (
    conform_tables,
    hash_shard_of,
    shard_dir_name,
    subset_store,
    union_tables,
)

__all__ = [
    "CompactionAction",
    "CompactionReport",
    "Compactor",
    "DeltaWriter",
    "delta_dir_name",
    "generation_dir_name",
    "pending_delta_stats",
    "resolve_segments",
]

#: Delta directories are named ``delta-NNNNNN`` inside the shard dir.
DELTA_PREFIX = "delta-"
#: Superseded base generations a compaction keeps: readers holding the
#: previous root manifest (a pool worker one revision behind, a sibling
#: process mid-query) keep resolving against them.
KEEP_GENERATIONS = 1

#: The event-row columns of one segment, in store order.
_EVENT_COLUMNS = ("patient", "day", "end", "is_point", "category", "system",
                  "code", "value", "value2", "source", "detail")
#: Identity columns: two rows with equal values here are *the same
#: event* restated; value/value2/detail are the payload that
#: last-write-wins replaces.
_IDENTITY_COLUMNS = ("patient", "day", "end", "is_point", "category",
                     "system", "code", "source")


def delta_dir_name(seq: int) -> str:
    """The conventional directory name of the ``seq``-th delta segment."""
    return f"{DELTA_PREFIX}{seq:06d}"


def generation_dir_name(index: int, generation: int) -> str:
    """Directory name of shard ``index`` at compaction ``generation``.

    Generation 0 is the writer's original ``shard-NNNN``; every
    compaction installs the merged segment under a *new* name so
    readers holding the previous manifest never see fresh bytes under
    a directory they already resolved.
    """
    base = shard_dir_name(index)
    return base if generation == 0 else f"{base}.g{generation}"


# -- effective view ------------------------------------------------------------


def resolve_segments(base: EventStore,
                     deltas: list[EventStore]) -> EventStore:
    """Merge a base segment and its deltas into the effective view.

    Last-write-wins across batches: for every group of rows sharing the
    identity columns (patient, day, end, is_point, category, system,
    code, source), only the rows from the *latest* batch containing the
    group survive — so a delta restating an event replaces its payload,
    while duplicate rows *within* one batch are preserved (a base store
    may legitimately hold two identical events).  Demographics are
    unioned with later batches winning.  For batches disjoint from the
    base this is exactly the :func:`repro.events.store.merge_stores`
    fold.

    All inputs must share the same string tables (segments of one store
    are always opened against the root manifest's union tables, which
    only ever grow append-only, so this holds by construction).
    """
    if not deltas:
        return base
    stores = [base, *deltas]
    for s in stores[1:]:
        if (s.categories != base.categories or s.sources != base.sources
                or s.details != base.details
                or s.system_names != base.system_names):
            raise EventModelError(
                "segments of one shard must share the store's string "
                "tables; re-open them against the root manifest"
            )
    # Only patients the deltas carry events for can have restated rows:
    # everything else in the base passes through untouched, which keeps
    # the resolve O(contested + delta) instead of O(shard) — the whole
    # point of landing a small nightly batch as a delta.
    base_cols = {
        name: np.asarray(getattr(base, name)) for name in _EVENT_COLUMNS
    }
    touched = np.unique(np.concatenate(
        [np.asarray(s.patient) for s in deltas]
    )) if any(s.n_events for s in deltas) else np.empty(0, dtype=np.int64)
    if base.n_events and len(touched):
        contested = np.isin(base_cols["patient"], touched)
    else:
        contested = np.zeros(base.n_events, dtype=bool)
    cols = {
        name: np.concatenate(
            [base_cols[name][contested]]
            + [np.asarray(getattr(s, name)) for s in deltas]
        )
        for name in _EVENT_COLUMNS
    }
    batch = np.concatenate(
        [np.zeros(int(contested.sum()), dtype=np.int64)]
        + [np.full(s.n_events, i + 1, dtype=np.int64)
           for i, s in enumerate(deltas)]
    )
    n = len(batch)
    if n:
        # Group identical identity rows together; ``batch`` is the least
        # significant key, so within a group rows sort oldest-first (and
        # same-batch ties keep their original order — lexsort is stable).
        order = np.lexsort((
            batch, cols["source"], cols["code"], cols["system"],
            cols["category"], cols["is_point"], cols["end"], cols["day"],
            cols["patient"],
        ))
        ident = [cols[name][order] for name in _IDENTITY_COLUMNS]
        b = batch[order]
        new_group = np.zeros(n, dtype=bool)
        new_group[0] = True
        for column in ident:
            new_group[1:] |= column[1:] != column[:-1]
        group_id = np.cumsum(new_group) - 1
        last_of_group = np.nonzero(np.append(new_group[1:], True))[0]
        keep = b == b[last_of_group][group_id]
        kept = {name: cols[name][order][keep] for name in _EVENT_COLUMNS}
        final = np.lexsort((kept["day"], kept["patient"]))
        kept = {name: array[final] for name, array in kept.items()}
    else:
        kept = cols
    # Splice the untouched base rows back in.  Both runs are sorted by
    # (patient, day) and their patient sets are disjoint, so a stable
    # single-key sort on patient restores the store invariant.
    kept = {
        name: np.concatenate([base_cols[name][~contested], kept[name]])
        for name in _EVENT_COLUMNS
    }
    splice = np.argsort(kept["patient"], kind="stable")
    kept = {name: array[splice] for name, array in kept.items()}
    # Demographics: later batches win per patient id.
    pids = np.concatenate([s.patient_ids for s in stores])
    births = np.concatenate([s.birth_days for s in stores])
    sexes = np.concatenate([s.sexes for s in stores])
    pos = np.concatenate([
        np.full(s.n_patients, i, dtype=np.int64)
        for i, s in enumerate(stores)
    ])
    order = np.lexsort((pos, pids))
    pids, births, sexes = pids[order], births[order], sexes[order]
    last = np.ones(len(pids), dtype=bool)
    if len(pids) > 1:
        last[:-1] = pids[1:] != pids[:-1]
    return EventStore(
        systems=base.systems,
        system_names=list(base.system_names),
        categories=list(base.categories),
        sources=list(base.sources),
        details=list(base.details),
        patient_ids=pids[last],
        birth_days=births[last],
        sexes=sexes[last],
        **kept,
    )


# -- routing -------------------------------------------------------------------


def _route_range(entries: list[dict], pids: np.ndarray) -> np.ndarray:
    """Shard index per patient id for a range-partitioned store.

    Patients inside an existing shard's ``[patient_min, patient_max]``
    go there; new patients in gaps or beyond the edges clamp
    deterministically to the nearest shard below (or the first
    non-empty shard), whose recorded range the append then widens — so
    ranges stay sorted and non-overlapping forever.
    """
    populated = [(i, e["patient_min"], e["patient_max"])
                 for i, e in enumerate(entries)
                 if e["patient_min"] is not None]
    if not populated:
        return np.zeros(len(pids), dtype=np.int64)
    mins = np.asarray([lo for _, lo, _ in populated], dtype=np.int64)
    indices = np.asarray([i for i, _, _ in populated], dtype=np.int64)
    slot = np.searchsorted(mins, pids, side="right") - 1
    slot = np.clip(slot, 0, len(populated) - 1)
    return indices[slot]


# -- append --------------------------------------------------------------------


def _clean_orphan_deltas(shard_dir: str, referenced: set[str]) -> list[str]:
    """Delete unreferenced ``delta-*`` dirs (strandings of a crashed
    append — the manifest never pointed at them, so no reader can)."""
    removed = []
    for item in sorted(os.listdir(shard_dir)):
        if item.startswith(DELTA_PREFIX) and item not in referenced \
                and os.path.isdir(os.path.join(shard_dir, item)):
            shutil.rmtree(os.path.join(shard_dir, item))
            removed.append(item)
    return removed


class DeltaWriter:
    """Appends event batches to an existing sharded store as deltas.

    ::

        DeltaWriter("cohort.shards").append(batch_store)

    Each append writes at most one delta segment per shard the batch's
    patients route to, then commits with one durable root-manifest
    replace (revision + 1).  Appends are single-writer: run one
    DeltaWriter (or CLI ``shard append``) at a time per store —
    concurrent *readers* are always safe.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, batch: EventStore) -> dict:
        """Land one batch as delta segments; return the new root manifest.

        The batch must use the store's code systems.  String tables
        (categories, sources, details) are unioned append-only into the
        root manifest, so previously written segments keep decoding
        through the same integer ids.
        """
        manifest = read_store_manifest(self.path)
        if list(batch.system_names) != list(manifest["system_names"]):
            raise ShardFormatError(
                self.path, "batch uses a different code-system set"
            )
        for name, size in zip(manifest["system_names"],
                              manifest["system_sizes"]):
            if len(batch.systems[name]) != size:
                raise ShardFormatError(
                    self.path,
                    f"code system {name!r} differs between batch and "
                    f"store; ids would mis-decode",
                )
        if batch.n_events == 0 and batch.n_patients == 0:
            return manifest  # nothing to land; revision unchanged

        tables = union_tables(
            (manifest["categories"], manifest["sources"],
             manifest["details"]),
            (batch.categories, batch.sources, batch.details),
        )
        batch = conform_tables(batch, tables)
        entries = [dict(entry) for entry in manifest["shards"]]
        replication = max(1, int(manifest.get("replication", 1)))
        if manifest["partition"] == "hash":
            assignment = hash_shard_of(batch.patient_ids, len(entries))
        else:
            assignment = _route_range(entries, batch.patient_ids)

        for index, entry in enumerate(entries):
            pids = batch.patient_ids[assignment == index]
            if not len(pids):
                continue
            shard_dir = segment_dir(self.path, entry["name"])
            if not os.path.isdir(shard_dir):
                raise ShardFormatError(
                    self.path,
                    f"shard {entry['name']} is missing (quarantined?); "
                    f"repair the store before appending",
                )
            deltas = [dict(d) for d in entry.get("deltas") or []]
            _clean_orphan_deltas(shard_dir, {d["name"] for d in deltas})
            name = delta_dir_name(len(deltas))
            seg = write_replicated_segment(
                subset_store(batch, pids),
                segment_dir(self.path, entry["name"], name), index,
                replication=replication, durable=True,
            )
            entry["deltas"] = [*deltas, segment_entry(name, seg)]
            # Widen the entry's recorded id range over the new patients
            # (range routing and owner_of read these).
            for key, seg_value, pick in (("patient_min",
                                          seg["patient_min"], min),
                                         ("patient_max",
                                          seg["patient_max"], max)):
                if seg_value is None:
                    continue
                current = entry.get(key)
                entry[key] = (seg_value if current is None
                              else pick(current, seg_value))

        # The commit point: one durable atomic manifest replace.  Totals
        # are nominal (base + delta counts; last-write-wins may collapse
        # restated events) — ShardedEventStore reports exact counts
        # while deltas are pending, and compaction restores exactness.
        categories, sources, details = tables
        return write_store_manifest(self.path, {
            **manifest,
            "categories": categories,
            "sources": sources,
            "details": details,
            "shards": entries,
            "revision": int(manifest.get("revision", 0)) + 1,
        }, durable=True)


# -- compaction ----------------------------------------------------------------


@dataclass(frozen=True)
class CompactionAction:
    """What the compactor did to one shard."""

    name: str
    index: int
    action: str  # "compacted" or "skipped"
    detail: str = ""
    deltas_merged: int = 0
    events_merged: int = 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "action": self.action,
            "detail": self.detail,
            "deltas_merged": int(self.deltas_merged),
            "events_merged": int(self.events_merged),
        }


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :meth:`Compactor.compact` run."""

    path: str
    actions: tuple[CompactionAction, ...]
    revision: int
    removed_dirs: tuple[str, ...] = ()

    @property
    def compacted(self) -> tuple[CompactionAction, ...]:
        return tuple(a for a in self.actions if a.action == "compacted")

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "revision": int(self.revision),
            "actions": [a.to_json() for a in self.actions],
            "removed_dirs": list(self.removed_dirs),
        }

    def format_summary(self) -> str:
        lines = [
            f"{a.name}: {a.action}"
            + (f" ({a.detail})" if a.detail else "")
            for a in self.actions
        ]
        merged = sum(a.deltas_merged for a in self.actions)
        lines.append(
            f"compaction: {len(self.compacted)} shard(s) compacted, "
            f"{merged} delta segment(s) merged, revision {self.revision}"
        )
        return "\n".join(lines)


class Compactor:
    """Folds pending delta segments into fresh base segments.

    Designed to run in the background (a thread, a cron'd ``shard
    compact``) next to live readers: merged segments install under new
    generation directory names via the atomic directory install, the
    root manifest commits in one durable replace, and only then are
    generations more than :data:`KEEP_GENERATIONS` behind the new one
    deleted — a reader holding the previous manifest still resolves.
    Like appends, compaction is single-writer per store.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def compact(self, indices: list[int] | None = None) -> CompactionReport:
        """Compact every shard with pending deltas (or just ``indices``)."""
        manifest = read_store_manifest(self.path)
        open_kwargs = {
            "systems": default_systems(),
            "system_names": manifest["system_names"],
            "categories": manifest["categories"],
            "sources": manifest["sources"],
            "details": manifest["details"],
        }
        entries = [dict(entry) for entry in manifest["shards"]]
        replication = max(1, int(manifest.get("replication", 1)))
        actions: list[CompactionAction] = []
        for index, entry in enumerate(entries):
            deltas = entry.get("deltas") or []
            if indices is not None and index not in indices:
                actions.append(CompactionAction(
                    entry["name"], index, "skipped", "not selected"))
                continue
            if not deltas:
                actions.append(CompactionAction(
                    entry["name"], index, "skipped", "no pending deltas"))
                continue
            # Compaction reads through the replica failover too: one
            # damaged replica never blocks folding the deltas in.
            base, *delta_stores = [
                open_segment_any(segment, **open_kwargs)[1]
                for segment in segments(self.path, manifest, index)
            ]
            merged = resolve_segments(base, delta_stores)
            generation = int(entry.get("generation") or 0) + 1
            new_name = generation_dir_name(index, generation)
            # A generation stranded by a crashed earlier compaction (no
            # manifest points at it) is moved aside by the install.
            seg = install_dir(
                segment_dir(self.path, new_name),
                lambda tmp: write_replicated_segment(
                    merged, tmp, index, replication=replication,
                    durable=True),
                replication=replication, durable=True,
            )
            entries[index] = segment_entry(new_name, seg,
                                           generation=generation, deltas=[])
            actions.append(CompactionAction(
                new_name, index, "compacted", f"generation {generation}",
                deltas_merged=len(deltas),
                events_merged=int(seg["n_events"]),
            ))
        revision = int(manifest.get("revision", 0))
        removed: tuple[str, ...] = ()
        if any(a.action == "compacted" for a in actions):
            revision += 1
            write_store_manifest(self.path, {
                **manifest, "shards": entries, "revision": revision,
            }, durable=True)
            removed = tuple(self._collect_garbage(entries))
        return CompactionReport(path=self.path, actions=tuple(actions),
                                revision=revision, removed_dirs=removed)

    def _collect_garbage(self, entries: list[dict]) -> list[str]:
        """Delete generations more than :data:`KEEP_GENERATIONS` behind.

        Runs strictly *after* the manifest commit.  Keeping the most
        recent superseded generation is what lets a reader holding the
        previous manifest — a pool worker one revision behind, a
        sibling process mid-query — keep resolving; it catches up on
        its next open.
        """
        removed: list[str] = []
        for index, entry in enumerate(entries):
            current = int(entry.get("generation") or 0)
            for generation in range(0, current - KEEP_GENERATIONS):
                name = generation_dir_name(index, generation)
                directory = segment_dir(self.path, name)
                if os.path.isdir(directory):
                    shutil.rmtree(directory)
                    removed.append(name)
        return removed


# -- stats ---------------------------------------------------------------------


def pending_delta_stats(manifest_or_entries) -> dict:
    """JSON-ready pending-delta statistics from a root manifest.

    Accepts the manifest dict or its ``shards`` entry list.  Surfaced by
    ``shard info``, the workbench's ``shard_stats`` and the serving
    tier's ``/stats`` and ``/readyz`` (compaction lag).
    """
    if isinstance(manifest_or_entries, dict):
        entries = manifest_or_entries.get("shards", [])
        revision = int(manifest_or_entries.get("revision", 0))
    else:
        entries = list(manifest_or_entries)
        revision = 0
    per_shard = [len(e.get("deltas") or []) for e in entries]
    delta_events = sum(
        int(d["n_events"]) for e in entries for d in e.get("deltas") or []
    )
    return {
        "revision": revision,
        "pending_deltas": int(sum(per_shard)),
        "delta_events": int(delta_events),
        "shards_with_deltas": int(sum(1 for c in per_shard if c)),
        "max_shard_deltas": int(max(per_shard, default=0)),
        "max_generation": int(max(
            (int(e.get("generation") or 0) for e in entries), default=0
        )),
    }
