"""A lazy, memory-mapped view over a directory of shard segments.

:class:`ShardedEventStore` opens the root manifest eagerly (cheap JSON)
and each shard segment lazily on first touch, as an
:class:`~repro.events.store.EventStore` whose columns are
``np.load(mmap_mode="r")`` views — verified against the manifest
checksums on open.

Query execution is *scatter-gather*: the query engine evaluates a
planned query independently per shard (patients are partitioned, and a
patient's events all live in their shard, so every query node
distributes over the disjoint per-shard universes) and merges the
patient-id results.  Each shard carries its own memoized
``content_token``, so the existing :class:`repro.query.cache.QueryCache`
LRU memoizes per-shard sub-results unchanged — at shard granularity.

Per-patient reads route to the owning shard: :meth:`materialize` and
:meth:`patient_rows` (the timeline's row slices) never merge anything.
For everything that genuinely needs the whole cohort in one coordinate
system (cohort statistics, the density overview, CSV export), attribute
access falls through to a lazily materialized merged ``EventStore``
(globally re-sorted by ``(patient, day)``), so a ``ShardedEventStore``
exposes the same mask/patient-array surface as a flat store; queries
never touch the materialized view.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.config import ShardConfig
from repro.errors import (
    EventModelError,
    ShardChecksumError,
    ShardFormatError,
    ShardQuarantinedError,
    SketchError,
)
from repro.events.store import EVENT_COLUMNS, EventStore, default_systems
from repro.io import append_jsonl, read_jsonl, rotate_jsonl
from repro.shard.delta import pending_delta_stats, resolve_segments
from repro.shard.format import (
    Segment,
    fsync_dir,
    open_segment_any,
    quarantine_slot,
    read_store_manifest,
    segment_dir,
    segments,
    verify_segment,
)
from repro.shard.writer import hash_shard_of
from repro.sketch import (
    CohortSketch,
    build_sketch,
    effective_sketch,
    load_sketch_sidecar,
    merge_sketches,
    sketch_sidecar_status,
    write_sketch_sidecar,
)
from repro.sketch.model import empty_sketch

__all__ = [
    "DAMAGE_LOG_NAME",
    "QUARANTINE_DIR",
    "QueryDegradation",
    "ShardedEventStore",
    "is_shard_store",
]

#: Damaged segments are moved into this subdirectory of the store root.
QUARANTINE_DIR = "quarantine"
#: Append-only JSONL damage report inside the quarantine directory.
DAMAGE_LOG_NAME = "damage.jsonl"

_DAMAGE_POLICIES = ("fail", "quarantine")


def is_shard_store(obj) -> bool:
    """True when ``obj`` is a :class:`ShardedEventStore` (duck-type safe)."""
    return isinstance(obj, ShardedEventStore)


@dataclass(frozen=True)
class QueryDegradation:
    """What a degraded store's query results are missing.

    Attached to every :class:`ShardedEventStore` opened with
    ``on_damage="quarantine"``: names the quarantined shards, the
    patient-id ranges they covered and the patient/event counts lost
    (from the root manifest — the damaged bytes themselves may be
    unreadable).  Surfaced through ``QueryEngine.explain()``, the
    webapp's ``/healthz``/``/stats`` and the CLI's exit code.
    """

    quarantined_shards: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()
    patient_ranges: tuple[tuple[int | None, int | None], ...] = ()
    patients_lost: int = 0
    events_lost: int = 0

    @property
    def is_degraded(self) -> bool:
        return bool(self.quarantined_shards)

    def to_json(self) -> dict:
        """JSON-ready payload for ``/healthz``/``/stats`` and ``--json``."""
        return {
            "degraded": self.is_degraded,
            "quarantined_shards": list(self.quarantined_shards),
            "reasons": list(self.reasons),
            "patient_ranges": [list(r) for r in self.patient_ranges],
            "patients_lost": int(self.patients_lost),
            "events_lost": int(self.events_lost),
        }

    def format_summary(self) -> str:
        """One readable line per quarantined shard, plus the totals."""
        if not self.is_degraded:
            return "not degraded: all shards serving"
        lines = [
            f"DEGRADED: {len(self.quarantined_shards)} shard(s) "
            f"quarantined, ~{self.patients_lost:,} patients / "
            f"~{self.events_lost:,} events unavailable"
        ]
        for name, reason, (lo, hi) in zip(
            self.quarantined_shards, self.reasons, self.patient_ranges
        ):
            span = "(empty)" if lo is None else f"ids {lo}..{hi}"
            lines.append(f"  {name} {span}: {reason}")
        return "\n".join(lines)


class ShardedEventStore:
    """One logical event store backed by N on-disk shard segments.

    Construction reads only the root manifest; shards open on demand via
    :meth:`shard`.  The store duck-types as an
    :class:`~repro.events.store.EventStore`: per-patient lookups route
    to the owning shard, and any other attribute (column arrays, mask
    methods, decoding) resolves against the lazily materialized merged
    store — correct everywhere, but O(total bytes) on first touch, so
    the scatter-gather query path deliberately avoids it.
    """

    def __init__(self, path: str, config: ShardConfig | None = None) -> None:
        self.path = path
        self.config = config or ShardConfig()
        if self.config.on_damage not in _DAMAGE_POLICIES:
            raise ShardFormatError(
                path,
                f"unknown on_damage policy {self.config.on_damage!r}; "
                f"choose one of {_DAMAGE_POLICIES}",
            )
        self.systems = default_systems()
        #: Aggregate-first observability: how cohort views were served.
        #: ``row_materializations`` counts whole-store row merges (the
        #: O(population) path sketches exist to avoid); the sketch
        #: counters break down how folds were satisfied.  Survives
        #: ``refresh()`` so ``/stats`` sees process-lifetime totals.
        self.counters: dict[str, int] = {
            "row_materializations": 0,
            "sketch_folds": 0,
            "sketch_sidecar_loads": 0,
            "sketch_rebuilds": 0,
            "sketch_delta_resketches": 0,
            "replica_failovers": 0,
        }
        #: original shard index -> damage record (quarantined shards).
        self._quarantined: dict[int, dict] = {}
        #: segment label -> replica index reads currently prefer; a
        #: failover advances it so one damaged replica costs one failed
        #: open, not one per query.  Survives ``refresh()``.
        self._replica_pref: dict[str, int] = {}
        #: segment label -> replica indices observed damaged (scrub and
        #: ``/stats`` read this; the scrubber repairs and re-verifies).
        self._replica_bad: dict[str, set[int]] = {}
        self._adopt_manifest(read_store_manifest(path))
        if self.config.on_damage == "quarantine":
            self._quarantine_damaged_on_open()

    def _adopt_manifest(self, manifest: dict) -> None:
        """(Re)load everything derived from the root manifest."""
        self.manifest = manifest
        self.system_names = list(manifest["system_names"])
        self.categories = list(manifest["categories"])
        self.sources = list(manifest["sources"])
        self.details = list(manifest["details"])
        self.partition = manifest["partition"]
        self.replication = max(1, int(manifest.get("replication", 1)))
        self.shard_entries = list(manifest["shards"])
        self._shards: dict[int, EventStore] = {}
        self._materialized: EventStore | None = None
        self._patient_ids: np.ndarray | None = None
        self._n_events_exact: int | None = None
        #: index -> (shard_token, sketch); token-keyed so appends and
        #: compactions invalidate by mismatch, like the query cache.
        self._shard_sketches: dict[int, tuple[str, CohortSketch]] = {}
        self._store_sketch: tuple[str, CohortSketch] | None = None
        self.__dict__.pop("_content_token", None)

    @property
    def revision(self) -> int:
        """The manifest's monotonic revision (bumped by append/compact)."""
        return int(self.manifest.get("revision", 0))

    def refresh(self) -> bool:
        """Re-read the root manifest; reset caches if it moved.

        Returns True when a newer revision was adopted.  Quarantine
        records survive a refresh: an append or compaction never
        un-damages a shard (``shard repair`` does, and a repaired store
        should be reopened).
        """
        manifest = read_store_manifest(self.path)
        if int(manifest.get("revision", 0)) == self.revision \
                and manifest["shards"] == self.manifest["shards"]:
            return False
        self._adopt_manifest(manifest)
        return True

    # -- sizes ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Total shard slots in the manifest (quarantined ones included,
        so hash routing and shard indexes stay stable)."""
        return len(self.shard_entries)

    @property
    def n_active_shards(self) -> int:
        """Shards actually serving queries (total minus quarantined)."""
        return len(self.shard_entries) - len(self._quarantined)

    @property
    def has_pending_deltas(self) -> bool:
        """Any shard with delta segments awaiting compaction?"""
        return any(e.get("deltas") for e in self.shard_entries)

    @property
    def n_patients(self) -> int:
        # Manifest totals are nominal while deltas are pending (a delta
        # may re-state patients the base already holds); the exact count
        # comes from the resolved effective views.
        if self.has_pending_deltas:
            return int(len(self.patient_ids))
        if self._quarantined:
            return sum(int(self.shard_entries[i]["n_patients"])
                       for i in self.active_indices())
        return int(self.manifest["total_patients"])

    @property
    def n_events(self) -> int:
        if self.has_pending_deltas:
            if self._n_events_exact is None:
                self._n_events_exact = sum(
                    int(self.shard(i).n_events)
                    for i in self.active_indices()
                )
            return self._n_events_exact
        if self._quarantined:
            return sum(int(self.shard_entries[i]["n_events"])
                       for i in self.active_indices())
        return int(self.manifest["total_events"])

    @property
    def open_shard_count(self) -> int:
        """How many shards are currently resident (opened lazily)."""
        return len(self._shards)

    # -- damage policy -------------------------------------------------------

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.path, QUARANTINE_DIR)

    @property
    def damage_log_path(self) -> str:
        return os.path.join(self.quarantine_dir, DAMAGE_LOG_NAME)

    def active_indices(self) -> list[int]:
        """Indices of the shards still serving (quarantined ones skipped)."""
        return [i for i in range(len(self.shard_entries))
                if i not in self._quarantined]

    def is_quarantined(self, index: int) -> bool:
        return index in self._quarantined

    def _quarantine_damaged_on_open(self) -> None:
        """Verify every shard up front; move failures aside.

        The price of ``on_damage="quarantine"`` is one O(bytes) checksum
        pass over every shard at open — the guarantee bought is that a
        flipped byte (or a content token that drifted from the root
        manifest's) in one segment degrades the store instead of making
        it unopenable.  With replication a shard is healthy as long as
        *one* replica of every segment verifies (damaged peers are
        noted for the scrubber); quarantine is reserved for the
        zero-healthy-replica state.  Shards already sitting in
        ``quarantine/`` (a previous open, or a sibling worker process)
        are recognized by the damage log without being moved again.
        """
        known = {
            entry.get("name"): entry
            for entry in read_jsonl(self.damage_log_path,
                                    tolerate_torn_tail=True)
        }
        for index, entry in enumerate(self.shard_entries):
            name = entry["name"]
            if not os.path.isdir(self.shard_dir(index)):
                if os.path.isdir(os.path.join(self.quarantine_dir, name)):
                    record = known.get(name) or self._damage_record(
                        index, "ShardFormatError", "previously quarantined"
                    )
                    self._quarantined[index] = record
                else:
                    self.quarantine_shard(
                        index, "ShardFormatError",
                        f"shard directory {name} is missing",
                    )
                continue
            try:
                for segment in self._segments(index):
                    self._verify_any_replica(segment)
            except (ShardChecksumError, ShardFormatError) as exc:
                self.quarantine_shard(index, type(exc).__name__, str(exc))

    def _verify_any_replica(self, segment: Segment) -> None:
        """Verify a segment, requiring at least one healthy replica.

        Every replica is checked against the root manifest's token (the
        damage map feeds the scrubber and ``/stats``); only the
        zero-healthy case raises.
        """
        healthy = 0
        last: Exception | None = None
        for k, replica in enumerate(segment.replicas):
            try:
                verify_segment(replica, segment.token)
                healthy += 1
                self._replica_bad.get(segment.label, set()).discard(k)
            except (ShardChecksumError, ShardFormatError) as exc:
                last = exc
                if self.replication > 1:
                    self._replica_bad.setdefault(segment.label,
                                                 set()).add(k)
        if not healthy and last is not None:
            raise last

    def _damage_record(self, index: int, kind: str, reason: str) -> dict:
        entry = self.shard_entries[index]
        return {
            "name": entry["name"],
            "shard_index": int(index),
            "kind": kind,
            "reason": reason,
            "n_patients": int(entry["n_patients"]),
            "n_events": int(entry["n_events"]),
            "patient_min": entry["patient_min"],
            "patient_max": entry["patient_max"],
        }

    def quarantine_shard(self, index: int, kind: str, reason: str) -> dict:
        """Move shard ``index`` aside and record the damage (idempotent).

        The segment directory is renamed into ``quarantine/`` (a rename,
        so already-mapped columns in other processes stay valid), a
        damage record is appended durably to ``quarantine/damage.jsonl``
        and the shard is excluded from every subsequent query; the
        store's ``content_token`` changes so stale cached full-store
        results can never be served as degraded ones (or vice versa).
        """
        if index in self._quarantined:
            return self._quarantined[index]
        record = self._damage_record(index, kind, reason)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        src = self.shard_dir(index)
        if os.path.isdir(src):
            os.rename(src, quarantine_slot(self.quarantine_dir,
                                           record["name"]))
            # The rename must survive a power cut in *both* directory
            # entries, or the segment could reappear half-quarantined.
            fsync_dir(self.quarantine_dir)
            fsync_dir(self.path)
        rotate_jsonl(self.damage_log_path,
                     self.config.damage_log_max_bytes)
        append_jsonl(self.damage_log_path, [record], fsync=True)
        self._quarantined[index] = record
        # Invalidate everything derived from the shard set.
        self._shards.pop(index, None)
        self._materialized = None
        self._patient_ids = None
        self._n_events_exact = None
        self._shard_sketches.pop(index, None)
        self._store_sketch = None
        self.__dict__.pop("_content_token", None)
        return record

    def degradation(self) -> QueryDegradation:
        """The damage every query result over this store is carrying."""
        records = [self._quarantined[i] for i in sorted(self._quarantined)]
        return QueryDegradation(
            quarantined_shards=tuple(r["name"] for r in records),
            reasons=tuple(r["reason"] for r in records),
            patient_ranges=tuple(
                (r.get("patient_min"), r.get("patient_max")) for r in records
            ),
            patients_lost=sum(int(r.get("n_patients") or 0) for r in records),
            events_lost=sum(int(r.get("n_events") or 0) for r in records),
        )

    # -- shard access --------------------------------------------------------

    def shard_dir(self, index: int) -> str:
        return segment_dir(self.path, self.shard_entries[index]["name"])

    def _segments(self, index: int) -> list[Segment]:
        """Shard ``index``'s base segment, then its deltas (catalogue)."""
        return segments(self.path, self.manifest, index)

    def shard(self, index: int) -> EventStore:
        """Open (once) and return shard ``index``'s *effective view*.

        For a shard with no pending deltas that is the memory-mapped
        base segment itself; with deltas, the base and every delta
        segment are opened and resolved (last-write-wins) into one
        in-memory ``EventStore`` whose memoized content token is the
        delta-aware :meth:`shard_token` — query caches keyed on it
        invalidate on every append, without rehashing any bytes.

        A quarantined shard raises
        :class:`~repro.errors.ShardQuarantinedError` — callers iterate
        :meth:`active_indices` to stay on the serving set.
        """
        record = self._quarantined.get(index)
        if record is not None:
            raise ShardQuarantinedError(record["name"], record["reason"])
        store = self._shards.get(index)
        if store is None:
            store, *deltas = [self._open_replica(segment)
                              for segment in self._segments(index)]
            if deltas:
                store = resolve_segments(store, deltas)
                store._content_token = self.shard_token(index)
            self._shards[index] = store
        return store

    def _open_replica(self, segment: Segment) -> EventStore:
        """Open whichever replica of one segment is healthy.

        Starts at the currently preferred replica and fails over to
        peers on damage (a content token that drifted from the root
        manifest's included) or open failure — counted, remembered (the
        next open goes straight to the healthy peer), and exact:
        replicas are byte-identical, so the answer never degrades.
        Raises only when zero replicas are readable.
        """

        def note(replica: int, exc: Exception) -> None:
            self.counters["replica_failovers"] += 1
            if self.replication > 1:
                self._replica_bad.setdefault(segment.label,
                                             set()).add(replica)

        chosen, store = open_segment_any(
            segment, start=self._replica_pref.get(segment.label, 0),
            on_failover=note, **self._open_kwargs(),
        )
        self._replica_pref[segment.label] = chosen
        return store

    def advance_replica(self, index: int) -> bool:
        """Rotate shard ``index``'s reads to the next peer replica.

        The executor's recovery ladder calls this on a timeout or an
        opening circuit breaker so a slow or flaky replica is steered
        away from before retries give up.  Returns False for R=1.
        """
        if self.replication <= 1:
            return False
        for segment in self._segments(index):
            self._replica_pref[segment.label] = (
                self._replica_pref.get(segment.label, 0) + 1
            ) % self.replication
        self._shards.pop(index, None)
        self.counters["replica_failovers"] += 1
        return True

    def replication_stats(self) -> dict:
        """JSON-ready replication/failover health (``/stats`` payload)."""
        return {
            "replication": int(self.replication),
            "replica_failovers": int(self.counters["replica_failovers"]),
            "suspect_replicas": {
                label: sorted(bad)
                for label, bad in sorted(self._replica_bad.items()) if bad
            },
            "zero_healthy_shards": [
                self._quarantined[i]["name"]
                for i in sorted(self._quarantined)
            ],
        }

    def _open_kwargs(self) -> dict:
        return {
            "systems": self.systems,
            "system_names": self.system_names,
            "categories": self.categories,
            "sources": self.sources,
            "details": self.details,
            "verify_checksums": self.config.verify_checksums,
        }

    def iter_shards(self) -> Iterator[EventStore]:
        for index in self.active_indices():
            yield self.shard(index)

    def shard_token(self, index: int) -> str:
        """The shard's content token, from root-manifest metadata alone.

        Delta-free shards use the base segment's recorded token; shards
        with pending deltas hash the base token together with every
        delta token.  Either way the token is content-derived and
        O(metadata), so appends invalidate cached per-shard results by
        key mismatch without any explicit protocol.
        """
        entry = self.shard_entries[index]
        deltas = entry.get("deltas") or []
        if not deltas:
            return entry["content_token"]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(entry["content_token"].encode("ascii"))
        for delta in deltas:
            digest.update(delta["content_token"].encode("ascii"))
        return "delta-" + digest.hexdigest()

    def content_token(self) -> str:
        """Store-level content token: a hash over the shard tokens.

        O(metadata): shard tokens were memoized at write time, so no
        column bytes are read.  Content-addressed like the flat store's
        token — a rewrite of any shard changes it, which invalidates
        query-cache entries by key mismatch alone.  Quarantined shards
        hash as ``quarantined:<name>`` markers instead of their content
        tokens, so a degraded store can never serve (or poison) the
        healthy store's cached results.
        """
        token = getattr(self, "_content_token", None)
        if token is None:
            digest = hashlib.blake2b(digest_size=16)
            for index, entry in enumerate(self.shard_entries):
                if index in self._quarantined:
                    digest.update(
                        f"quarantined:{entry['name']}".encode("ascii")
                    )
                else:
                    # Delta-aware: an append changes the shard token,
                    # so plan-cache entries and serving ETags keyed on
                    # this token invalidate on every batch landed.
                    digest.update(self.shard_token(index).encode("ascii"))
            for table in (self.system_names, self.categories, self.sources,
                          self.details):
                digest.update(repr(table).encode("utf-8"))
            token = "sharded-" + digest.hexdigest()
            self._content_token = token
        return token

    # -- cohort sketches -----------------------------------------------------

    def _segment_sketch(self, segment: Segment) -> CohortSketch:
        """A segment's sketch: sidecar if trustworthy, else rebuilt.

        A missing/stale/corrupt sidecar never degrades correctness —
        every replica's sidecar is tried (a sidecar is token-stamped,
        so any replica's copy is equally trustworthy), then the sketch
        is recomputed from the segment's rows (counted in
        ``sketch_rebuilds``; ``sketch build`` persists fresh sidecars).
        """
        paths = segment.replicas
        start = self._replica_pref.get(segment.label, 0)
        for offset in range(len(paths)):
            replica = paths[(start + offset) % len(paths)]
            try:
                sketch = load_sketch_sidecar(replica, segment.token)
                self.counters["sketch_sidecar_loads"] += 1
                return sketch
            except SketchError:
                continue
        self.counters["sketch_rebuilds"] += 1
        return build_sketch(self._open_replica(segment))

    def shard_sketch(self, index: int) -> CohortSketch:
        """The exact sketch of shard ``index``'s effective view.

        Delta-free shards answer straight from the base sidecar.  With
        pending deltas, segment sidecars are folded and the LWW
        contested-patient set is re-sketched exactly (see
        :func:`repro.sketch.fold.effective_sketch`) — O(contested +
        delta rows), never O(base rows).  Cached per shard token.
        """
        record = self._quarantined.get(index)
        if record is not None:
            raise ShardQuarantinedError(record["name"], record["reason"])
        token = self.shard_token(index)
        cached = self._shard_sketches.get(index)
        if cached is not None and cached[0] == token:
            return cached[1]
        base, *deltas = self._segments(index)
        sketch = self._segment_sketch(base)
        if deltas:
            self.counters["sketch_delta_resketches"] += 1
            sketch = effective_sketch(
                self._open_replica(base),
                [self._open_replica(delta) for delta in deltas],
                [sketch, *(self._segment_sketch(delta) for delta in deltas)],
            )
        self._shard_sketches[index] = (token, sketch)
        return sketch

    def store_sketch(self) -> CohortSketch:
        """The whole-store cohort sketch: a fold over shard sketches.

        Exact because shards partition patients.  Quarantined shards
        are skipped, mirroring the degraded query surface.  Cached per
        store ``content_token``, so appends/compactions/quarantines
        invalidate automatically.
        """
        token = self.content_token()
        cached = self._store_sketch
        if cached is not None and cached[0] == token:
            return cached[1]
        active = self.active_indices()
        if active:
            sketch = merge_sketches(
                self.shard_sketch(index) for index in active
            )
        else:
            sketch = empty_sketch(categories=tuple(self.categories))
        self.counters["sketch_folds"] += 1
        self._store_sketch = (token, sketch)
        return sketch

    def sketch_health(self) -> list[dict]:
        """Sidecar status per active segment (``sketch info`` payload)."""
        return [
            {"segment": segment.label,
             "status": sketch_sidecar_status(
                 segment.replicas[self._replica_pref.get(segment.label, 0)
                                  % len(segment.replicas)],
                 segment.token,
             )}
            for index in self.active_indices()
            for segment in self._segments(index)
        ]

    def rebuild_sketches(self, force: bool = False,
                         durable: bool = True) -> list[dict]:
        """Regenerate missing/stale/corrupt sidecars from segment rows.

        Returns one record per segment rewritten (its previous status).
        With ``force=True`` every active segment is re-sketched.  Used
        by ``sketch build`` and by ``shard repair`` after salvage.
        """
        rebuilt: list[dict] = []
        for index in self.active_indices():
            for segment in self._segments(index):
                # Every *existing* replica gets a fresh sidecar (a
                # damaged replica's columns are the scrubber's job);
                # the rows are read once from a healthy replica.
                stale = [
                    (replica, sketch_sidecar_status(replica, segment.token))
                    for replica in segment.replicas
                    if os.path.isdir(replica)
                ]
                if not force:
                    stale = [(r, s) for r, s in stale if s != "ok"]
                if not stale:
                    continue
                sketch = build_sketch(self._open_replica(segment))
                for replica, status in stale:
                    write_sketch_sidecar(replica, sketch, segment.token,
                                         durable=durable)
                    rebuilt.append({
                        "segment": segment.replica_name(replica, "store"),
                        "status": status,
                    })
        if rebuilt:
            self._shard_sketches = {}
            self._store_sketch = None
        return rebuilt

    def sketch_stats(self) -> dict:
        """JSON-ready sketch/view counters (``/stats`` payload)."""
        return {
            **{k: int(v) for k, v in self.counters.items()},
            "cached_shard_sketches": len(self._shard_sketches),
            "store_sketch_cached": self._store_sketch is not None,
        }

    def delta_stats(self) -> dict:
        """JSON-ready pending-delta statistics (compaction lag).

        Surfaced by ``shard info``, ``Workbench.shard_stats`` and the
        serving tier's ``/stats``/``/readyz``.
        """
        return pending_delta_stats(self.manifest)

    # -- patient routing -----------------------------------------------------

    def owner_of(self, patient_id: int) -> int:
        """The index of the shard holding ``patient_id``.

        Hash partitions recompute the assignment; range partitions
        binary-search the manifest's per-shard id ranges.  Raises
        :class:`~repro.errors.EventModelError` for unknown patients.
        """
        if self.partition == "hash":
            index = int(hash_shard_of(
                np.asarray([patient_id], dtype=np.int64), self.n_shards
            )[0])
            if index in self._quarantined:
                raise EventModelError(
                    f"patient {patient_id} is unavailable: owning shard "
                    f"{self._quarantined[index]['name']} is quarantined"
                )
            if self._shard_has_patient(index, patient_id):
                return index
            raise EventModelError(f"no patient {patient_id} in store")
        quarantined_owner: str | None = None
        for index, entry in enumerate(self.shard_entries):
            lo, hi = entry["patient_min"], entry["patient_max"]
            if lo is None:
                continue
            if lo <= patient_id <= hi:
                if index in self._quarantined:
                    quarantined_owner = entry["name"]
                    continue
                if self._shard_has_patient(index, patient_id):
                    return index
        if quarantined_owner is not None:
            raise EventModelError(
                f"patient {patient_id} is unavailable: owning shard "
                f"{quarantined_owner} is quarantined"
            )
        raise EventModelError(f"no patient {patient_id} in store")

    def _shard_has_patient(self, index: int, patient_id: int) -> bool:
        pids = self.shard(index).patient_ids
        pos = np.searchsorted(pids, patient_id)
        return bool(pos < len(pids) and pids[pos] == patient_id)

    def birth_day_of(self, patient_id: int) -> int:
        return self.shard(self.owner_of(patient_id)).birth_day_of(patient_id)

    def sex_of(self, patient_id: int) -> str:
        return self.shard(self.owner_of(patient_id)).sex_of(patient_id)

    def materialize(self, patient_id: int):
        """Build one patient's :class:`History` from their shard alone."""
        return self.shard(self.owner_of(patient_id)).materialize(patient_id)

    def patient_rows(self, patient_ids: Iterable[int]) -> EventStore:
        """The given patients' rows, read from their owning shards alone.

        Groups the ids by :meth:`owner_of` and takes each group as one
        :meth:`EventStore.patient_rows` slice of its shard's effective
        view (delta-pending and replicated shards included), so the cost
        is O(rows returned) and the store is never merged.
        """
        groups: dict[int, list[int]] = {}
        wanted = np.unique(np.fromiter(patient_ids, dtype=np.int64))
        for pid in wanted.tolist():
            groups.setdefault(self.owner_of(pid), []).append(pid)
        parts = [self.shard(index).patient_rows(pids)
                 for index, pids in sorted(groups.items())]
        return self._concat(
            parts or [self.shard(self.active_indices()[0]).patient_rows([])]
        )

    def to_cohort(self, patient_ids: Iterable[int] | None = None):
        from repro.events.model import Cohort  # noqa: PLC0415 (cheap)

        ids = (self.patient_ids.tolist() if patient_ids is None
               else patient_ids)
        return Cohort(self.materialize(int(p)) for p in ids)

    @property
    def patient_ids(self) -> np.ndarray:
        """All patient ids, sorted (concatenated from every shard)."""
        if self._patient_ids is None:
            parts = [shard.patient_ids for shard in self.iter_shards()]
            merged = (np.sort(np.concatenate(parts)) if parts
                      else np.empty(0, dtype=np.int64))
            merged.setflags(write=False)
            self._patient_ids = merged
        return self._patient_ids

    # -- whole-store fallback ------------------------------------------------

    def materialize_store(self) -> EventStore:
        """Merge every shard into one in-memory ``EventStore``.

        Rows are re-sorted globally by ``(patient, day)``, so the result
        is indistinguishable from loading the equivalent flat store —
        the anchor for the viz/stats/export paths and for
        :func:`repro.io.merge_stores`.  Cached after the first call.
        """
        if self._materialized is None:
            self.counters["row_materializations"] += 1
            self._materialized = self._concat(list(self.iter_shards()))
        return self._materialized

    def _concat(self, parts: list[EventStore]) -> EventStore:
        """One store from patient-disjoint shard stores, re-sorted by
        ``(patient, day)``; each patient's rows keep their shard order."""
        columns = {
            name: np.concatenate([np.asarray(getattr(s, name)) for s in parts])
            for name in (*EVENT_COLUMNS, "patient_ids", "birth_days", "sexes")
        }
        order = np.lexsort((columns["day"], columns["patient"]))
        for name in EVENT_COLUMNS:
            columns[name] = columns[name][order]
        pid_order = np.argsort(columns["patient_ids"], kind="stable")
        for name in ("patient_ids", "birth_days", "sexes"):
            columns[name] = columns[name][pid_order]
        return EventStore(
            systems=self.systems,
            system_names=self.system_names,
            categories=self.categories,
            sources=self.sources,
            details=self.details,
            **columns,
        )

    def __getattr__(self, name: str):
        # Anything not implemented shard-wise (column arrays, mask
        # methods, iter_events, ...) resolves against the materialized
        # merged store.  Dunder lookups stay errors so copy/pickle
        # protocols don't silently materialize gigabytes.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize_store(), name)

    def __repr__(self) -> str:
        return (
            f"ShardedEventStore({self.path!r}: {self.n_shards} shards, "
            f"{self.n_patients} patients, {self.n_events} events)"
        )
