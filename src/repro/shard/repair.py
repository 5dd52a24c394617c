"""Offline shard diagnosis (fsck) and repair.

The quarantine machinery in :class:`~repro.shard.store.ShardedEventStore`
keeps a damaged store *serving*; this module is how an operator makes it
*whole* again.  Both halves walk the segment catalogue
(:func:`repro.shard.format.segments`) and share the read path's verify
and install primitives, so fsck, the scrubber and every open agree on
what damage is:

* :func:`fsck_store` runs :func:`~repro.shard.format.check_replica` on
  every replica of every segment listed in the root manifest — base and
  delta, all columns, and the root manifest's content token, not just
  the first failure — and reports each shard's health (``ok``,
  ``checksum``, ``format``, ``missing``, ``quarantined``).  A replica
  whose token drifted from the root manifest's is damage here exactly
  as it is on open.
* :func:`repair_store` restores damaged shards, cheapest evidence first:

  1. **Salvage**: if the shard's column files (a surviving peer replica
     in place, or a ``quarantine/`` copy) still load and the rebuilt
     content hashes to the *root manifest's* recorded
     ``content_token``, the segment is rewritten from those columns.
     The token check is what makes this safe — a manifest deleted by
     accident salvages cleanly, while a flipped data byte changes the
     token and is refused, so corruption is never laundered into a
     "repaired" shard.  On a replicated store, in-place peer replicas
     are tried *before* quarantine copies or a ``--from`` source.
  2. **Rebuild**: with a repair ``source`` (the flat ``.npz`` the store
     was sharded from, or a sibling sharded store's merged view), the
     shard's patients are re-derived from the partition scheme and the
     segment is rewritten from the source's rows.

  Repaired segments install through
  :func:`~repro.shard.format.install_dir` — staged, verified, the
  damaged original moved into ``quarantine/``, replaced, fsynced — and
  the root manifest is rewritten atomically with the new shard entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import EventModelError, ShardRepairError
from repro.events.store import EventStore, default_systems
from repro.io import read_jsonl
from repro.shard.format import (
    COLUMNS,
    MANIFEST_NAME,
    Segment,
    check_replica,
    install_dir,
    read_store_manifest,
    segment_entry,
    segments,
    write_replicated_segment,
    write_store_manifest,
)
from repro.shard.store import DAMAGE_LOG_NAME, QUARANTINE_DIR
from repro.shard.writer import conform_tables, hash_shard_of, subset_store

__all__ = [
    "FsckReport",
    "RepairAction",
    "RepairReport",
    "ShardHealth",
    "fsck_store",
    "repair_store",
]


@dataclass(frozen=True)
class ShardHealth:
    """One shard's fsck verdict.

    ``status`` is one of ``ok``, ``checksum`` (one or more column files
    fail their manifest checksum), ``format`` (manifest missing/invalid
    or column files missing), ``missing`` (the shard directory is gone)
    or ``quarantined`` (gone from the serving set, but a copy sits in
    ``quarantine/``).

    On a replicated store ``replicas`` carries one record per replica
    of the base segment — and the shard is only ``ok`` when *every*
    replica is, so "serving fine off one healthy replica" still shows
    as damage that the scrubber (or ``shard scrub``) must heal before
    the store is fsck-clean again.
    """

    name: str
    index: int
    status: str
    detail: str = ""
    bad_columns: tuple[str, ...] = ()
    replicas: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "status": self.status,
            "detail": self.detail,
            "bad_columns": list(self.bad_columns),
            "replicas": [dict(r) for r in self.replicas],
        }


@dataclass(frozen=True)
class FsckReport:
    """Health of every shard in one store.

    ``orphans`` lists directories the segment catalogue does not
    reference — strandings of a crashed append, compaction or install
    (unreferenced ``delta-*`` dirs, superseded generations, ``.stage-*``
    / ``.old-*`` temporaries).  Orphans are unreachable by any reader,
    so they are reported for hygiene but do not make the store unclean;
    the next append, compaction or install of the segment reclaims
    them.

    ``sketch_issues`` lists segments whose ``sketch.npz`` sidecar is
    missing, stale or corrupt.  Sketches are *derived* data — a pure
    function of the segment columns — so a bad sidecar is always
    repairable in place (``repro sketch build``, or any
    :func:`repair_store` run) and never makes the store unclean: the
    read path falls back to rebuilding the sketch from rows.
    """

    path: str
    shards: tuple[ShardHealth, ...]
    orphans: tuple[str, ...] = ()
    sketch_issues: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(s.status == "ok" for s in self.shards)

    @property
    def damaged(self) -> tuple[ShardHealth, ...]:
        return tuple(s for s in self.shards if s.status != "ok")

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "shards": [s.to_json() for s in self.shards],
            "orphans": list(self.orphans),
            "sketch_issues": [dict(issue) for issue in self.sketch_issues],
        }

    def format_summary(self) -> str:
        lines = []
        for s in self.shards:
            if s.status == "ok":
                lines.append(f"{s.name}: ok")
            else:
                cols = f" (columns: {', '.join(s.bad_columns)})" \
                    if s.bad_columns else ""
                lines.append(f"{s.name}: {s.status.upper()}{cols}: {s.detail}")
        for orphan in self.orphans:
            lines.append(f"{orphan}: orphan (unreferenced; reclaimed by the "
                         f"next append/compaction)")
        for issue in self.sketch_issues:
            lines.append(f"{issue['segment']}: sketch {issue['status']} "
                         f"(repairable: rebuilds from segment columns — "
                         f"run `repro sketch build`)")
        verdict = "clean" if self.ok else \
            f"{len(self.damaged)} of {len(self.shards)} shard(s) damaged"
        lines.append(f"fsck: {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairAction:
    """What :func:`repair_store` did to one shard.

    ``action`` is ``intact`` (nothing to do), ``salvaged`` (rebuilt from
    its own token-verified column files), ``rebuilt`` (re-derived from
    the repair source) or ``unrepairable``.
    """

    name: str
    index: int
    action: str
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :func:`repair_store` run.

    ``sketches`` records the sketch sidecars regenerated during salvage
    (segment label plus the previous sidecar status)."""

    path: str
    actions: tuple[RepairAction, ...]
    sketches: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(a.action != "unrepairable" for a in self.actions)

    @property
    def repaired(self) -> tuple[RepairAction, ...]:
        return tuple(a for a in self.actions
                     if a.action in ("salvaged", "rebuilt"))

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "actions": [a.to_json() for a in self.actions],
            "sketches": [dict(s) for s in self.sketches],
        }

    def format_summary(self) -> str:
        lines = [f"{a.name}: {a.action}"
                 + (f" ({a.detail})" if a.detail else "")
                 for a in self.actions]
        for s in self.sketches:
            lines.append(f"{s['segment']}: sketch sidecar regenerated "
                         f"(was {s['status']})")
        verdict = ("repair complete" if self.ok
                   else "repair INCOMPLETE: some shards need a --from source")
        lines.append(verdict)
        return "\n".join(lines)


# -- fsck ----------------------------------------------------------------------


def _find_orphans(path: str, catalogue: list[Segment]) -> tuple[str, ...]:
    """Directories under the store the catalogue does not reference.

    The store root and every segment directory are listed: anything
    there that is neither a catalogued segment or replica nor
    ``quarantine/`` is a stranding — unreachable (readers only follow
    the catalogue), reported for hygiene, reclaimed by the next append,
    compaction or install that reaches it.
    """
    known = {os.path.join(path, QUARANTINE_DIR)}
    for segment in catalogue:
        known.update((segment.directory, *segment.replicas))
    orphans: list[str] = []
    for parent in (path, *(segment.directory for segment in catalogue)):
        if not os.path.isdir(parent):
            continue
        for item in sorted(os.listdir(parent)):
            full = os.path.join(parent, item)
            if os.path.isdir(full) and full not in known:
                orphans.append(os.path.relpath(full, path))
    return tuple(orphans)


def fsck_store(path: str) -> FsckReport:
    """Re-verify every segment of the store at ``path`` (all replicas).

    Every replica of every catalogued segment — base and delta — gets
    the full check: manifest, every column, and the root manifest's
    content token; a shard reports every damaged segment, its deltas
    included even when the base is damaged too.  One damaged replica
    makes the shard unclean even while its peers keep the shard serving
    exactly.  Replicas that verify also get their sketch sidecar
    checked; unreferenced directories (crash strandings, superseded
    generations) are reported as orphans without failing the store.
    """
    from repro.sketch import sketch_sidecar_status  # noqa: PLC0415 (cycle)

    manifest = read_store_manifest(path)
    replicated = int(manifest.get("replication", 1)) > 1
    quarantine_dir = os.path.join(path, QUARANTINE_DIR)
    damage_by_name = {
        entry.get("name"): entry
        for entry in read_jsonl(os.path.join(quarantine_dir, DAMAGE_LOG_NAME),
                                tolerate_torn_tail=True)
    }
    catalogue: list[Segment] = []
    shards: list[ShardHealth] = []
    sketch_issues: list[dict] = []
    for index, entry in enumerate(manifest["shards"]):
        name = entry["name"]
        own = segments(path, manifest, index)
        catalogue.extend(own)
        if not os.path.isdir(own[0].shard_dir):
            if os.path.isdir(os.path.join(quarantine_dir, name)):
                damage = damage_by_name.get(name, {})
                shards.append(ShardHealth(
                    name, index, "quarantined",
                    damage.get("reason", "moved to quarantine"),
                ))
            else:
                shards.append(ShardHealth(
                    name, index, "missing", "shard directory is gone",
                ))
            continue
        status, details, bad, records = "ok", [], [], []
        for segment in own:
            for replica in segment.replicas:
                __, problems = check_replica(replica, segment.token)
                record = {
                    "segment": segment.label,
                    "replica": segment.replica_name(replica),
                    "status": problems[0].status if problems else "ok",
                    "detail": "; ".join(p.detail for p in problems),
                    "bad_columns": [p.column for p in problems if p.column],
                }
                records.append(record)
                if not problems:
                    sketch = sketch_sidecar_status(replica, segment.token)
                    if sketch != "ok":
                        sketch_issues.append({
                            "segment": segment.replica_name(replica, "store"),
                            "status": sketch,
                        })
                    continue
                # Findings name where they are inside the shard:
                # nothing for a flat base.
                where = segment.replica_name(replica, "shard")
                if status == "ok":
                    status = record["status"]
                details.append(record["detail"] if where == "."
                               else f"{where}: {record['detail']}")
                bad.extend(c if where == "." else f"{where}/{c}"
                           for c in record["bad_columns"])
        shards.append(ShardHealth(
            name, index, status, "; ".join(details), tuple(bad),
            replicas=tuple(records) if replicated else (),
        ))
    return FsckReport(path=path, shards=tuple(shards),
                      orphans=_find_orphans(path, catalogue),
                      sketch_issues=tuple(sketch_issues))


# -- repair --------------------------------------------------------------------


def _resolve_source(source) -> EventStore | None:
    """Accept an ``EventStore``, a sharded store, a path, or ``None``.

    A directory path opens as a sibling sharded store and contributes
    its merged view; any other path loads as a flat ``.npz`` snapshot.
    """
    if source is None:
        return None
    if isinstance(source, EventStore):
        return source
    if hasattr(source, "materialize_store"):
        return source.materialize_store()
    if os.path.isdir(str(source)):
        from repro.shard.store import ShardedEventStore  # noqa: PLC0415

        return ShardedEventStore(str(source)).materialize_store()
    from repro.io import load_store  # noqa: PLC0415 (io imports are cheap)

    return load_store(str(source))


def _columns_as_store(directory: str, manifest: dict) -> EventStore | None:
    """The store one directory's raw columns hold, or ``None``.

    Columns load eagerly, not mapped: salvage re-hashes and rewrites
    these bytes, so holding views into the damaged files is unsafe.
    """
    arrays = {}
    for name in COLUMNS:
        try:
            arrays[name] = np.load(os.path.join(directory, f"{name}.npy"),
                                   mmap_mode=None)
        except Exception:  # lintkit: disable=LK002 — a corrupted .npy
            return None    # header raises SyntaxError/TokenError, not
            # just OSError, and any load failure means "not salvageable
            # from this candidate"
    try:
        return EventStore(
            systems=default_systems(),
            system_names=list(manifest["system_names"]),
            categories=list(manifest["categories"]),
            sources=list(manifest["sources"]),
            details=list(manifest["details"]),
            **arrays,
        )
    except EventModelError:
        return None  # columns load but are mutually inconsistent


def _token_true_store(segment: Segment, manifest: dict) -> EventStore | None:
    """The segment rebuilt from any replica whose raw columns hash to
    the root manifest's recorded ``content_token``.

    The token is content-addressed over every column, so a match proves
    the columns are exactly the bytes the store was written with;
    anything else (a flipped data byte, stale columns from an older
    write) is refused.  On a replicated store the segment directory
    itself is a candidate too when it carries a flat-layout manifest (a
    quarantine copy taken before the store was re-replicated).
    """
    candidates = [r for r in segment.replicas if os.path.isdir(r)]
    if len(segment.replicas) > 1 and os.path.exists(
            os.path.join(segment.directory, MANIFEST_NAME)):
        candidates.append(segment.directory)
    for directory in candidates:
        store = _columns_as_store(directory, manifest)
        if store is not None and store.content_token() == segment.token:
            return store
    return None


def _salvage(path: str, manifest: dict, index: int) -> list | None:
    """Token-verified stores for every segment of shard ``index``.

    Copies of the shard directory are tried in order — the one in place
    first (its surviving peer replicas), then ``quarantine/`` copies —
    and the first copy whose base *and* every delta segment check out
    wins, so no delta event is silently dropped.  Returns the base
    store followed by one store per delta, or ``None``.
    """
    catalogue = segments(path, manifest, index)
    name = manifest["shards"][index]["name"]
    copies = [catalogue[0].shard_dir]
    quarantine_dir = os.path.join(path, QUARANTINE_DIR)
    if os.path.isdir(quarantine_dir):
        copies.extend(os.path.join(quarantine_dir, item)
                      for item in sorted(os.listdir(quarantine_dir))
                      if item == name or item.startswith(name + "."))
    for copy in copies:
        stores = []
        for segment in catalogue:
            store = _token_true_store(segment.within(copy), manifest)
            if store is None:
                break
            stores.append(store)
        else:
            return stores
    return None


def _shard_subset(source: EventStore, manifest: dict, index: int,
                  entry: dict) -> EventStore:
    """The source rows belonging to shard ``index`` under the store's
    partition scheme — the inverse of the writer's assignment."""
    if manifest["partition"] == "hash":
        assignment = hash_shard_of(source.patient_ids,
                                   len(manifest["shards"]))
        pids = source.patient_ids[assignment == index]
    else:
        lo, hi = entry["patient_min"], entry["patient_max"]
        if lo is None:
            pids = np.empty(0, dtype=np.int64)
        else:
            ids = source.patient_ids
            pids = ids[(ids >= lo) & (ids <= hi)]
    tables = (manifest["categories"], manifest["sources"],
              manifest["details"])
    try:
        return conform_tables(subset_store(source, pids), tables)
    except EventModelError as exc:
        raise ShardRepairError(
            entry["name"],
            f"repair source has {exc}; re-shard instead of repairing",
        ) from exc


def _install(path: str, manifest: dict, index: int,
             stores: list[EventStore]) -> dict:
    """Install ``stores`` (the shard's base, then its deltas) as shard
    ``index``'s segments, atomically; returns the base manifest.

    The segments are written into a staging copy of the shard directory
    at the catalogue's locations, with every replica the store
    carries, then :func:`~repro.shard.format.install_dir` verifies the
    staged base, moves the damaged original into ``quarantine/`` —
    repair never destroys evidence — and replaces it.  Passing fewer
    stores than the shard has segments drops the remaining deltas.
    """
    catalogue = segments(path, manifest, index)

    def stage(tmp: str) -> None:
        for segment, store in zip(catalogue, stores):
            write_replicated_segment(
                store, segment.within(tmp).directory, index,
                replication=len(segment.replicas),
            )

    return install_dir(catalogue[0].shard_dir, stage,
                       replication=len(catalogue[0].replicas),
                       keep_old_in=os.path.join(path, QUARANTINE_DIR))


def repair_store(path: str, source=None) -> RepairReport:
    """Repair every damaged shard of the store at ``path``.

    ``source`` may be an :class:`EventStore`, a sharded store (or the
    path of either: a flat ``.npz`` file or a sharded-store directory)
    holding the same population — the authority to rebuild from when a
    shard's own bytes are beyond salvage.  Returns a
    :class:`RepairReport`; shards that could not be repaired are listed
    as ``unrepairable`` (the report's ``ok`` is then False) rather than
    raised, so one hopeless shard does not abort the others' repairs.
    The root manifest is rewritten with the repaired shard entries.
    """
    manifest = read_store_manifest(path)
    report = fsck_store(path)
    source_store = _resolve_source(source)
    entries = [dict(entry) for entry in manifest["shards"]]
    actions: list[RepairAction] = []
    for health in report.shards:
        index, name = health.index, health.name
        entry = entries[index]
        deltas = list(entry.get("deltas") or [])
        if health.status == "ok":
            actions.append(RepairAction(name, index, "intact"))
            continue
        salvaged = _salvage(path, manifest, index)
        if salvaged is not None:
            seg = _install(path, manifest, index, salvaged)
            action = RepairAction(
                name, index, "salvaged",
                "columns re-verified against the manifest content token"
                + (f" ({len(deltas)} delta segment(s) restored)"
                   if deltas else ""),
            )
        elif source_store is not None:
            seg = _install(path, manifest, index, [
                _shard_subset(source_store, manifest, index, entry)])
            # The repair source is the authority for the shard's whole
            # content: the rebuilt segment is effectively compacted, so
            # any pending deltas (whose events the source must already
            # include) are dropped from the entry.
            detail = (
                "content token matches the manifest"
                if seg["content_token"] == entry["content_token"]
                else "content updated from the repair source"
            )
            if deltas:
                detail += (f"; {len(deltas)} pending delta segment(s) "
                           f"folded into the rebuilt base")
            action = RepairAction(name, index, "rebuilt", detail)
            deltas = []
        else:
            actions.append(RepairAction(
                name, index, "unrepairable",
                f"{health.status}: {health.detail or 'no salvageable copy'}; "
                f"pass a repair source",
            ))
            continue
        entries[index] = segment_entry(
            name, seg, generation=int(entry.get("generation") or 0),
            deltas=deltas,
        )
        actions.append(action)
    if any(a.action in ("salvaged", "rebuilt") for a in actions):
        write_store_manifest(path, {
            **manifest, "shards": entries,
            "revision": int(manifest.get("revision", 0)) + 1,
        })
    # Sketches are derived data: whatever segments survive (or were just
    # reinstalled) get current sidecars, so the next fsck is sketch-clean
    # too.  Unrepairable shards are skipped — their segments cannot open.
    sketches: tuple[dict, ...] = ()
    if all(a.action != "unrepairable" for a in actions):
        from repro.shard.store import ShardedEventStore  # noqa: PLC0415

        sketches = tuple(ShardedEventStore(path).rebuild_sketches())
    return RepairReport(path=path, actions=tuple(actions),
                        sketches=sketches)
