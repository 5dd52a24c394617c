"""The on-disk segment format and the one segment catalogue.

One shard is one directory::

    shard-0003/
      manifest.json     # schema version, row counts, ranges, checksums
      patient.npy day.npy end.npy is_point.npy category.npy system.npy
      code.npy value.npy value2.npy source.npy detail.npy
      patient_ids.npy birth_days.npy sexes.npy

Column files are plain ``.npy`` so they open with
``np.load(mmap_mode="r")`` — a shard costs address space, not resident
memory, until a query touches its columns.  The manifest carries a
blake2b checksum per column, verified when the shard is opened (a
flipped byte anywhere raises :class:`~repro.errors.ShardChecksumError`),
plus the shard's memoized ``content_token`` so the query cache never
pays a rehash on open.

String tables (categories, sources, details) and code-system
fingerprints live in the *store-level* manifest and are shared by every
shard: the writer never re-interns per shard, so per-shard integer
columns all decode through one table and concatenation across shards
stays valid.

With :attr:`~repro.config.ShardConfig.replication` R >= 2 the segment
directory instead holds R byte-identical *replica* subdirectories, each
a complete copy of the layout above::

    shard-0003/
      r0/  manifest.json patient.npy ... sketch.npz
      r1/  manifest.json patient.npy ... sketch.npz

Replicas share one ``content_token`` (they are the same bytes), so the
root manifest records a single entry per shard plus the store-wide
``replication`` count; :func:`replica_paths` maps a segment directory
to its replica directories (the legacy flat layout is the R=1 case).

This module owns the layout, and every walker goes through three
primitives here instead of re-deriving it:

* :func:`segments` — the catalogue: each shard's base segment, then its
  delta segments, with the root manifest's content token and the
  replica directories of each.  Opens, fsck, the scrubber, salvage,
  replication and compaction all list segments through it.
* :func:`check_replica` — the one verify primitive: it reports every
  problem of one replica (manifest format, listed checksums, each
  column's hash, and a content token that differs from the
  catalogue's).  :func:`verify_segment` is its raise-first form, the
  check every open runs.
* :func:`install_dir` — the one atomic directory install (stage, verify
  the staged copy, move the old directory aside, replace, fsync) used
  by replica copies, repair and compaction.

Every file is written to a temporary name in the same directory and
``os.replace``d into place, then the directory entry is fsynced, so a
crash mid-write can leave stray temporaries but never a truncated
column under its final name — and a power cut after the replace cannot
tear the rename back out of the directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.errors import ShardChecksumError, ShardFormatError, ShardStoreError
from repro.events.store import EventStore, default_systems
from repro.resilience.faults import crashpoint

__all__ = [
    "COLUMNS",
    "MANIFEST_NAME",
    "Problem",
    "SHARD_FORMAT_VERSION",
    "Segment",
    "atomic_replace",
    "check_column",
    "check_replica",
    "checksum_file",
    "fsync_dir",
    "install_dir",
    "open_segment",
    "open_segment_any",
    "quarantine_slot",
    "read_store_manifest",
    "replica_dir_name",
    "replica_paths",
    "replicate_segment_dir",
    "segment_dir",
    "segment_entry",
    "segments",
    "verify_segment",
    "write_replicated_segment",
    "write_segment",
    "write_store_manifest",
]

SHARD_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Event columns followed by the patient (demographics) columns —
#: together the full columnar state of one :class:`EventStore`.
COLUMNS = (
    "patient", "day", "end", "is_point", "category", "system", "code",
    "value", "value2", "source", "detail",
    "patient_ids", "birth_days", "sexes",
)

#: Segment-manifest fields the root manifest records per segment.
_ENTRY_FIELDS = ("n_patients", "n_events", "patient_min", "patient_max",
                 "content_token")


def atomic_replace(path: str, write, durable: bool = False) -> None:
    """Run ``write(tmp_path)`` then ``os.replace`` the result to ``path``.

    The temporary lives in the target directory (``os.replace`` must not
    cross filesystems) and keeps the target's extension (``np.save``
    appends ``.npy`` to extension-less names).

    With ``durable=True`` the temporary's bytes are fsynced before the
    replace and the directory entry after it, and each boundary is a
    :func:`~repro.resilience.faults.crashpoint` — the incremental
    ingestion path (delta append, compaction, manifest bump) uses this
    so a crash at *any* point leaves either the old file or the new
    one, provably, under the crash-matrix harness.

    Without ``durable`` the file bytes are left to the OS writeback,
    but the directory entry is still fsynced after the replace: a
    rename that was observed (by fsck, a reader, or a subsequent
    manifest commit) must not vanish on power loss, or a "repaired"
    or freshly built segment could silently tear back to its old name.
    """
    directory = os.path.dirname(os.path.abspath(path))
    suffix = os.path.splitext(path)[1]
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=suffix)
    os.close(fd)
    try:
        write(tmp)
        name = os.path.basename(path)
        if durable:
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            crashpoint(f"fsync:{name}")
            os.replace(tmp, path)
            crashpoint(f"replace:{name}")
            fsync_dir(directory)
        else:
            os.replace(tmp, path)
            crashpoint(f"replace:{name}")
            fsync_dir(directory)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def fsync_dir(directory: str) -> None:
    """fsync a directory so renames inside it survive a power cut."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        # fsync_dir is the protocol's terminal primitive: every caller
        # (atomic_replace, install_dir, save_store, …) places its own
        # crashpoint around the enclosing replace+fsync sequence, so a
        # crashpoint here would double-count each install boundary.
        os.fsync(fd)  # lintkit: disable=LK202
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still landed
    finally:
        os.close(fd)


def checksum_file(path: str) -> str:
    """blake2b hex digest of a file's raw bytes (streamed)."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, payload: dict, durable: bool = False) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, sort_keys=True, indent=1)

    atomic_replace(path, write, durable=durable)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ShardFormatError(
            os.path.dirname(path) or path, f"missing {os.path.basename(path)}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ShardFormatError(path, f"manifest is not valid JSON: {exc}") \
            from exc


# -- shard segments ------------------------------------------------------------


def write_segment(store: EventStore, directory: str, index: int,
                  durable: bool = False) -> dict:
    """Write one shard's columns plus its manifest; return the manifest.

    ``store`` holds exactly the shard's rows and patients (the writer
    slices the parent store before calling).  String tables are *not*
    written here — they live in the store-level manifest.  ``durable``
    fsyncs every column and the manifest (the delta/compaction path,
    where crash-anywhere safety is the contract).
    """
    os.makedirs(directory, exist_ok=True)
    columns: dict[str, dict] = {}
    for name in COLUMNS:
        array = np.ascontiguousarray(getattr(store, name))
        path = os.path.join(directory, f"{name}.npy")
        atomic_replace(path, lambda tmp, a=array: np.save(tmp, a),
                       durable=durable)
        columns[name] = {
            "checksum": checksum_file(path),
            "dtype": str(array.dtype),
            "length": int(len(array)),
        }
    pids = store.patient_ids
    token = store.content_token()
    # The sketch sidecar lands before the segment manifest: a crash in
    # between leaves a sketch stamped with a token no manifest claims —
    # detected as stale and rebuilt, never trusted.  Imported lazily
    # (repro.sketch depends on this module for atomic_replace).
    from repro.sketch.model import build_sketch
    from repro.sketch.sidecar import write_sketch_sidecar

    write_sketch_sidecar(directory, build_sketch(store), token,
                         durable=durable)
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "shard_index": int(index),
        "n_events": int(store.n_events),
        "n_patients": int(store.n_patients),
        "patient_min": int(pids.min()) if len(pids) else None,
        "patient_max": int(pids.max()) if len(pids) else None,
        "content_token": token,
        "columns": columns,
    }
    _write_json(os.path.join(directory, MANIFEST_NAME), manifest,
                durable=durable)
    return manifest


def segment_entry(name: str, manifest: dict, **extra) -> dict:
    """The root manifest's record of segment ``name`` (plus ``extra``).

    ``manifest`` is the segment manifest :func:`write_segment` returned
    (or :func:`install_dir` verified): counts, patient-id range and
    content token.  Shard entries add ``generation`` and ``deltas``.
    """
    return {"name": name, **{k: manifest[k] for k in _ENTRY_FIELDS},
            **extra}


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One thing wrong with one replica directory.

    ``status`` is ``missing`` (the directory is gone), ``format`` (its
    manifest is missing, not JSON, of another version or lists no
    checksum for a column) or ``checksum`` (a column file is missing or
    hashes wrong, or the content token differs from the root
    manifest's).  ``column`` names the damaged column —
    ``content_token`` for a drifted token.
    """

    status: str
    detail: str
    column: str = ""
    expected: str = ""
    actual: str = ""

    def error(self, directory: str) -> ShardStoreError:
        """The exception an open raises for this problem.

        A mismatch between a recorded and an observed value (a column
        hash, the content token) is :class:`ShardChecksumError`;
        anything else (a missing file or directory, a bad manifest) is
        :class:`ShardFormatError`.
        """
        if self.actual:
            return ShardChecksumError(os.path.basename(directory),
                                      self.column, self.expected,
                                      self.actual)
        return ShardFormatError(directory, self.detail)


def _segment_manifest(directory: str) -> dict:
    """One replica's manifest, or :class:`ShardFormatError`."""
    manifest = _read_json(os.path.join(directory, MANIFEST_NAME))
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise ShardFormatError(
            directory,
            f"unsupported shard format version "
            f"{manifest.get('format_version')!r}",
        )
    unlisted = [name for name in COLUMNS
                if name not in manifest.get("columns", {})]
    if unlisted:
        raise ShardFormatError(
            directory, f"manifest lists no checksum for columns {unlisted}"
        )
    return manifest


def check_column(directory: str, manifest: dict, name: str) -> Problem | None:
    """Re-hash one column file against its replica manifest's checksum."""
    path = os.path.join(directory, f"{name}.npy")
    if not os.path.exists(path):
        return Problem("checksum", f"{name}.npy missing", name)
    expected = manifest["columns"][name]["checksum"]
    actual = checksum_file(path)
    if actual != expected:
        return Problem("checksum", f"{name}.npy checksum mismatch", name,
                       expected, actual)
    return None


def _problems(directory: str, manifest: dict, token: str | None,
              columns=COLUMNS):
    """Lazily, the token and column problems of a parsed replica."""
    recorded = manifest.get("content_token")
    if token is not None and recorded != token:
        yield Problem("checksum",
                      "content token drifted from the root manifest",
                      "content_token", token, str(recorded))
    for name in columns:
        problem = check_column(directory, manifest, name)
        if problem is not None:
            yield problem


def check_replica(directory: str, token: str | None = None,
                  columns=COLUMNS) -> tuple[dict | None, list[Problem]]:
    """Every problem of one replica directory, raising nothing.

    Returns the replica's manifest (``None`` when it cannot be read)
    and its problems: a missing directory or a bad manifest is the only
    problem reported; otherwise a ``token`` that differs from the
    manifest's ``content_token`` and every listed ``columns`` file that
    is missing or hashes wrong.  ``columns=()`` checks the manifest and
    token alone (the scrubber's per-replica unit).
    """
    if not os.path.isdir(directory):
        return None, [Problem("missing", "replica directory is gone")]
    try:
        manifest = _segment_manifest(directory)
    except ShardFormatError as exc:
        return None, [Problem("format", exc.detail)]
    return manifest, list(_problems(directory, manifest, token, columns))


def verify_segment(directory: str, token: str | None = None,
                   columns=COLUMNS) -> dict:
    """The raise-first form of :func:`check_replica`.

    Returns the manifest on success; raises
    :class:`~repro.errors.ShardFormatError` for layout problems and
    :class:`~repro.errors.ShardChecksumError` for the first corrupt
    listed ``columns`` file found — or, when ``token`` is given, for a
    manifest whose ``content_token`` differs from it (column
    ``content_token``).
    """
    manifest = _segment_manifest(directory)
    for problem in _problems(directory, manifest, token, columns):
        raise problem.error(directory)
    return manifest


def open_segment(
    directory: str,
    systems,
    system_names: list[str],
    categories: list[str],
    sources: list[str],
    details: list[str],
    verify_checksums: bool = True,
    token: str | None = None,
) -> EventStore:
    """Open one shard directory as a memory-mapped :class:`EventStore`.

    ``token`` is the root manifest's record of the segment: a replica
    whose own manifest names another ``content_token`` raises
    :class:`~repro.errors.ShardChecksumError` even when checksum
    verification is off (one string compare).  The token itself comes
    straight from the manifest — it is content-addressed, so trusting
    it keeps opens O(metadata) when columns are not re-hashed.
    """
    manifest = verify_segment(directory, token,
                              COLUMNS if verify_checksums else ())
    arrays = {}
    for name in COLUMNS:
        path = os.path.join(directory, f"{name}.npy")
        try:
            arrays[name] = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise ShardFormatError(
                directory, f"column file {name}.npy failed to load: {exc}"
            ) from exc
    store = EventStore(
        systems=systems,
        system_names=list(system_names),
        categories=list(categories),
        sources=list(sources),
        details=list(details),
        **arrays,
    )
    if manifest.get("content_token"):
        store._content_token = manifest["content_token"]
    return store


# -- the catalogue -------------------------------------------------------------


def replica_dir_name(replica: int) -> str:
    """Directory name of replica ``k`` inside a segment directory."""
    return f"r{int(replica)}"


def replica_paths(segment_dir: str, replication: int) -> list[str]:
    """The replica directories of one segment.

    R=1 is the legacy flat layout — the segment directory itself holds
    the columns — so the list is just ``[segment_dir]``.  With R >= 2
    every replica is listed whether or not it currently exists on disk
    (a missing replica is damage for the scrubber to heal, not a reason
    to shrink the set).
    """
    replication = max(1, int(replication))
    if replication == 1:
        return [segment_dir]
    return [
        os.path.join(segment_dir, replica_dir_name(k))
        for k in range(replication)
    ]


def segment_dir(root: str, shard_name: str, delta: str | None = None) -> str:
    """Where a shard's base segment, or its delta segment ``delta``, lives."""
    shard_dir = os.path.join(root, shard_name)
    return shard_dir if delta is None else os.path.join(shard_dir, delta)


@dataclass(frozen=True)
class Segment:
    """One segment the root manifest lists: a shard's base or a delta.

    ``label`` is ``shard-0003`` for a base segment and
    ``shard-0003/delta-000001`` for a delta; ``token`` is the root
    manifest's record of its content; ``replicas`` are its replica
    directories (the segment directory itself at R=1).
    """

    label: str
    shard_dir: str
    directory: str
    token: str
    replicas: tuple[str, ...]

    def replica_name(self, replica: str, within: str = "segment") -> str:
        """How findings name one of ``replicas``, relative to ``within``.

        ``"segment"``: ``.`` on the flat R=1 layout, else ``rK``;
        ``"shard"``: that path inside the shard directory (``.``,
        ``r0``, ``delta-000001``, ``delta-000001/r0``); ``"store"``:
        the ``label``, then ``/rK`` when replicated.
        """
        if within == "shard":
            return os.path.relpath(replica, self.shard_dir)
        name = os.path.relpath(replica, self.directory)
        if within == "segment":
            return name
        return os.path.normpath(os.path.join(self.label, name))

    def within(self, shard_dir: str) -> "Segment":
        """The same segment inside another copy of its shard directory
        (a quarantine copy, or a staging directory being installed)."""

        def moved(path: str) -> str:
            return os.path.normpath(os.path.join(
                shard_dir, os.path.relpath(path, self.shard_dir)))

        return dataclasses.replace(
            self, shard_dir=shard_dir, directory=moved(self.directory),
            replicas=tuple(moved(r) for r in self.replicas),
        )


def segments(root: str, manifest: dict,
             shard: int | None = None) -> list[Segment]:
    """The catalogue: each shard's base segment, then its deltas.

    Lists every shard of the root ``manifest`` in order (or only shard
    index ``shard``).  Segments are listed whether or not their
    directories exist — a missing one is damage for the caller to
    report, quarantine or heal.
    """
    replication = max(1, int(manifest.get("replication", 1)))
    entries = manifest["shards"]
    listed = []
    for entry in entries if shard is None else [entries[shard]]:
        shard_dir = segment_dir(root, entry["name"])
        parts = [(None, entry["content_token"])] + [
            (delta["name"], delta["content_token"])
            for delta in entry.get("deltas") or []
        ]
        for delta, token in parts:
            directory = segment_dir(root, entry["name"], delta)
            listed.append(Segment(
                label=os.path.relpath(directory, root),
                shard_dir=shard_dir,
                directory=directory,
                token=token,
                replicas=tuple(replica_paths(directory, replication)),
            ))
    return listed


def open_segment_any(segment: Segment, start: int = 0, on_failover=None,
                     **open_kwargs):
    """Open whichever replica of a catalogued segment is healthy.

    Tries replicas in rotation starting at ``start`` (the caller's
    preferred replica), each checked against the catalogue's token; on
    checksum damage (a drifted token included), format damage, or an
    OS open failure it calls ``on_failover(replica_index, exc)`` and
    moves to the next peer.  Raises the last error only when *every*
    replica is unreadable — the zero-healthy-replica state that
    quarantine and ``/readyz`` report.
    """
    paths = segment.replicas
    last: Exception | None = None
    for k in ((start + i) % len(paths) for i in range(len(paths))):
        try:
            return k, open_segment(paths[k], token=segment.token,
                                   **open_kwargs)
        except (ShardChecksumError, ShardFormatError, OSError) as exc:
            last = exc
            if on_failover is not None:
                on_failover(k, exc)
    assert last is not None
    raise last


# -- the install ---------------------------------------------------------------

#: Prefix of the sibling directory an install stages into, and of the
#: one an existing directory is renamed to while its replacement moves
#: in.  fsck reports both as orphans, never as damage.
_STAGE_PREFIX = ".stage-"
_ASIDE_PREFIX = ".old-"


def quarantine_slot(quarantine_dir: str, name: str) -> str:
    """A free path for ``name`` inside ``quarantine_dir``.

    ``name`` itself, else ``name.1``, ``name.2``, ... — quarantined
    evidence is never overwritten.
    """
    os.makedirs(quarantine_dir, exist_ok=True)
    slot, suffix = os.path.join(quarantine_dir, name), 0
    while os.path.exists(slot):
        suffix += 1
        slot = os.path.join(quarantine_dir, f"{name}.{suffix}")
    return slot


def install_dir(target: str, stage, *, replication: int = 1,
                token: str | None = None, keep_old_in: str | None = None,
                durable: bool = False) -> dict:
    """Atomically replace directory ``target`` with one ``stage`` builds.

    1. ``stage(tmp)`` fills a fresh sibling staging directory;
    2. the staged segment's first replica is verified (against
       ``token`` when given) — the one hashing pass, before the
       install, so a torn or drifted copy never reaches the final name;
    3. an existing ``target`` is moved aside: into a fresh quarantine
       slot of ``keep_old_in`` (repair keeps the damaged original as
       evidence), or to an ``.old-`` sibling removed after the install;
    4. the staged directory replaces ``target`` and the parent
       directory is fsynced.

    ``durable`` also fsyncs the staged directory before the install.
    Every boundary is a :func:`crashpoint`, so the crash matrices prove
    a kill anywhere leaves either the old or the new directory under
    ``target``.  Returns the verified segment manifest.
    """
    parent = os.path.dirname(os.path.abspath(target))
    base = os.path.basename(target)
    tmp = os.path.join(parent, _STAGE_PREFIX + base)
    aside = os.path.join(parent, _ASIDE_PREFIX + base)
    for stale in (tmp, aside):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    try:
        stage(tmp)
        manifest = verify_segment(replica_paths(tmp, replication)[0], token)
        if durable:
            fsync_dir(tmp)
        crashpoint(f"fsync:{base}")
        if os.path.isdir(target):
            if keep_old_in is not None:
                os.rename(target, quarantine_slot(keep_old_in, base))
                fsync_dir(keep_old_in)
            else:
                os.replace(target, aside)
            crashpoint(f"replace:{base}")
        os.replace(tmp, target)
        crashpoint(f"installed:{base}")
        fsync_dir(parent)
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
    if os.path.isdir(aside):
        shutil.rmtree(aside)
        fsync_dir(parent)
    return manifest


def replicate_segment_dir(source: str, target: str, *,
                          token: str | None = None,
                          durable: bool = False) -> dict:
    """Install a byte-identical copy of replica ``source`` at ``target``.

    The source is verified (against ``token`` when given) before any
    byte moves, and :func:`install_dir` verifies the staged copy before
    it replaces ``target`` — a peer replica can never be "repaired"
    from a silently corrupt source, and a torn copy can never land
    under the final name.
    """
    verify_segment(source, token)

    def copy_files(tmp: str) -> None:
        for entry in sorted(os.listdir(source)):
            src_path = os.path.join(source, entry)
            if entry.startswith(".") or not os.path.isfile(src_path):
                continue  # stray temporaries and nested delta dirs stay
            dst_path = os.path.join(tmp, entry)
            shutil.copyfile(src_path, dst_path)
            if durable:
                fd = os.open(dst_path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    return install_dir(target, copy_files, token=token, durable=durable)


def write_replicated_segment(store: EventStore, directory: str, index: int,
                             replication: int = 1,
                             durable: bool = False) -> dict:
    """Write one segment as R token-verified replica copies.

    Replica 0 is written from the rows (columns, sketch sidecar,
    manifest); peers are byte copies of it, verified against the same
    ``content_token``.  R=1 is :func:`write_segment` in the legacy flat
    layout.  Returns the (shared) segment manifest.
    """
    primary, *peers = replica_paths(directory, replication)
    manifest = write_segment(store, primary, index, durable=durable)
    for peer in peers:
        replicate_segment_dir(primary, peer, token=manifest["content_token"],
                              durable=durable)
    return manifest


# -- store-level manifest ------------------------------------------------------


def write_store_manifest(directory: str, manifest: dict,
                         durable: bool = False) -> dict:
    """Write the root manifest tying the shards into one logical store.

    ``manifest`` carries the partition scheme, code-system names and
    sizes, string tables, ``shards`` entries, ``revision`` (a monotonic
    counter bumped by every append, compaction and repair — worker
    processes compare it against their cached store) and
    ``replication`` (replica copies per segment; 1 = legacy flat
    layout).  The format version, shard count and the patient/event
    totals (every entry's counts plus its deltas') are derived here.
    ``durable`` fsyncs the write (the commit point of append/compact).
    """
    counted = [(e, *(e.get("deltas") or [])) for e in manifest["shards"]]
    full = {
        **manifest,
        "format_version": SHARD_FORMAT_VERSION,
        "kind": "sharded_event_store",
        "n_shards": len(manifest["shards"]),
        "revision": int(manifest.get("revision", 0)),
        "replication": max(1, int(manifest.get("replication", 1))),
        "total_patients": sum(int(s["n_patients"])
                              for parts in counted for s in parts),
        "total_events": sum(int(s["n_events"])
                            for parts in counted for s in parts),
    }
    _write_json(os.path.join(directory, MANIFEST_NAME), full,
                durable=durable)
    return full


def read_store_manifest(directory: str) -> dict:
    """Read and validate the root manifest of a sharded store.

    Raises :class:`~repro.errors.ShardFormatError` on version or
    terminology-fingerprint mismatches — mirroring
    :func:`repro.io.load_store`, a store must fail loudly rather than
    mis-decode code ids against a drifted code system.
    """
    manifest = _read_json(os.path.join(directory, MANIFEST_NAME))
    if manifest.get("kind") != "sharded_event_store":
        raise ShardFormatError(
            directory,
            f"manifest kind {manifest.get('kind')!r} is not a sharded "
            f"event store",
        )
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise ShardFormatError(
            directory,
            f"unsupported store format version "
            f"{manifest.get('format_version')!r}",
        )
    systems = default_systems()
    for name, size in zip(manifest["system_names"], manifest["system_sizes"]):
        if name not in systems:
            raise ShardFormatError(
                directory, f"store references unknown code system {name!r}"
            )
        if len(systems[name]) != size:
            raise ShardFormatError(
                directory,
                f"code system {name!r} has {len(systems[name])} codes but "
                f"the store was written against {size}; code ids would "
                f"mis-decode",
            )
    return manifest
