"""Background scrubbing and anti-entropy self-repair for sharded stores.

Failover (:mod:`repro.shard.store`) keeps a replicated store *answering
exactly* while a replica is damaged; this module is what makes the
damage *go away* without an operator reaching for ``repair --from``:

* :class:`Scrubber` walks every replica of every segment of the
  catalogue (:func:`~repro.shard.format.segments`) — base and delta —
  with the read path's own verify primitive: the replica's manifest
  and its ``content_token`` against the root manifest
  (:func:`~repro.shard.format.check_replica`), then each column file
  against the manifest's checksum
  (:func:`~repro.shard.format.check_column`).  The walk is incremental
  and rate-limited: a resumable cursor over segments × replicas ×
  columns is persisted in a ``scrub.json`` journal at the store root,
  and each :meth:`Scrubber.tick` verifies at most a byte budget
  (``ShardConfig.scrub_bytes_per_tick``) before yielding, so scrubbing
  a terabyte store never monopolises the disk a serving tier is
  reading from.
* When a replica fails verification (flipped byte, truncation, deleted
  manifest, drifted token, missing directory), the scrubber runs
  **anti-entropy repair**: the replica is rebuilt from a token-verified
  peer via :func:`~repro.shard.format.replicate_segment_dir` — the one
  atomic directory install the write path uses, crash points included.
  A store that was serving degraded-by-capacity (one replica down)
  converges back to fsck-clean with no operator input and no repair
  source.
* Damage the replica set cannot heal on its own (an R=1 store, or a
  whole shard directory quarantined by the serving path) falls through
  to :func:`~repro.shard.repair.repair_store` at the end of a pass,
  which can still salvage token-verified bytes out of ``quarantine/``
  — so quarantine is a transient state, not permanent capacity loss.

:func:`replicate_store` is the companion administrative operation: it
raises the replication factor of an existing (healthy) store in place —
``R=1 → R=2`` re-replication — by materialising the replica layout next
to the live one and committing the new factor in a single durable
manifest write, so a kill anywhere leaves the store at exactly the old
or the new replication factor.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.config import ShardConfig
from repro.errors import ShardChecksumError, ShardFormatError, ShardRepairError
from repro.resilience.faults import crashpoint
from repro.shard.format import (
    COLUMNS,
    MANIFEST_NAME,
    Segment,
    _write_json,
    check_column,
    check_replica,
    fsync_dir,
    read_store_manifest,
    replicate_segment_dir,
    segments,
    write_store_manifest,
)
from repro.sketch import SKETCH_NAME

__all__ = [
    "SCRUB_JOURNAL_NAME",
    "ScrubTick",
    "Scrubber",
    "replicate_store",
    "scrub_stats",
]

SCRUB_JOURNAL_NAME = "scrub.json"


@dataclass(frozen=True)
class ScrubTick:
    """What one scrub tick (or one full ``run_once`` pass) did.

    ``repaired`` lists anti-entropy repairs (replica rebuilt from a
    token-verified peer); ``unrepaired`` lists damage the replica set
    could not heal — each entry says why, and whether the end-of-pass
    :func:`~repro.shard.repair.repair_store` fallback resolved it.
    ``clean`` is only meaningful when ``pass_completed``: it means the
    pass verified every replica of every segment without finding (or
    while healing all) damage, i.e. the store is fsck-clean.
    """

    checked: int = 0
    verified_bytes: int = 0
    repaired: tuple[dict, ...] = ()
    unrepaired: tuple[dict, ...] = ()
    pass_completed: bool = False
    clean: bool = True

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "verified_bytes": self.verified_bytes,
            "repaired": [dict(r) for r in self.repaired],
            "unrepaired": [dict(u) for u in self.unrepaired],
            "pass_completed": self.pass_completed,
            "clean": self.clean,
        }

    def format_summary(self) -> str:
        lines = []
        for r in self.repaired:
            lines.append(f"{r['segment']}/{r['replica']}: healed from "
                         f"{r['source']} ({r['reason']})")
        for u in self.unrepaired:
            if u.get("resolved"):
                lines.append(f"{u['segment']}: damaged ({u['reason']}) "
                             f"→ {u['resolved']}")
            else:
                lines.append(f"{u['segment']}: UNREPAIRED: {u['reason']}")
        state = "pass complete" if self.pass_completed else "tick"
        verdict = "clean" if self.clean else "damage found"
        lines.append(
            f"scrub {state}: {self.checked} replica-column unit(s), "
            f"{self.verified_bytes} bytes verified, "
            f"{len(self.repaired)} healed — {verdict}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Unit:
    """One scrub work unit: one column of one replica of one segment."""

    segment: Segment
    replica: int
    column: str  # a COLUMNS name, or "" for the manifest/token check

    @property
    def directory(self) -> str:
        """The replica directory; it also groups one replica's units."""
        return self.segment.replicas[self.replica]


def _payload_files(directory: str) -> list[str]:
    """The segment files (manifest, sketch, columns) in ``directory``."""
    names = (MANIFEST_NAME, SKETCH_NAME, *(f"{c}.npy" for c in COLUMNS))
    return [os.path.join(directory, n) for n in names
            if os.path.isfile(os.path.join(directory, n))]


def _read_journal(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            journal = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return journal if isinstance(journal, dict) else {}


class Scrubber:
    """Incremental, resumable verify-and-heal over one sharded store.

    The journal (``scrub.json`` at the store root) persists the cursor,
    pass counters and the last pass's outcome; it is keyed to the root
    manifest's ``revision`` so any append / compaction / repair resets
    the cursor — the new layout gets a fresh full pass rather than a
    stale suffix of the old one.  The journal is advisory (derived
    state): deleting it costs nothing but a restarted pass.
    """

    def __init__(self, path: str, config: ShardConfig | None = None) -> None:
        self.path = path
        self.config = config or ShardConfig()
        self.journal_path = os.path.join(path, SCRUB_JOURNAL_NAME)

    # -- work-list construction ----------------------------------------------

    def _units(self, manifest: dict) -> list[_Unit]:
        """The deterministic segments × replicas × columns work list."""
        return [
            _Unit(segment, k, column)
            for segment in segments(self.path, manifest)
            for k in range(len(segment.replicas))
            for column in ("", *COLUMNS)
        ]

    # -- verification and healing --------------------------------------------

    @staticmethod
    def _check_unit(unit: _Unit, manifests: dict) -> tuple[bool, int, str]:
        """(healthy, bytes_read, reason) for one work unit.

        A replica's manifest is read and token-checked once per tick
        (cached for the replica's column units); column units re-hash
        one file against that manifest's recorded checksum.
        """
        if unit.directory not in manifests:
            manifests[unit.directory] = check_replica(
                unit.directory, unit.segment.token, columns=())
        manifest, problems = manifests[unit.directory]
        if problems:
            return False, 0, problems[0].detail
        name = f"{unit.column}.npy" if unit.column else MANIFEST_NAME
        try:
            size = os.path.getsize(os.path.join(unit.directory, name))
        except OSError:
            size = 0
        problem = (check_column(unit.directory, manifest, unit.column)
                   if unit.column else None)
        return problem is None, size, problem.detail if problem else ""

    @staticmethod
    def _heal_replica(unit: _Unit, reason: str) -> dict:
        """Rebuild one damaged replica from a token-verified peer."""
        segment, target = unit.segment, unit.directory
        record = {
            "segment": segment.label,
            "replica": segment.replica_name(target),
            "reason": reason,
        }
        if len(segment.replicas) <= 1:
            record["unrepaired"] = (
                "no peer replica to heal from (replication=1); "
                "run `repro shard repair` with a --from source"
            )
            return record
        last: Exception | None = None
        for peer in segment.replicas:
            if peer == target:
                continue
            try:
                replicate_segment_dir(peer, target, token=segment.token,
                                      durable=True)
                record["source"] = segment.replica_name(peer)
                record["bytes"] = sum(os.path.getsize(path)
                                      for path in _payload_files(target))
                return record
            except (ShardChecksumError, ShardFormatError, OSError) as exc:
                last = exc
        record["unrepaired"] = (
            f"no healthy peer replica ({last}); "
            f"run `repro shard repair` with a --from source"
        )
        return record

    # -- the scrub loop -------------------------------------------------------

    def tick(self, budget_bytes: int | None = None) -> ScrubTick:
        """Verify (and heal) work units until the byte budget is spent.

        At least one unit always makes progress, however small the
        budget; the cursor and counters are journalled after the tick,
        so the next tick — in this process or any other — resumes where
        this one stopped.
        """
        budget = int(budget_bytes if budget_bytes is not None
                     else self.config.scrub_bytes_per_tick)
        manifest = read_store_manifest(self.path)
        revision = int(manifest.get("revision", 0))
        journal = _read_journal(self.journal_path)
        if int(journal.get("revision", -1)) != revision:
            journal = {"revision": revision, "cursor": 0,
                       "completed_passes": 0,
                       "repaired_total": 0, "verified_bytes_total": 0,
                       "pass_damage": [], "last_pass_clean": None}
        units = self._units(manifest)
        cursor = min(int(journal.get("cursor", 0)), len(units))
        spent = 0
        checked = 0
        repaired: list[dict] = []
        unrepaired: list[dict] = []
        skip: set[str] = set()
        missing: set[str] = set()
        manifests: dict[str, tuple] = {}
        while cursor < len(units) and (spent < budget or checked == 0):
            unit = units[cursor]
            cursor += 1
            if unit.directory in skip or unit.segment.label in missing:
                continue
            if not os.path.isdir(unit.segment.directory):
                # the whole segment (all replicas) is gone — quarantined
                # or deleted; only repair_store's salvage can restore it
                missing.add(unit.segment.label)
                unrepaired.append({
                    "segment": unit.segment.label,
                    "reason": "segment directory is gone "
                              "(quarantined or deleted)",
                })
                continue
            checked += 1
            healthy, size, reason = self._check_unit(unit, manifests)
            spent += size
            if healthy:
                continue
            # heal the whole replica, then skip its remaining units —
            # they were just rewritten from the peer
            record = self._heal_replica(unit, reason)
            skip.add(unit.directory)
            if "unrepaired" in record:
                unrepaired.append({
                    "segment": unit.segment.replica_name(unit.directory,
                                                         "store"),
                    "reason": f"{record['reason']}; {record['unrepaired']}",
                })
            else:
                spent += record.get("bytes", 0)
                repaired.append(record)
        pass_completed = cursor >= len(units)
        pass_damage = list(journal.get("pass_damage") or [])
        pass_damage.extend(u["segment"] for u in unrepaired)
        pass_damage.extend(r["segment"] for r in repaired)
        clean = True
        if pass_completed:
            if unrepaired:
                clean = not self._fallback_repair(unrepaired)
            journal["completed_passes"] = \
                int(journal.get("completed_passes", 0)) + 1
            # healed damage still counts as "found": last_pass_clean
            # means the pass needed no repairs at all
            journal["last_pass_clean"] = clean and not pass_damage
            journal["pass_damage"] = []
            cursor = 0
            # repair/fallback bumped the manifest revision; re-key the
            # journal so the next pass doesn't reset mid-flight
            journal["revision"] = int(
                read_store_manifest(self.path).get("revision", revision))
        else:
            journal["pass_damage"] = pass_damage
            clean = not unrepaired
        journal["cursor"] = cursor
        journal["repaired_total"] = \
            int(journal.get("repaired_total", 0)) + len(repaired)
        journal["verified_bytes_total"] = \
            int(journal.get("verified_bytes_total", 0)) + spent
        journal["unrepaired"] = [dict(u) for u in unrepaired]
        _write_json(self.journal_path, journal)
        crashpoint("replace:scrub-journal")
        return ScrubTick(
            checked=checked, verified_bytes=spent,
            repaired=tuple(repaired), unrepaired=tuple(unrepaired),
            pass_completed=pass_completed, clean=clean,
        )

    def _fallback_repair(self, unrepaired: list[dict]) -> bool:
        """Salvage-only :func:`repair_store` for shard-level damage.

        Returns True when damage *remains* after the fallback.  Entries
        it resolves are annotated in place, so the tick's report shows
        both the finding and its resolution.
        """
        from repro.shard.repair import repair_store  # noqa: PLC0415 (cycle)

        report = repair_store(self.path)
        resolved = {a.name: a.action for a in report.repaired}
        for entry in unrepaired:
            shard = entry["segment"].split("/", 1)[0]
            if shard in resolved:
                entry["resolved"] = f"repair_store: {resolved[shard]}"
        return not report.ok

    def run_once(self, budget_bytes: int | None = None) -> ScrubTick:
        """Tick until one full pass over the store completes.

        The budget still applies *per tick* (the journal is persisted
        at every budget boundary, preserving resumability and the I/O
        rate limit); the ticks' findings are merged into one report.
        """
        checked = spent = 0
        repaired: list[dict] = []
        unrepaired: list[dict] = []
        while True:
            tick = self.tick(budget_bytes)
            checked += tick.checked
            spent += tick.verified_bytes
            repaired.extend(tick.repaired)
            unrepaired.extend(tick.unrepaired)
            if tick.pass_completed:
                return ScrubTick(
                    checked=checked, verified_bytes=spent,
                    repaired=tuple(repaired),
                    unrepaired=tuple(unrepaired),
                    pass_completed=True, clean=tick.clean,
                )

    def stats(self) -> dict:
        return scrub_stats(self.path)


def scrub_stats(path: str) -> dict:
    """The journal's view of scrub health, for ``/stats`` and the CLI."""
    journal = _read_journal(os.path.join(path, SCRUB_JOURNAL_NAME))
    return {
        "journal_present": bool(journal),
        "revision": int(journal.get("revision", -1)),
        "cursor": int(journal.get("cursor", 0)),
        "completed_passes": int(journal.get("completed_passes", 0)),
        "repaired_total": int(journal.get("repaired_total", 0)),
        "verified_bytes_total": int(journal.get("verified_bytes_total", 0)),
        "last_pass_clean": journal.get("last_pass_clean"),
        "unrepaired": list(journal.get("unrepaired") or []),
    }


# -- online re-replication -----------------------------------------------------


def _materialize_replicas(before: Segment, after: Segment) -> None:
    """Bring one segment from its ``before`` replicas to ``after``'s.

    Idempotent: replicas that already exist and token-verify are kept;
    anything else is (re)built from the first healthy source — the flat
    layout on an R=1 store, or any verified peer replica.
    """
    source = next((d for d in before.replicas
                   if not check_replica(d, before.token)[1]), None)
    if source is None:
        raise ShardRepairError(
            before.label,
            "no healthy copy to replicate from; run `repro shard repair` "
            "first",
        )
    for target in after.replicas:
        if check_replica(target, after.token)[1]:
            replicate_segment_dir(source, target, token=after.token,
                                  durable=True)


def replicate_store(path: str, replication: int) -> dict:
    """Raise the replication factor of an existing store, in place.

    Every segment (base and delta) gains token-verified replica
    directories *next to* its current layout first — a kill at any
    point in that phase leaves the store exactly as it was, with some
    invisible extra ``rK`` directories the next run reuses.  Only when
    every replica exists and verifies is the new factor committed in
    one durable root-manifest write; the now-redundant flat files are
    removed after the commit (their loss is irrelevant on either side
    of it, since mmap'd readers keep their pages and new readers follow
    the committed manifest).  Content tokens never change — replicas
    are byte-identical — so downstream caches stay valid.
    """
    replication = int(replication)
    manifest = read_store_manifest(path)
    current = max(1, int(manifest.get("replication", 1)))
    if replication < current:
        raise ShardRepairError(
            path, f"cannot lower replication from {current} to "
                  f"{replication}; re-shard instead",
        )
    if replication == current:
        return manifest
    old = segments(path, manifest)
    raised = {**manifest, "replication": replication,
              "revision": int(manifest.get("revision", 0)) + 1}
    for before, after in zip(old, segments(path, raised)):
        _materialize_replicas(before, after)
    crashpoint("fsync:replicate-commit")
    new_manifest = write_store_manifest(path, raised, durable=True)
    crashpoint("installed:replicate-commit")
    if current == 1:
        # the flat copies are unreachable once the manifest points at
        # rK dirs; removing them reclaims the space (crash mid-removal
        # leaves only dead files, which stay invisible to fsck)
        for segment in old:
            for stale in _payload_files(segment.directory):
                os.remove(stale)
            fsync_dir(segment.directory)
    return new_manifest
