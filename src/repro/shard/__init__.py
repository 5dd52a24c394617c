"""Sharded on-disk columnar storage with scatter-gather execution.

The paper's workbench pre-loads one cohort into a single in-memory
snapshot (Section IV) — the right call at 168,000 patients, a wall on
the road to millions.  This package splits storage from query the way
scale-out EHR visualization systems do: a persistent store partitioned
into per-shard columnar segments on disk, memory-mapped on open, and a
parallel executor that evaluates one planned query per shard and merges
the patient-id results.

* :mod:`repro.shard.format` — the segment format: one directory per
  shard holding ``.npy`` column files plus a checksummed JSON manifest,
  and the primitives every other module walks it with — the segment
  catalogue (``segments``), one verify (``check_replica`` /
  ``verify_segment``) and one atomic directory install
  (``install_dir``);
* :mod:`repro.shard.writer` — partition an :class:`~repro.events.store.
  EventStore` by patient-id hash or contiguous range into N shards;
* :mod:`repro.shard.store` — :class:`ShardedEventStore`, a lazy,
  mmap-backed store exposing the same query surface as ``EventStore``;
* :mod:`repro.shard.delta` — the incremental ingestion path:
  :class:`DeltaWriter` lands new batches as small checksummed delta
  segments with one durable atomic manifest bump, shards resolve
  base+deltas with last-write-wins dedup, and the background
  :class:`Compactor` folds deltas into fresh base-segment generations
  without ever blocking readers;
* :mod:`repro.shard.executor` — :class:`ParallelExecutor`, the
  self-healing scatter-gather evaluation engine (process pool with
  per-shard retry/circuit-breaking, pool rebuilds, serial fallback);
* :mod:`repro.shard.repair` — offline ``fsck``/``repair``: re-verify
  every shard, salvage token-verified columns, rebuild damaged shards
  from a flat snapshot or a sibling store's merged view;
* :mod:`repro.shard.scrub` — replication maintenance:
  :class:`Scrubber`, the incremental, byte-budgeted background
  verifier with anti-entropy self-repair (a damaged replica is rebuilt
  from a token-verified peer), and :func:`replicate_store`, the online
  ``R=1 → R>=2`` re-replication of an existing store.

With ``ShardConfig.replication >= 2`` every segment is stored as R
byte-identical, token-verified replica directories (``shard-0003/r0``,
``r1``, …); reads open the preferred replica and fail over to a peer
mid-query on damage — exact answers, no degradation — and the scrubber
heals the damaged copy in the background.

Damaged shards follow :class:`repro.config.ShardConfig.on_damage`:
the strict default raises on open; ``"quarantine"`` moves the damage
aside and serves degraded, partial results (every query carries a
:class:`~repro.shard.store.QueryDegradation` record).

Example::

    from repro.shard import ShardedEventStore, write_sharded_store

    write_sharded_store(store, "cohort.shards", n_shards=8)
    sharded = ShardedEventStore("cohort.shards")
    engine = QueryEngine(sharded)          # scatter-gather automatically
    ids = engine.patients(parse_query("concept T90"))
"""

from repro.shard.delta import (
    CompactionAction,
    CompactionReport,
    Compactor,
    DeltaWriter,
    pending_delta_stats,
    resolve_segments,
)
from repro.shard.executor import ParallelExecutor
from repro.shard.format import (
    SHARD_FORMAT_VERSION,
    open_segment,
    read_store_manifest,
    verify_segment,
    write_segment,
)
from repro.shard.repair import (
    FsckReport,
    RepairAction,
    RepairReport,
    ShardHealth,
    fsck_store,
    repair_store,
)
from repro.shard.scrub import (
    ScrubTick,
    Scrubber,
    replicate_store,
    scrub_stats,
)
from repro.shard.store import (
    QueryDegradation,
    ShardedEventStore,
    is_shard_store,
)
from repro.shard.writer import ShardedStoreWriter, subset_store, write_sharded_store

__all__ = [
    "CompactionAction",
    "CompactionReport",
    "Compactor",
    "DeltaWriter",
    "FsckReport",
    "ParallelExecutor",
    "QueryDegradation",
    "RepairAction",
    "RepairReport",
    "SHARD_FORMAT_VERSION",
    "ScrubTick",
    "Scrubber",
    "ShardHealth",
    "ShardedEventStore",
    "ShardedStoreWriter",
    "fsck_store",
    "is_shard_store",
    "open_segment",
    "pending_delta_stats",
    "read_store_manifest",
    "repair_store",
    "replicate_store",
    "resolve_segments",
    "scrub_stats",
    "subset_store",
    "verify_segment",
    "write_sharded_store",
]
