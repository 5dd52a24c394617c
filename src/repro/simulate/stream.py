"""Streaming population generation: million-patient stores in O(batch) RAM.

:func:`generate_store_fast` materializes the whole population before
writing, which caps practical scale at whatever fits in memory.  This
module generates the population **batch by batch** — each batch is an
independent :class:`~repro.events.store.EventStore` with a disjoint
patient-id block and a child seed spawned from the parent seed — and
lands it through the incremental ingestion path: the first batch seeds
the sharded store via :class:`~repro.shard.writer.ShardedStoreWriter`
(hash partitioning, so later batches route consistently), every later
batch appends through :class:`~repro.shard.delta.DeltaWriter`, and the
:class:`~repro.shard.delta.Compactor` folds deltas periodically and once
at the end.  Peak memory is one batch, not one population, while the
result is byte-for-byte a normal sharded store (sketch sidecars
included, since every segment write emits one).

Determinism: the emitted rows depend only on ``(n_patients, seed,
batch_size)`` — per-batch seeds come from :func:`repro.config.spawn_seeds`
so reordering or resuming batches cannot silently change the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.config import DEFAULT_SEED, spawn_seeds
from repro.events.store import EventStore
from repro.simulate.fast import FastGenerationSummary, generate_store_fast

__all__ = [
    "StreamedGenerationReport",
    "generate_streamed_store",
    "stream_population",
]

#: Default patients per generated batch; small enough that even the E6
#: run peaks well under a materialized population's footprint.
DEFAULT_BATCH_SIZE = 20_000


@dataclass(frozen=True)
class StreamedGenerationReport:
    """What a streamed generation run produced."""

    n_patients: int
    n_events: int
    n_batches: int
    n_shards: int
    compactions: int
    revision: int


def stream_population(
    n_patients: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = None,
    reference_year: int = 2012,
    years: float = 2.0,
) -> Iterator[tuple[EventStore, FastGenerationSummary]]:
    """Yield ``(batch_store, summary)`` pairs covering ``n_patients``.

    Batches carry disjoint patient-id blocks (via the fast generator's
    ``id_offset``) and independent child seeds, so concatenating every
    batch yields one coherent population without ever holding it whole.
    """
    if n_patients <= 0:
        return
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    parent = DEFAULT_SEED if seed is None else seed
    n_batches = (n_patients + batch_size - 1) // batch_size
    seeds = spawn_seeds(parent, n_batches)
    for index in range(n_batches):
        offset = index * batch_size
        count = min(batch_size, n_patients - offset)
        yield generate_store_fast(
            count,
            seed=seeds[index],
            reference_year=reference_year,
            years=years,
            id_offset=offset,
        )


def generate_streamed_store(
    n_patients: int,
    out_dir: str,
    n_shards: int = 4,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = None,
    compact_every: int | None = 8,
    reference_year: int = 2012,
    years: float = 2.0,
) -> StreamedGenerationReport:
    """Generate ``n_patients`` straight into a sharded store at ``out_dir``.

    The first batch creates the store (hash-partitioned so every later
    batch routes to stable shards); the rest land as delta segments.
    ``compact_every`` folds pending deltas after that many appended
    batches (``None`` disables mid-run compaction); a final compaction
    always runs so the finished store has no pending deltas.
    """
    from repro.shard.delta import Compactor, DeltaWriter
    from repro.shard.writer import write_sharded_store

    batches = stream_population(
        n_patients,
        batch_size=batch_size,
        seed=seed,
        reference_year=reference_year,
        years=years,
    )
    total_patients = 0
    total_events = 0
    n_batches = 0
    compactions = 0
    appended_since_compact = 0
    writer: DeltaWriter | None = None
    compactor = Compactor(out_dir)
    manifest: dict = {}
    for store, summary in batches:
        n_batches += 1
        total_patients += summary.n_patients
        total_events += summary.n_events
        if writer is None:
            manifest = write_sharded_store(
                store, out_dir, n_shards=n_shards, partition="hash"
            )
            writer = DeltaWriter(out_dir)
            continue
        manifest = writer.append(store)
        appended_since_compact += 1
        if compact_every and appended_since_compact >= compact_every:
            compactor.compact()
            compactions += 1
            appended_since_compact = 0
    if writer is None:
        raise ValueError("n_patients must be positive")
    if appended_since_compact:
        compactor.compact()
        compactions += 1
    from repro.shard.format import read_store_manifest

    manifest = read_store_manifest(out_dir)
    return StreamedGenerationReport(
        n_patients=total_patients,
        n_events=total_events,
        n_batches=n_batches,
        n_shards=len(manifest["shards"]),
        compactions=compactions,
        revision=int(manifest.get("revision", 0)),
    )
