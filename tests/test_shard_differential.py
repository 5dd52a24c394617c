"""Differential harness: sharded scatter-gather ≡ single-store results.

The sharded store is only admissible if splitting a population across
segments is *invisible* to queries: for every query the planner can
express, evaluating per shard and merging patient ids must return the
bit-identical array a flat :class:`EventStore` returns.  This suite
re-uses the seeded 17-node AST generator from
``tests/test_query_planner_property.py`` and proves that equivalence
for 1, 2 and 7 shards — including a store where some shards hold zero
patients — on both the serial and the process-pool execution paths.

It also covers the failure side of the format contract: a single
flipped byte in any column file must be caught by the manifest
checksums and surface as a typed :class:`~repro.errors.ShardChecksumError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ShardConfig
from repro.errors import ShardChecksumError, ShardFormatError, ShardStoreError
from repro.query.engine import QueryEngine
from repro.shard import (
    ParallelExecutor,
    ShardedEventStore,
    verify_segment,
    write_sharded_store,
)
from repro.simulate.fast import generate_store_fast
from tests.naive_engine import NaiveEngine
from tests.test_query_planner_property import (
    ALL_NODE_TYPES,
    _generated_corpus,
)


@pytest.fixture(scope="module")
def flat_store():
    store, __ = generate_store_fast(250, seed=11)
    return store


@pytest.fixture(scope="module")
def tiny_store():
    """Five patients — sharding 7 ways guarantees zero-patient shards."""
    store, __ = generate_store_fast(5, seed=3)
    return store


def _sharded(store, tmp_path_factory, n_shards, partition="hash"):
    path = str(tmp_path_factory.mktemp("shards") / f"s{n_shards}.shards")
    write_sharded_store(store, path, n_shards=n_shards, partition=partition)
    return ShardedEventStore(path)


@pytest.mark.parametrize("n_shards,count", [(1, 500), (2, 500), (7, 300)])
def test_sharded_equals_flat(flat_store, tmp_path_factory, n_shards, count):
    sharded = _sharded(flat_store, tmp_path_factory, n_shards)
    single = QueryEngine(flat_store)
    engine = QueryEngine(sharded)
    for i, query in enumerate(_generated_corpus(flat_store, 2016, count)):
        expected = single.patients(query)
        got = engine.patients(query)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), (
            f"case {i} with {n_shards} shard(s) diverged: sharded "
            f"{len(got)} vs flat {len(expected)} patients for {query!r}"
        )


def test_differential_corpus_covers_all_17_node_types(flat_store):
    """The corpus driven through the shards spans the whole AST."""
    remaining = set(ALL_NODE_TYPES)

    def visit(node):
        remaining.discard(type(node))
        for child in getattr(node, "children", ()):
            visit(child)
        for attr in ("child", "expr"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, (str, int, float)):
                visit(child)

    for query in _generated_corpus(flat_store, 2016, 500):
        visit(query)
    assert not remaining, f"never generated: {remaining}"


def test_zero_patient_shards_are_transparent(tiny_store, tmp_path_factory):
    """7 shards over 5 patients: empty segments change nothing."""
    sharded = _sharded(tiny_store, tmp_path_factory, 7)
    empty = [e for e in sharded.shard_entries if e["n_patients"] == 0]
    assert empty, "expected at least one zero-patient shard"
    single = QueryEngine(tiny_store)
    engine = QueryEngine(sharded)
    for query in _generated_corpus(tiny_store, 77, 200):
        assert np.array_equal(engine.patients(query),
                              single.patients(query))


def test_range_partition_equals_flat(flat_store, tmp_path_factory):
    sharded = _sharded(flat_store, tmp_path_factory, 3, partition="range")
    single = QueryEngine(flat_store)
    engine = QueryEngine(sharded)
    for query in _generated_corpus(flat_store, 4242, 150):
        assert np.array_equal(engine.patients(query),
                              single.patients(query))


def test_naive_scatter_gather_equals_flat(flat_store, tmp_path_factory):
    """Scatter-gather agrees with the naive oracle on the flat store."""
    sharded = _sharded(flat_store, tmp_path_factory, 3)
    single = NaiveEngine(flat_store)
    engine = QueryEngine(sharded)
    for query in _generated_corpus(flat_store, 99, 150):
        assert np.array_equal(engine.patients(query),
                              single.patients(query))


def test_parallel_pool_equals_flat(flat_store, tmp_path_factory):
    """The process-pool path returns the same arrays as the flat store."""
    sharded = _sharded(flat_store, tmp_path_factory, 2)
    single = QueryEngine(flat_store)
    with ParallelExecutor(n_workers=2) as executor:
        engine = QueryEngine(sharded, executor=executor)
        for query in _generated_corpus(flat_store, 7, 40):
            expected = single.patients(query)
            got = engine.patients(query)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        stats = executor.stats_dict()
    # Every query either ran through the pool or fell back exactly once
    # to an equally-correct serial pass; either way the results matched.
    assert stats["queries"] == 40
    assert stats["parallel_queries"] + stats["serial_queries"] == 40
    if stats["pool_fallbacks"] == 0:
        assert stats["parallel_queries"] == 40


# -- corruption ----------------------------------------------------------------


def _flip_byte(path: str, offset: int = 512) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def test_flipped_byte_fails_checksum(flat_store, tmp_path):
    path = str(tmp_path / "corrupt.shards")
    write_sharded_store(flat_store, path, n_shards=2)
    sharded = ShardedEventStore(path)
    column = f"{sharded.shard_dir(1)}/day.npy"
    _flip_byte(column)
    with pytest.raises(ShardChecksumError) as excinfo:
        sharded.shard(1)
    assert "day" in str(excinfo.value)
    assert isinstance(excinfo.value, ShardStoreError)
    # verify_segment reports the same corruption without opening columns.
    with pytest.raises(ShardChecksumError):
        verify_segment(sharded.shard_dir(1))
    # The sibling shard is untouched and still opens.
    assert sharded.shard(0).n_events > 0


def test_corruption_skipped_when_verification_disabled(flat_store, tmp_path):
    """verify_checksums=False trades the integrity check for open speed."""
    path = str(tmp_path / "unverified.shards")
    write_sharded_store(flat_store, path, n_shards=2)
    sharded = ShardedEventStore(
        path, config=ShardConfig(verify_checksums=False)
    )
    _flip_byte(f"{sharded.shard_dir(0)}/value.npy", offset=256)
    # Opens without raising: the caller opted out of verification.
    assert sharded.shard(0).n_events >= 0


def test_truncated_manifest_is_a_format_error(flat_store, tmp_path):
    path = str(tmp_path / "broken.shards")
    write_sharded_store(flat_store, path, n_shards=2)
    sharded = ShardedEventStore(path)
    with open(f"{sharded.shard_dir(0)}/manifest.json", "w") as f:
        f.write("{not json")
    with pytest.raises(ShardFormatError):
        sharded.shard(0)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
