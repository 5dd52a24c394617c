"""One segment catalogue: every verifier agrees on what damage is.

Opens, fsck, the scrubber, salvage and repair list segments through
:func:`repro.shard.format.segments` and check them with one verify
primitive, so a damaged replica is damage to all of them alike.  Two
suites prove it:

* **Drifted token** — a replica holding the same shard from another
  build of the same population (self-consistent checksums, but a
  content token that differs from the root manifest's record) is
  definite damage on every open: a strict R=1 open raises, an R=1
  quarantine store degrades to the survivors' exact answer, and an R=2
  store fails over to the peer and answers exactly — serially and
  through the process pool — until the scrubber heals it.
* **Damage matrix** — seven kinds of damage × R ∈ {1, 2} × {base,
  delta} segment: fsck flags the shard, ``verify_segment`` raises, the
  quarantine-policy store quarantines (R=1) or fails over exactly
  (R=2), and the scrubber (R=2) or ``repair_store`` from the flat
  source (R=1) brings the store back to fsck-clean with flat answers.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.config import ShardConfig
from repro.errors import ShardChecksumError, ShardFormatError
from repro.events.store import default_systems
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.shard import (
    DeltaWriter,
    ParallelExecutor,
    Scrubber,
    ShardedEventStore,
    fsck_store,
    open_segment,
    read_store_manifest,
    repair_store,
    subset_store,
    verify_segment,
    write_sharded_store,
)
from repro.shard.format import segments
from repro.shard.writer import hash_shard_of
from repro.simulate.fast import generate_store_fast

N_SHARDS = 2
QUERIES = ("sex F", "concept T90 or atleast 2 category gp_contact")


@pytest.fixture(scope="module")
def population():
    store, __ = generate_store_fast(400, seed=29)
    return store


def _build(root: str, base, batch=None, replication: int = 1) -> str:
    write_sharded_store(base, root, n_shards=N_SHARDS,
                        config=ShardConfig(replication=replication))
    if batch is not None:
        DeltaWriter(root).append(batch)
    return root


def _target(root: str, kind: str):
    """Shard 0's base or first delta segment, from the catalogue."""
    catalogue = segments(root, read_store_manifest(root), 0)
    return catalogue[0] if kind == "base" else catalogue[1]


def _truth(flat, expr, without_shard: int | None = None) -> np.ndarray:
    """The flat answer, optionally restricted to the surviving shards."""
    ids = np.asarray(QueryEngine(flat).patients(expr))
    if without_shard is not None:
        ids = ids[hash_shard_of(ids, N_SHARDS) != without_shard]
    return ids


def _answers(store) -> list[np.ndarray]:
    engine = QueryEngine(store)
    return [np.asarray(engine.patients(parse_query(q))) for q in QUERIES]


def _assert_answers(store, flat, without_shard: int | None = None) -> None:
    for query, got in zip(QUERIES, _answers(store)):
        expected = _truth(flat, parse_query(query), without_shard)
        assert np.array_equal(got, expected), query


def _copy_replica_files(source: str, target: str) -> None:
    """Overwrite ``target``'s segment files with ``source``'s (nested
    delta directories of a flat base stay as they are)."""
    os.makedirs(target, exist_ok=True)
    for item in os.listdir(source):
        if os.path.isfile(os.path.join(source, item)):
            shutil.copyfile(os.path.join(source, item),
                            os.path.join(target, item))


# -- drifted content token ---------------------------------------------------
#
# These tests locate segments from the root manifest by hand, not through
# the catalogue, so they run unchanged against a tree without it.


def _replica0(root: str, kind: str) -> tuple[str, str]:
    """(replica 0 directory, root-manifest token) of shard 0's base or
    first delta segment."""
    manifest = read_store_manifest(root)
    entry = manifest["shards"][0]
    directory, token = os.path.join(root, entry["name"]), entry["content_token"]
    if kind == "delta":
        delta = entry["deltas"][0]
        directory = os.path.join(directory, delta["name"])
        token = delta["content_token"]
    if int(manifest.get("replication", 1)) > 1:
        directory = os.path.join(directory, "r0")
    return directory, token


@pytest.fixture(scope="module")
def drifted_builds(population, tmp_path_factory):
    """``make(replication, kind)`` -> a store whose shard-0000 base (or
    first delta) replica 0 holds the same shard of a smaller build of
    the same population: self-consistent, but not what the root
    manifest records.  Tests copy the returned store before use."""
    pids = np.sort(population.patient_ids)
    head = subset_store(population, pids[:300])
    built: dict[tuple[int, str], str] = {}

    def make(replication: int, kind: str) -> str:
        if (replication, kind) not in built:
            where = tmp_path_factory.mktemp(f"drift-r{replication}-{kind}")
            if kind == "base":
                full = _build(str(where / "full.shards"), population,
                              replication=replication)
                other = _build(str(where / "other.shards"), head,
                               replication=replication)
            else:
                full = _build(str(where / "full.shards"), head,
                              subset_store(population, pids[300:]),
                              replication)
                other = _build(str(where / "other.shards"), head,
                               subset_store(population, pids[300:350]),
                               replication)
            (target, token), (source, other_token) = \
                _replica0(full, kind), _replica0(other, kind)
            assert token != other_token, "the builds agree on shard 0"
            _copy_replica_files(source, target)
            built[replication, kind] = full
        return built[replication, kind]

    return make


def _drifted(drifted_builds, tmp_path, replication: int, kind: str) -> str:
    root = str(tmp_path / "work.shards")
    shutil.copytree(drifted_builds(replication, kind), root)
    return root


@pytest.mark.parametrize("kind", ["base", "delta"])
@pytest.mark.parametrize("replication", [1, 2])
def test_drift_is_damage_to_every_verifier(drifted_builds, tmp_path,
                                           replication, kind):
    root = _drifted(drifted_builds, tmp_path, replication, kind)
    replica, token = _replica0(root, kind)
    (health,) = fsck_store(root).damaged
    assert health.index == 0
    assert "content token drifted" in health.detail
    with pytest.raises(ShardChecksumError) as excinfo:
        verify_segment(replica, token)
    assert excinfo.value.column == "content_token"
    manifest = read_store_manifest(root)
    # One string compare, even with column checksums off.
    with pytest.raises(ShardChecksumError):
        open_segment(replica, default_systems(), manifest["system_names"],
                     manifest["categories"], manifest["sources"],
                     manifest["details"], verify_checksums=False,
                     token=token)


@pytest.mark.parametrize("kind", ["base", "delta"])
def test_drift_r1_strict_open_raises(drifted_builds, tmp_path, kind):
    root = _drifted(drifted_builds, tmp_path, 1, kind)
    with pytest.raises(ShardChecksumError):
        ShardedEventStore(root).shard(0)
    with pytest.raises(ShardChecksumError):
        _answers(ShardedEventStore(root, config=ShardConfig(n_workers=1)))


@pytest.mark.parametrize("kind", ["base", "delta"])
def test_drift_r1_quarantine_answers_survivors(drifted_builds, population,
                                               tmp_path, kind):
    root = _drifted(drifted_builds, tmp_path, 1, kind)
    sharded = ShardedEventStore(root, config=ShardConfig(
        on_damage="quarantine", n_workers=1))
    assert sharded.degradation().quarantined_shards == (
        read_store_manifest(root)["shards"][0]["name"],)
    _assert_answers(sharded, population, without_shard=0)


@pytest.mark.parametrize("on_damage", ["fail", "quarantine"])
@pytest.mark.parametrize("kind", ["base", "delta"])
def test_drift_r2_fails_over_exactly(drifted_builds, population, tmp_path,
                                     kind, on_damage):
    root = _drifted(drifted_builds, tmp_path, 2, kind)
    serial = ShardedEventStore(root, config=ShardConfig(
        on_damage=on_damage, n_workers=1))
    _assert_answers(serial, population)
    assert not serial.degradation().is_degraded
    assert serial.replication_stats()["replica_failovers"] >= 1

    pooled = ShardedEventStore(root, config=ShardConfig(
        on_damage=on_damage, n_workers=2))
    expr = parse_query(QUERIES[0])
    with ParallelExecutor(config=pooled.config) as executor:
        got = executor.patients(pooled, expr)
        assert executor.mode == "parallel"
        assert executor.stats_dict()["replica_failovers"] >= 1
    assert np.array_equal(np.asarray(got), _truth(population, expr))
    assert not pooled.degradation().is_degraded


@pytest.mark.parametrize("kind", ["base", "delta"])
def test_drift_r2_scrub_heals(drifted_builds, population, tmp_path, kind):
    root = _drifted(drifted_builds, tmp_path, 2, kind)
    report = Scrubber(root).run_once()
    assert len(report.repaired) == 1, report.format_summary()
    assert fsck_store(root).ok
    _assert_answers(ShardedEventStore(root, config=ShardConfig(n_workers=1)),
                    population)


# -- damage matrix -----------------------------------------------------------


def _flip(replica: str) -> None:
    path = os.path.join(replica, "value.npy")
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        byte = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([byte[0] ^ 0xFF]))


def _truncate(replica: str) -> None:
    path = os.path.join(replica, "day.npy")
    os.truncate(path, os.path.getsize(path) // 2)


def _bad_json(replica: str) -> None:
    with open(os.path.join(replica, "manifest.json"), "w",
              encoding="utf-8") as f:
        f.write("{not json")


#: Damage to replica ``r``; ``o`` is the same replica of a build with
#: different content (the drifted copy's source).
DAMAGE = {
    "flip": lambda r, o: _flip(r),
    "truncate": lambda r, o: _truncate(r),
    "delete_column": lambda r, o: os.unlink(os.path.join(r, "code.npy")),
    "delete_manifest": lambda r, o: os.unlink(
        os.path.join(r, "manifest.json")),
    "bad_json": lambda r, o: _bad_json(r),
    "drift": lambda r, o: _copy_replica_files(o, r),
    "missing_replica": lambda r, o: shutil.rmtree(r),
}


@pytest.fixture(scope="module", params=[1, 2], ids=lambda r: f"r{r}")
def matrix_builds(request, population, tmp_path_factory):
    """(store with a delta on every shard, a differing build of it)."""
    replication = request.param
    pids = np.sort(population.patient_ids)
    root = tmp_path_factory.mktemp(f"matrix-{replication}")
    store = _build(str(root / "store.shards"),
                   subset_store(population, pids[:300]),
                   subset_store(population, pids[300:]), replication)
    other = _build(str(root / "other.shards"),
                   subset_store(population, pids[:280]),
                   subset_store(population, pids[300:340]), replication)
    return store, other, replication


@pytest.mark.parametrize("kind", ["base", "delta"])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damage_matrix(matrix_builds, population, tmp_path, damage, kind):
    template, other, replication = matrix_builds
    root = str(tmp_path / "store.shards")
    shutil.copytree(template, root)
    segment, source = _target(root, kind), _target(other, kind)
    assert source.token != segment.token
    replica = segment.replicas[0]
    DAMAGE[damage](replica, source.replicas[0])

    report = fsck_store(root)
    assert [h.index for h in report.damaged] == [0], report.format_summary()
    with pytest.raises((ShardChecksumError, ShardFormatError)):
        verify_segment(replica, segment.token)

    sharded = ShardedEventStore(root, config=ShardConfig(
        on_damage="quarantine", n_workers=1))
    if replication == 1:
        assert sharded.degradation().quarantined_shards == (
            read_store_manifest(root)["shards"][0]["name"],)
        _assert_answers(sharded, population, without_shard=0)
        repaired = repair_store(root, source=population)
        assert repaired.ok, repaired.format_summary()
    else:
        assert not sharded.degradation().is_degraded
        _assert_answers(sharded, population)
        assert sharded.replication_stats()["replica_failovers"] >= 1
        healed = Scrubber(root).run_once()
        assert healed.repaired and not healed.unrepaired, \
            healed.format_summary()
    assert fsck_store(root).ok, fsck_store(root).format_summary()
    _assert_answers(ShardedEventStore(root, config=ShardConfig(n_workers=1)),
                    population)


def test_fsck_reports_damaged_delta_beside_damaged_base(matrix_builds,
                                                        tmp_path):
    template, __, replication = matrix_builds
    root = str(tmp_path / "store.shards")
    shutil.copytree(template, root)
    base, delta = _target(root, "base"), _target(root, "delta")
    _flip(base.replicas[0])
    _flip(delta.replicas[0])
    (health,) = fsck_store(root).damaged
    where = os.path.relpath(delta.replicas[0], delta.shard_dir)
    assert f"{where}/value" in health.bad_columns
    assert len(health.bad_columns) == 2
    if replication > 1:
        statuses = {(r["segment"], r["replica"]): r["status"]
                    for r in health.replicas}
        assert statuses[(base.label, "r0")] == "checksum"
        assert statuses[(delta.label, "r0")] == "checksum"
        assert statuses[(delta.label, "r1")] == "ok"
