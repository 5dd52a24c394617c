"""Replication, online read failover, scrubbing and anti-entropy repair.

The replication contract has three falsifiable claims, proved here:

* **Exactness** — on an R=2 store with any single replica of any shard
  damaged (byte flip, truncated column, deleted replica manifest),
  every query answers **byte-identically** to the flat store, serially
  and through the process pool, with zero ``QueryDegradation`` — the
  read path fails over to the healthy peer and counts it.
* **Self-repair** — the background scrubber (``repro.shard.scrub``)
  converges any such store back to ``fsck``-clean without an external
  ``--from`` source, under an arbitrarily small per-tick byte budget,
  resuming its cursor across restarts; a second pass performs zero
  repairs and the content token never changes (anti-entropy repair is
  idempotent, as is ``repair_store`` itself).
* **Crash safety** — replicated appends and the online
  ``replicate_store`` conversion pass every one of their enumerated
  ``crashpoint()`` boundaries with the same pre-or-post guarantee the
  incremental-ingestion matrix proves for R=1.

Satellites riding along: quarantine damage-log rotation, the
``/readyz`` zero-healthy-replica probe, ``/stats`` scrub/failover
blocks, and the ``shard scrub`` / ``shard replicate`` CLI.
"""

from __future__ import annotations

import json
import os
import shutil
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.config import ShardConfig
from repro.errors import ShardRepairError, SimulatedCrashError
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.resilience.faults import (
    ShardFaultPlan,
    apply_shard_faults,
    count_crashpoints,
    crash_at,
)
from repro.shard import (
    Compactor,
    DeltaWriter,
    ParallelExecutor,
    Scrubber,
    ShardedEventStore,
    fsck_store,
    repair_store,
    replicate_store,
    scrub_stats,
    subset_store,
    write_sharded_store,
)
from repro.simulate.fast import generate_store_fast
from repro.webapp import WorkbenchServer
from repro.workbench import Workbench
from tests.test_query_planner_property import _generated_corpus

N_SHARDS = 3

_FAULT_KINDS = {
    "flip": lambda r: ShardFaultPlan(seed=13, flip_bytes=1, replica=r),
    "truncate": lambda r: ShardFaultPlan(seed=13, truncate_segments=1,
                                         replica=r),
    "missing_manifest": lambda r: ShardFaultPlan(seed=13, delete_manifests=1,
                                                 replica=r),
}


@pytest.fixture(scope="module")
def flat_store():
    store, __ = generate_store_fast(160, seed=17)
    return store


@pytest.fixture(scope="module")
def split(flat_store):
    pids = np.sort(flat_store.patient_ids)
    return (subset_store(flat_store, pids[:120]),
            subset_store(flat_store, pids[120:]))


def _build(flat_store, tmp_path, replication=2, name="rep.shards") -> str:
    root = str(tmp_path / name)
    write_sharded_store(flat_store, root, n_shards=N_SHARDS,
                        config=ShardConfig(replication=replication))
    return root


def _strict(root: str) -> ShardedEventStore:
    return ShardedEventStore(root)


def _quarantine_config(**kwargs) -> ShardConfig:
    return ShardConfig(on_damage="quarantine", n_workers=1, **kwargs)


# -- layout ------------------------------------------------------------------


def test_replicated_layout_and_manifest(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    manifest = json.loads(
        (tmp_path / "rep.shards" / "manifest.json").read_text()
    )
    assert manifest["replication"] == 2
    for entry in manifest["shards"]:
        shard = os.path.join(root, entry["name"])
        for rname in ("r0", "r1"):
            replica = os.path.join(shard, rname)
            assert os.path.isfile(os.path.join(replica, "manifest.json"))
            assert os.path.isfile(os.path.join(replica, "patient.npy"))
        # replicas are byte-identical: same per-segment content token
        tokens = {
            json.loads((tmp_path / "rep.shards" / entry["name"] / rname /
                        "manifest.json").read_text())["content_token"]
            for rname in ("r0", "r1")
        }
        assert len(tokens) == 1
        assert tokens == {entry["content_token"]}
        # no flat-layout columns next to the replica dirs
        assert not os.path.exists(os.path.join(shard, "patient.npy"))


def test_replication_does_not_change_content(flat_store, tmp_path):
    r1 = _build(flat_store, tmp_path, replication=1, name="r1.shards")
    r2 = _build(flat_store, tmp_path, replication=2, name="r2.shards")
    assert _strict(r1).content_token() == _strict(r2).content_token()
    assert fsck_store(r2).ok


def test_append_and_compact_stay_replicated(flat_store, split, tmp_path):
    base, batch = split
    root = _build(base, tmp_path)
    DeltaWriter(root).append(batch)
    entry = json.loads(
        (tmp_path / "rep.shards" / "manifest.json").read_text()
    )["shards"][0]
    deltas = entry.get("deltas") or []
    assert deltas, "append landed no delta on shard-0000"
    delta_dir = os.path.join(root, entry["name"], deltas[0]["name"])
    assert os.path.isdir(os.path.join(delta_dir, "r0"))
    assert os.path.isdir(os.path.join(delta_dir, "r1"))
    assert fsck_store(root).ok
    assert _strict(root).materialize_store().content_equal(flat_store)

    Compactor(root).compact()
    assert fsck_store(root).ok
    compacted = _strict(root)
    assert not compacted.has_pending_deltas
    assert compacted.materialize_store().content_equal(flat_store)
    # the compacted generation is itself replicated
    entry = json.loads(
        (tmp_path / "rep.shards" / "manifest.json").read_text()
    )["shards"][0]
    assert os.path.isdir(os.path.join(root, entry["name"], "r0"))
    assert os.path.isdir(os.path.join(root, entry["name"], "r1"))


# -- online read failover ----------------------------------------------------


@pytest.mark.parametrize("kind", sorted(_FAULT_KINDS))
@pytest.mark.parametrize("replica", [0, 1])
def test_failover_serial_exact(flat_store, tmp_path, kind, replica):
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    applied = apply_shard_faults(root, _FAULT_KINDS[kind](replica))
    assert len(applied) == 1
    assert applied[0]["replica"] == replica
    # one damaged replica makes the *store* unclean even while every
    # answer stays exact — that's what the scrubber later restores
    assert not fsck_store(root).ok

    sharded = ShardedEventStore(root, config=_quarantine_config())
    single = QueryEngine(flat_store)
    merged = QueryEngine(sharded)
    for expr in _generated_corpus(flat_store, seed=23, count=15):
        assert np.array_equal(
            np.asarray(merged.patients(expr)),
            np.asarray(single.patients(expr)),
        ), expr
    assert not sharded.degradation().is_degraded
    assert sharded.content_token() == clean_token
    stats = sharded.replication_stats()
    assert stats["replication"] == 2
    if replica == 0:
        # reads start at r0, so damaging it forces (and counts) the
        # failover; damage on the idle peer is invisible to reads and
        # only the scrubber will find it
        assert stats["replica_failovers"] >= 1
        assert stats["suspect_replicas"]
    assert stats["zero_healthy_shards"] == []


def test_failover_parallel_exact(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    apply_shard_faults(root, _FAULT_KINDS["flip"](0))
    sharded = ShardedEventStore(
        root, config=ShardConfig(on_damage="quarantine", n_workers=2)
    )
    expr = parse_query("concept T90 or atleast 2 category gp_contact")
    expected = np.asarray(QueryEngine(flat_store).patients(expr))
    with ParallelExecutor(config=sharded.config) as executor:
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        assert executor.mode == "parallel"
        # the worker that mapped the damaged replica failed over and
        # reported it back through the result envelope
        assert executor.stats_dict()["replica_failovers"] >= 1
    assert not sharded.degradation().is_degraded


def test_r1_store_still_quarantines(flat_store, tmp_path):
    """Without a peer there is nothing to fail over to: R=1 keeps the
    pre-replication degrade-and-quarantine behaviour."""
    root = _build(flat_store, tmp_path, replication=1)
    applied = apply_shard_faults(
        root, ShardFaultPlan(seed=13, flip_bytes=1)
    )
    sharded = ShardedEventStore(root, config=_quarantine_config())
    degradation = sharded.degradation()
    assert degradation.is_degraded
    assert set(degradation.quarantined_shards) == \
        {fault["shard"] for fault in applied}


# -- scrubbing and anti-entropy repair ---------------------------------------


@pytest.mark.parametrize("kind", sorted(_FAULT_KINDS))
def test_scrub_heals_every_damage_mode(flat_store, tmp_path, kind):
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    apply_shard_faults(root, _FAULT_KINDS[kind](1))
    assert not fsck_store(root).ok

    report = Scrubber(root).run_once()
    assert len(report.repaired) >= 1, report.format_summary()
    assert not report.unrepaired
    assert fsck_store(root).ok
    assert _strict(root).content_token() == clean_token
    # anti-entropy repair is idempotent: a second full pass finds a
    # clean store and performs zero repairs
    again = Scrubber(root).run_once()
    assert not again.repaired
    assert again.clean
    assert _strict(root).content_token() == clean_token


def test_scrub_budget_ticks_resume_across_restarts(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    apply_shard_faults(root, _FAULT_KINDS["flip"](0))

    ticks = 0
    repaired = 0
    while True:
        # a fresh Scrubber per tick: the cursor must live in the
        # journal, not the object
        tick = Scrubber(root).tick(budget_bytes=16 * 1024)
        ticks += 1
        repaired += len(tick.repaired)
        if tick.pass_completed:
            break
        assert ticks < 10_000
    assert ticks > 1, "budget did not split the pass into ticks"
    assert repaired >= 1
    assert fsck_store(root).ok
    assert _strict(root).content_token() == clean_token

    stats = scrub_stats(root)
    assert stats["journal_present"]
    assert stats["completed_passes"] == 1
    assert stats["repaired_total"] >= 1
    assert stats["cursor"] == 0
    assert stats["verified_bytes_total"] > 0


def test_scrub_falls_back_to_repair_for_quarantined_shard(flat_store,
                                                          tmp_path):
    """Both replicas damaged: no peer to heal from, so the scrubber's
    end-of-pass fallback runs ``repair_store`` (peer-replica salvage
    from the quarantined copies) and still converges."""
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    first = apply_shard_faults(root, _FAULT_KINDS["flip"](0))
    second = apply_shard_faults(root, _FAULT_KINDS["missing_manifest"](1))
    assert first[0]["shard"] == second[0]["shard"]  # same seed, same pick

    report = Scrubber(root).run_once()
    assert fsck_store(root).ok, report.format_summary()
    # r1 lost only its manifest — its column bytes still hash to the
    # root entry's token, so salvage rebuilds both replicas from them
    assert _strict(root).content_token() == clean_token


def test_repair_store_idempotent_over_replicas(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    apply_shard_faults(root, _FAULT_KINDS["truncate"](0))

    report = repair_store(root)  # no --from: peer replica salvage
    assert report.ok, report.format_summary()
    assert len(report.repaired) >= 1
    assert fsck_store(root).ok
    assert _strict(root).content_token() == clean_token

    again = repair_store(root)
    assert again.ok
    assert not again.repaired, "second repair run was not a no-op"
    assert all(a.action == "intact" for a in again.actions)
    assert _strict(root).content_token() == clean_token


# -- online replication conversion -------------------------------------------


def test_replicate_store_online(flat_store, tmp_path):
    root = _build(flat_store, tmp_path, replication=1)
    clean_token = _strict(root).content_token()
    manifest = replicate_store(root, 2)
    assert manifest["replication"] == 2
    assert fsck_store(root).ok
    assert _strict(root).content_token() == clean_token
    # flat files were reclaimed after the commit
    shard0 = os.path.join(root, manifest["shards"][0]["name"])
    assert not os.path.exists(os.path.join(shard0, "patient.npy"))
    assert os.path.isdir(os.path.join(shard0, "r0"))

    # raising again is a no-op, lowering is refused
    assert replicate_store(root, 2)["replication"] == 2
    with pytest.raises(ShardRepairError):
        replicate_store(root, 1)

    healed = ShardedEventStore(root, config=_quarantine_config())
    single = QueryEngine(flat_store)
    merged = QueryEngine(healed)
    for expr in _generated_corpus(flat_store, seed=37, count=10):
        assert np.array_equal(
            np.asarray(merged.patients(expr)),
            np.asarray(single.patients(expr)),
        ), expr


# -- damage-log rotation (quarantine store) ----------------------------------


def test_damage_log_rotates_at_size_cap(flat_store, tmp_path):
    root = _build(flat_store, tmp_path, replication=1)
    apply_shard_faults(root, ShardFaultPlan(seed=13, flip_bytes=2))
    sharded = ShardedEventStore(
        root, config=_quarantine_config(damage_log_max_bytes=1)
    )
    assert sharded.degradation().patients_lost > 0
    log = sharded.damage_log_path
    assert os.path.isfile(log)
    assert os.path.isfile(log + ".1"), (
        "damage log did not rotate at the size cap"
    )
    # one record per file: every append past the first rotated first
    for path in (log, log + ".1"):
        with open(path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        assert len(records) == 1
        assert records[0]["reason"]


# -- crash matrix ------------------------------------------------------------


def _copy(src: str, tmp_path, name: str) -> str:
    dst = str(tmp_path / name)
    shutil.copytree(src, dst)
    return dst


def _enumerate(op, path) -> int:
    with count_crashpoints() as trace:
        op(path)
    assert trace.labels, "operation passed no crash points"
    assert all(
        label.split(":", 1)[0] in ("fsync", "replace", "install", "installed")
        for label in trace.labels
    )
    return len(trace.labels)


@pytest.fixture(scope="module")
def crash_template(tmp_path_factory):
    """A small pristine R=2 store plus an append batch, for the matrix."""
    population, __ = generate_store_fast(40, seed=5)
    pids = np.sort(population.patient_ids)
    base = subset_store(population, pids[:30])
    batch = subset_store(population, pids[30:])
    root = str(tmp_path_factory.mktemp("repcrash") / "base.shards")
    write_sharded_store(base, root, n_shards=2,
                        config=ShardConfig(replication=2))
    return root, base, batch


def test_replicated_append_crash_matrix(crash_template, tmp_path):
    template, __, batch = crash_template
    pre = _strict(template).materialize_store()
    probe = _copy(template, tmp_path, "probe")
    DeltaWriter(probe).append(batch)
    post = _strict(probe).materialize_store()
    assert not pre.content_equal(post)

    n = _enumerate(lambda p: DeltaWriter(p).append(batch),
                   _copy(template, tmp_path, "count"))
    committed = 0
    for step in range(1, n + 1):
        work = _copy(template, tmp_path, f"append-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            DeltaWriter(work).append(batch)
        assert fsck_store(work).ok, f"fsck dirty after crash at step {step}"
        state = _strict(work).materialize_store()
        if state.content_equal(post):
            committed += 1
        else:
            assert state.content_equal(pre), (
                f"torn state after crash at step {step}"
            )
            DeltaWriter(work).append(batch)
            assert _strict(work).materialize_store().content_equal(post)
            assert fsck_store(work).ok
    assert 1 <= committed < n


def test_replicate_store_crash_matrix(tmp_path):
    population, __ = generate_store_fast(40, seed=5)
    template = str(tmp_path / "flat.shards")
    write_sharded_store(population, template, n_shards=2)
    pre_token = _strict(template).content_token()

    n = _enumerate(lambda p: replicate_store(p, 2),
                   _copy(template, tmp_path, "count"))
    assert n >= 2  # per-replica installs plus the commit bracket
    for step in range(1, n + 1):
        work = _copy(template, tmp_path, f"replicate-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            replicate_store(work, 2)
        # whichever side of the commit the crash landed on, the store
        # opens and serves the identical bytes
        assert _strict(work).content_token() == pre_token
        # re-running converges to a clean fully replicated store
        assert replicate_store(work, 2)["replication"] == 2
        assert fsck_store(work).ok
        assert _strict(work).content_token() == pre_token


def test_scrub_repair_passes_crash_boundaries(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    clean_token = _strict(root).content_token()
    apply_shard_faults(root, _FAULT_KINDS["flip"](0))

    with count_crashpoints() as trace:
        Scrubber(_copy(root, tmp_path, "count")).run_once()
    assert any(label == "replace:scrub-journal" for label in trace.labels)
    repair_steps = [
        i + 1 for i, label in enumerate(trace.labels)
        if label != "replace:scrub-journal"
    ]
    assert repair_steps, "scrub repair passed no install boundaries"

    for step in repair_steps:
        work = _copy(root, tmp_path, f"scrub-{step}")
        with crash_at(step), pytest.raises(SimulatedCrashError):
            Scrubber(work).run_once()
        # a crashed scrub never loses data: reads stay exact...
        assert _strict(work).content_token() == clean_token
        # ...and a rerun finishes the heal
        Scrubber(work).run_once()
        assert fsck_store(work).ok
        assert _strict(work).content_token() == clean_token


# -- workbench / serving surfacing -------------------------------------------


def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=15) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def test_stats_expose_replication_and_scrub(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    apply_shard_faults(root, _FAULT_KINDS["flip"](0))
    Scrubber(root).run_once()
    wb = Workbench.from_shards(root, shard_config=_quarantine_config())
    payload = wb.shard_stats()
    assert payload["replication"]["replication"] == 2
    assert payload["scrub"]["journal_present"]
    assert payload["scrub"]["completed_passes"] >= 1
    assert payload["scrub"]["last_pass_clean"] in (True, False)
    with WorkbenchServer(wb) as server:
        status, body = _get(server.url + "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["shards"]["replication"]["replication"] == 2
        assert stats["shards"]["scrub"]["journal_present"]
        status, __ = _get(server.url + "/readyz")
        assert status == 200  # healed store is ready


def test_readyz_503_when_zero_healthy_replicas(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    first = apply_shard_faults(root, _FAULT_KINDS["flip"](0))
    second = apply_shard_faults(root, _FAULT_KINDS["flip"](1))
    assert first[0]["shard"] == second[0]["shard"]
    wb = Workbench.from_shards(root, shard_config=_quarantine_config())
    assert wb.is_degraded
    health = wb.health()
    assert health["shards"]["replication"] == 2
    assert first[0]["shard"] in health["shards"][
        "zero_healthy_replica_shards"]
    with WorkbenchServer(wb) as server:
        status, body = _get(server.url + "/readyz")
        assert status == 503
        assert "zero healthy replicas" in body


# -- CLI ---------------------------------------------------------------------


class TestReplicationCli:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory) -> str:
        path = str(tmp_path_factory.mktemp("repcli") / "store.npz")
        assert main(["generate", "--patients", "120", "--seed", "17",
                     "--out", path]) == 0
        return path

    def test_build_with_replication(self, store_path, tmp_path, capsys):
        out = str(tmp_path / "built.shards")
        assert main(["shard", "build", store_path, "--out", out,
                     "--shards", "2", "--replication", "2"]) == 0
        assert "replication 2" in capsys.readouterr().out
        assert os.path.isdir(os.path.join(out, "shard-0000", "r1"))
        assert fsck_store(out).ok

    def test_replicate_then_scrub_roundtrip(self, store_path, tmp_path,
                                            capsys):
        out = str(tmp_path / "conv.shards")
        assert main(["shard", "build", store_path, "--out", out,
                     "--shards", "2"]) == 0
        capsys.readouterr()  # drop the build banner
        assert main(["shard", "replicate", out,
                     "--replication", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replication"] == 2

        apply_shard_faults(out, _FAULT_KINDS["flip"](0))
        assert not fsck_store(out).ok
        assert main(["shard", "scrub", out, "--once", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["repaired"]) >= 1
        assert payload["journal"]["completed_passes"] >= 1
        assert fsck_store(out).ok

    def test_scrub_single_tick_budget(self, store_path, tmp_path, capsys):
        out = str(tmp_path / "tick.shards")
        assert main(["shard", "build", store_path, "--out", out,
                     "--shards", "2", "--replication", "2"]) == 0
        assert main(["shard", "scrub", out,
                     "--budget", str(32 * 1024)]) == 0
        printed = capsys.readouterr().out
        assert "scrub" in printed.lower()


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
