"""Chaos differential: damaged stores serve exactly the surviving truth.

The quarantine contract has one falsifiable core: a store opened with
``on_damage="quarantine"`` over k damaged shards must answer every query
with **exactly** the flat store's answer restricted to the surviving
patients — never a patient the flat store would not return, never a
surviving patient dropped, and every result flagged with a
:class:`~repro.shard.store.QueryDegradation` naming the quarantined
shards.  This suite proves that for k ∈ {0, 1, 2} under three damage
modes (byte flip, truncated segment, deleted manifest) on the seeded
query corpus, then repairs the store and proves full equality (and
byte-identical content tokens) is restored.

It also covers the executor's pool path: a worker killed mid-query (via
the seeded worker-kill token) must still yield the full, correct answer
— serially for the poisoned query, in parallel again after the rebuild
probe — damage a worker finds after open is quarantined without
breaking the pool, and the webapp must surface shard damage through
``/healthz`` 503s, the degraded banner and ``/stats``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import ShardConfig
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.resilience.faults import (
    KILL_WORKER_ENV,
    ShardFaultPlan,
    apply_shard_faults,
)
from repro.shard import (
    ParallelExecutor,
    ShardedEventStore,
    fsck_store,
    repair_store,
    write_sharded_store,
)
from repro.simulate.fast import generate_store_fast
from repro.webapp import WorkbenchServer
from repro.workbench import Workbench
from tests.test_query_planner_property import _generated_corpus

N_SHARDS = 4

_FAULT_KINDS = {
    "flip": lambda k: ShardFaultPlan(seed=13, flip_bytes=k),
    "truncate": lambda k: ShardFaultPlan(seed=13, truncate_segments=k),
    "missing_manifest": lambda k: ShardFaultPlan(seed=13,
                                                 delete_manifests=k),
}


@pytest.fixture(scope="module")
def flat_store():
    store, __ = generate_store_fast(250, seed=11)
    return store


def _build(flat_store, tmp_path) -> str:
    root = str(tmp_path / "chaos.shards")
    write_sharded_store(flat_store, root, n_shards=N_SHARDS)
    return root


def _quarantine_config(**kwargs) -> ShardConfig:
    return ShardConfig(on_damage="quarantine", n_workers=1, **kwargs)


@pytest.mark.parametrize("kind", sorted(_FAULT_KINDS))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_degraded_results_equal_restricted_flat(flat_store, tmp_path,
                                                kind, k):
    root = _build(flat_store, tmp_path)
    clean_token = ShardedEventStore(root).content_token()
    applied = apply_shard_faults(root, _FAULT_KINDS[kind](k))
    assert len(applied) == k

    sharded = ShardedEventStore(root, config=_quarantine_config())
    degradation = sharded.degradation()
    assert degradation.is_degraded == (k > 0)
    assert set(degradation.quarantined_shards) == \
        {fault["shard"] for fault in applied}
    assert sharded.n_active_shards == N_SHARDS - k
    if k:
        assert sharded.content_token() != clean_token
        assert degradation.patients_lost > 0

    surviving = sharded.patient_ids
    assert len(surviving) + degradation.patients_lost == flat_store.n_patients

    single = QueryEngine(flat_store)
    merged = QueryEngine(sharded)
    for expr in _generated_corpus(flat_store, seed=29, count=40):
        expected = np.intersect1d(
            np.asarray(single.patients(expr)), surviving
        )
        got = np.asarray(merged.patients(expr))
        assert np.array_equal(got, expected), expr

    # Repair restores full equality and the byte-identical store token.
    report = repair_store(root, source=flat_store)
    assert report.ok, report.format_summary()
    assert fsck_store(root).ok
    healed = ShardedEventStore(root, config=_quarantine_config())
    assert not healed.degradation().is_degraded
    assert healed.content_token() == clean_token
    healed_engine = QueryEngine(healed)
    for expr in _generated_corpus(flat_store, seed=31, count=15):
        assert np.array_equal(
            np.asarray(healed_engine.patients(expr)),
            np.asarray(single.patients(expr)),
        ), expr


def test_mixed_damage_modes_in_one_store(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    applied = apply_shard_faults(
        root, ShardFaultPlan(seed=7, flip_bytes=1, delete_manifests=1)
    )
    sharded = ShardedEventStore(root, config=_quarantine_config())
    degradation = sharded.degradation()
    assert set(degradation.quarantined_shards) == \
        {fault["shard"] for fault in applied}
    assert "DEGRADED: 2 shard(s)" in degradation.format_summary()
    # explain() carries the damage on every plan over this store.
    engine = QueryEngine(sharded)
    assert "DEGRADED: 2 shard(s)" in engine.explain(parse_query("concept T90"))


def test_worker_killed_mid_query_recovers_to_parallel(flat_store, tmp_path,
                                                      monkeypatch):
    root = _build(flat_store, tmp_path)
    token = tmp_path / "kill-token"
    token.write_text("")
    monkeypatch.setenv(KILL_WORKER_ENV, str(token))
    sharded = ShardedEventStore(
        root, config=ShardConfig(on_damage="quarantine", n_workers=2)
    )
    expr = parse_query("concept T90 or atleast 2 category gp_contact")
    expected = np.asarray(QueryEngine(flat_store).patients(expr))
    with ParallelExecutor(config=sharded.config) as executor:
        # The poisoned query: one worker claims the token and dies, the
        # pool breaks, the query completes serially — full answer.
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        assert executor.pool_failures == 1
        assert executor.pool_fallbacks == 1
        assert not token.exists()  # the token was claimed exactly once
        assert executor.mode == "parallel"  # probe pending, not broken
        # The next query probes parallel again, spending one rebuild.
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        stats = executor.stats_dict()
        assert stats["pool_rebuilds"] == 1
        assert stats["parallel_queries"] >= 1
        assert executor.mode == "parallel"
    # Nothing was quarantined: the damage was a process, not the bytes.
    assert not sharded.degradation().is_degraded


def test_parallel_executor_over_quarantined_store(flat_store, tmp_path):
    root = _build(flat_store, tmp_path)
    applied = apply_shard_faults(root, ShardFaultPlan(seed=3, flip_bytes=1))
    sharded = ShardedEventStore(
        root, config=ShardConfig(on_damage="quarantine", n_workers=2)
    )
    surviving = sharded.patient_ids
    expr = parse_query("sex F")
    expected = np.intersect1d(
        np.asarray(QueryEngine(flat_store).patients(expr)), surviving
    )
    with ParallelExecutor(config=sharded.config) as executor:
        got = executor.patients(sharded, expr)
        assert np.array_equal(np.asarray(got), expected)
        # Only the surviving shards were scanned.
        assert executor.shards_scanned == N_SHARDS - len(applied)


def test_pool_quarantines_damage_found_after_open(flat_store, tmp_path):
    """Two workers, a byte flipped after the store opened: a worker finds
    the damage, the typed error crosses the pool intact, and the shard
    is quarantined without breaking or rebuilding the pool."""
    root = _build(flat_store, tmp_path)
    sharded = ShardedEventStore(
        root, config=ShardConfig(on_damage="quarantine", n_workers=2)
    )
    applied = apply_shard_faults(root, ShardFaultPlan(seed=3, flip_bytes=1))
    assert len(applied) == 1
    single = QueryEngine(flat_store)
    corpus = _generated_corpus(flat_store, seed=29, count=20)
    with ParallelExecutor(config=sharded.config) as executor:
        merged = QueryEngine(sharded, executor=executor)
        results = [np.asarray(merged.patients(expr)) for expr in corpus]
        stats = executor.stats_dict()
    assert sharded.degradation().quarantined_shards == (applied[0]["shard"],)
    surviving = sharded.patient_ids
    for expr, got in zip(corpus, results):
        expected = np.intersect1d(np.asarray(single.patients(expr)),
                                  surviving)
        assert np.array_equal(got, expected), expr
    assert stats["query_time_quarantines"] == 1
    assert stats["pool_failures"] == 0
    assert stats["pool_rebuilds"] == 0
    assert stats["parallel_queries"] == len(corpus)


class TestWebappOverDamagedStore:
    @pytest.fixture(scope="class")
    def damaged_root(self, tmp_path_factory):
        store, __ = generate_store_fast(250, seed=11)
        root = str(tmp_path_factory.mktemp("chaosweb") / "web.shards")
        write_sharded_store(store, root, n_shards=N_SHARDS)
        apply_shard_faults(root, ShardFaultPlan(seed=5, flip_bytes=1))
        return root

    def _get(self, url: str) -> tuple[int, str]:
        try:
            with urllib.request.urlopen(url, timeout=15) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8")

    def test_health_degraded_and_readyz_503(self, damaged_root):
        wb = Workbench.from_shards(
            damaged_root, shard_config=_quarantine_config()
        )
        assert wb.is_degraded
        health = wb.health()
        assert health["status"] == "degraded"
        assert health["shards"]["active"] == N_SHARDS - 1
        assert len(health["shards"]["quarantined"]) == 1
        assert health["shards"]["patients_lost"] > 0
        with WorkbenchServer(wb) as server:
            # Liveness stays 200 (the worker is serving); the payload
            # and the readiness probe carry the quarantine state.
            status, body = self._get(server.url + "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            status, body = self._get(server.url + "/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False
            status, body = self._get(server.url + "/stats")
            assert status == 200
            shards = json.loads(body)["shards"]
            assert shards["degradation"]["degraded"] is True
            assert shards["active_shards"] == N_SHARDS - 1
            # The banner names the quarantined shard on the index page.
            status, body = self._get(server.url + "/")
            assert status == 200
            assert "shard-" in body

    def test_degraded_mode_fail_returns_503_everywhere(self, damaged_root):
        wb = Workbench.from_shards(
            damaged_root, shard_config=_quarantine_config()
        )
        with WorkbenchServer(wb, degraded_mode="fail") as server:
            status, __ = self._get(server.url + "/")
            assert status == 503
