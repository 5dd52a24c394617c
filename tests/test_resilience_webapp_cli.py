"""Webapp hardening and CLI quarantine workflows under faults."""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.config import ResilienceConfig
from repro.io import load_store
from repro.resilience.faults import FaultPlan, FaultySource
from repro.simulate import generate_raw_sources
from repro.sources.integrate import IntegrationPipeline
from repro.webapp import WorkbenchServer
from repro.workbench import Workbench


def _get(server, path: str) -> tuple[int, str]:
    with urllib.request.urlopen(server.url + path, timeout=15) as response:
        return response.status, response.read().decode("utf-8")


def _get_error(server, path: str) -> tuple[int, str]:
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(server, path)
    return exc.value.code, exc.value.read().decode("utf-8")


@pytest.fixture(scope="module")
def healthy_wb():
    raw = generate_raw_sources(60, seed=7)
    return Workbench.from_raw_sources(raw)


@pytest.fixture(scope="module")
def degraded_wb():
    raw = generate_raw_sources(60, seed=7)
    pipeline = IntegrationPipeline(
        raw.window.end_day,
        resilience=ResilienceConfig(backoff_base_s=0.0, backoff_max_s=0.0),
        sleep=lambda s: None,
    )
    down = FaultySource(
        raw.municipal_records, FaultPlan(seed=4, down=True),
        source="municipal_records",
    )
    store, report = pipeline.run(
        raw.patients, raw.gp_claims, raw.hospital_episodes,
        down, raw.specialist_claims,
    )
    assert report.is_degraded
    return Workbench(store, report=report)


@pytest.fixture(scope="module")
def server(healthy_wb):
    with WorkbenchServer(healthy_wb) as running:
        yield running


@pytest.fixture(scope="module")
def degraded_server(degraded_wb):
    with WorkbenchServer(degraded_wb) as running:
        yield running


class TestHealthz:
    def test_healthy(self, server, healthy_wb):
        status, body = _get(server, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["degraded_sources"] == {}
        assert health["patients"] == healthy_wb.store.n_patients
        assert "failed_records" in health  # report attached by ingestion

    def test_degraded_liveness_stays_200_with_reasons(self, degraded_server):
        # Liveness: the process is serving, so /healthz answers 200;
        # degradation is reported in the payload and flips /readyz.
        status, body = _get(degraded_server, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "degraded"
        assert "municipal_records" in health["degraded_sources"]
        assert "registry down" in (
            health["degraded_sources"]["municipal_records"]
        )

    def test_degraded_readiness_is_503(self, degraded_server):
        status, body = _get_error(degraded_server, "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert payload["ready"] is False
        assert any("municipal_records" in reason
                   for reason in payload["reasons"])

    def test_healthy_readiness_is_200(self, server):
        status, body = _get(server, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True


class TestDegradedServing:
    def test_serve_mode_banners_but_answers(self, degraded_server):
        status, body = _get(degraded_server, "/")
        assert status == 200
        assert "degraded" in body
        assert "municipal_records" in body
        # queries still work against the partial integration
        status, body = _get(degraded_server, "/cohort?q=concept%20T90")
        assert status == 200
        assert "patients match" in body

    def test_fail_mode_turns_routes_into_503(self, degraded_wb):
        with WorkbenchServer(degraded_wb, degraded_mode="fail") as server:
            status, body = _get_error(server, "/")
            assert status == 503
            assert "municipal_records" in body
            status, __ = _get_error(server, "/cohort?q=concept%20T90")
            assert status == 503
            # the liveness endpoint stays reachable (and alive) for
            # monitoring; readiness reports the degradation
            status, body = _get(server, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "degraded"
            status, __ = _get_error(server, "/readyz")
            assert status == 503

    def test_fail_mode_on_healthy_store_serves_normally(self, healthy_wb):
        with WorkbenchServer(healthy_wb, degraded_mode="fail") as server:
            status, __ = _get(server, "/")
            assert status == 200

    def test_invalid_degraded_mode_rejected(self, healthy_wb):
        with pytest.raises(ValueError):
            WorkbenchServer(healthy_wb, degraded_mode="explode")


class TestMalformedParams:
    def test_non_integer_rows_is_400(self, server):
        status, body = _get_error(
            server, "/timeline.svg?q=concept%20T90&rows=abc"
        )
        assert status == 400
        assert "must be an integer" in body
        assert "class='err'" in body or 'class="err"' in body

    def test_bad_align_is_400(self, server):
        status, body = _get_error(
            server, "/timeline.svg?q=concept%20T90&align=T90%3Bdrop%20x"
        )
        assert status == 400
        assert "align" in body

    def test_good_params_still_served(self, server):
        status, body = _get(
            server, "/timeline.svg?q=concept%20T90&rows=10&align=T90"
        )
        assert status == 200
        assert body.startswith("<svg")


class TestRequestDeadline:
    def test_expired_deadline_is_503(self, healthy_wb):
        with WorkbenchServer(healthy_wb, request_deadline_s=0.0) as server:
            status, body = _get_error(server, "/cohort?q=concept%20T90")
            assert status == 503
            assert "deadline" in body

    def test_generous_deadline_serves(self, healthy_wb):
        with WorkbenchServer(healthy_wb, request_deadline_s=60.0) as server:
            status, __ = _get(server, "/cohort?q=concept%20T90")
            assert status == 200


class TestCliQuarantine:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cliq")
        store_path = str(root / "store.npz")
        dead_path = str(root / "dead.jsonl")
        code = main(["generate", "--patients", "120", "--seed", "2",
                     "--full-fidelity", "--quarantine", dead_path,
                     "--out", store_path])
        assert code == 0
        return store_path, dead_path

    def test_generate_dead_letters_native_failures(self, generated, capsys):
        store_path, dead_path = generated
        # the simulator injects some natively-bad records, so the
        # quarantine must exist and hold at least one dead letter
        assert os.path.exists(dead_path)
        assert main(["quarantine", "show", dead_path]) == 0
        out = capsys.readouterr().out
        assert "quarantined record(s)" in out

    def test_replay_without_repair_reproduces_base(self, generated,
                                                   tmp_path, capsys):
        store_path, dead_path = generated
        out_path = str(tmp_path / "merged.npz")
        code = main(["quarantine", "replay", dead_path,
                     "--store", store_path, "--out", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        # nothing was repaired, so the still-broken records add nothing
        assert load_store(out_path).content_equal(load_store(store_path))

    def test_replay_after_repair_uses_exact_default_horizon(self, tmp_path):
        # Regression: stored interval ends are exclusive, so the replay
        # horizon inferred from base.end.max() must subtract one or
        # horizon-truncated prescriptions come back one day longer.
        from repro.io import save_store
        from repro.resilience.quarantine import QuarantineStore
        from repro.resilience.faults import repair_record

        raw = generate_raw_sources(60, seed=7)

        def pipeline(quarantine=None):
            return IntegrationPipeline(
                raw.window.end_day,
                resilience=ResilienceConfig(backoff_base_s=0.0,
                                            backoff_max_s=0.0),
                quarantine=quarantine, sleep=lambda s: None,
            )

        reference, __ = pipeline().run(
            raw.patients, raw.gp_claims, raw.hospital_episodes,
            raw.municipal_records, raw.specialist_claims,
        )
        quarantine = QuarantineStore(str(tmp_path / "dead.jsonl"))
        faulty_gp = FaultySource(
            raw.gp_claims, FaultPlan(seed=3, corrupt_rate=0.10),
            source="gp_claims",
        )
        faulted, __ = pipeline(quarantine).run(
            raw.patients, faulty_gp, raw.hospital_episodes,
            raw.municipal_records, raw.specialist_claims,
        )
        base_path = str(tmp_path / "faulted.npz")
        save_store(faulted, base_path)
        quarantine.repair(repair_record)
        out_path = str(tmp_path / "recovered.npz")
        assert main(["quarantine", "replay", str(tmp_path / "dead.jsonl"),
                     "--store", base_path, "--out", out_path]) == 0
        assert load_store(out_path).content_equal(reference)

    def test_show_on_missing_file_is_empty(self, tmp_path, capsys):
        assert main(["quarantine", "show",
                     str(tmp_path / "nothing.jsonl")]) == 0
        assert "0 quarantined record(s)" in capsys.readouterr().out

    def test_generate_fail_fast_flag_parses(self, tmp_path, capsys):
        # healthy sources: --fail-fast must not change the outcome
        path = str(tmp_path / "ff.npz")
        assert main(["generate", "--patients", "80", "--seed", "3",
                     "--full-fidelity", "--fail-fast", "--max-retries", "1",
                     "--out", path]) == 0
        assert os.path.exists(path)


class TestErrorTaxonomyLint:
    def test_tool_passes_on_this_tree(self):
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "tools.lintkit",
             "--select", "LK001,LK002,LK003"],
            cwd=root, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
