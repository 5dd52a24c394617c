"""Golden tests: ``query --explain``, ``/stats`` and ``lint-query``.

Plan formatting (including its DIAGNOSTICS section), the stats payload
and the analyzer's ``lint-query --json`` report are consumed by humans
and scripts respectively; all are pinned byte-for-byte against golden
files so they cannot drift silently.  Regenerate intentionally with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_explain_stats.py
"""

from __future__ import annotations

import json
import os
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.io import save_store
from repro.simulate.fast import generate_store_fast
from repro.webapp import WorkbenchServer
from repro.workbench import Workbench

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The pinned scenario: a seeded store and a two-clause refinement query.
_SEED_PATIENTS, _SEED = 300, 9
_QUERY = "concept T90 and atleast 2 category gp_contact"

#: A query tripping several analyzer rules whose messages carry no
#: timing evidence, so the JSON report is byte-stable.
_LINT_QUERY = "code icpc2 /^ZZZ/ and category no_such_category"


def _golden_store():
    store, __ = generate_store_fast(_SEED_PATIENTS, seed=_SEED)
    return store


def _check_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{name} drifted from its golden file; if the change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_query_explain_output_pinned(tmp_path, capsys):
    store_path = str(tmp_path / "golden.npz")
    save_store(_golden_store(), store_path)
    # --repeat 2 so the explain tree shows warm-cache residency.
    assert cli_main(["query", store_path, _QUERY,
                     "--explain", "--repeat", "2"]) == 0
    _check_golden("query_explain.txt", capsys.readouterr().out)


def test_query_sharded_count_matches(tmp_path, capsys):
    """The scatter-gather path agrees with the pinned flat-store count."""
    store_path = str(tmp_path / "golden.npz")
    shard_path = str(tmp_path / "golden.shards")
    save_store(_golden_store(), store_path)
    assert cli_main(["shard", "build", store_path, "--out", shard_path,
                     "--shards", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["query", shard_path, _QUERY, "--shards",
                     "--workers", "1"]) == 0
    sharded_line = capsys.readouterr().out.splitlines()[0]
    golden = (GOLDEN_DIR / "query_explain.txt").read_text(encoding="utf-8")
    assert sharded_line == golden.splitlines()[0]


def test_lint_query_json_pinned(capsys):
    assert cli_main(["lint-query", _LINT_QUERY, "--json"]) == 0
    _check_golden("lint_query.json", capsys.readouterr().out)


def test_explain_diagnostics_section_pinned(tmp_path, capsys):
    """The DIAGNOSTICS block of --explain for a flagged query."""
    store_path = str(tmp_path / "golden.npz")
    save_store(_golden_store(), store_path)
    assert cli_main(["query", store_path, _LINT_QUERY,
                     "--explain"]) == 0
    out = capsys.readouterr().out
    section = out[out.index("DIAGNOSTICS"):]
    _check_golden("explain_diagnostics.txt", section)


def test_stats_json_pinned():
    wb = Workbench.from_store(_golden_store())
    with WorkbenchServer(wb) as server:
        encoded = _QUERY.replace(" ", "+")
        cohort_url = f"{server.url}/cohort?q={encoded}"
        # The second identical request never re-executes the plan: the
        # HTTP layer serves the rendered body from the response cache.
        for __ in range(2):
            with urllib.request.urlopen(cohort_url) as response:
                assert response.status == 200
        # The same plan through a different route *does* execute — and
        # lands a query-cache hit (plan results are shared per process).
        svg_url = f"{server.url}/timeline.svg?q={encoded}"
        with urllib.request.urlopen(svg_url) as response:
            assert response.status == 200
        with urllib.request.urlopen(f"{server.url}/stats") as response:
            assert response.status == 200
            body = response.read().decode("utf-8")
    payload = json.loads(body)
    assert payload["query_cache"]["hits"] > 0  # the warm timeline select
    assert payload["http_cache"]["response_cache"]["hits"] > 0
    assert payload["http_cache"]["queries_executed"] == 2
    pretty = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _check_golden("stats.json", pretty)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
