"""Fixture corpus for the dataflow rule family (LK201–LK204).

Each rule gets violating snippets and corrected twins laid out as a
miniature project (the dataflow rules are project rules: they parse the
whole tree under ``root``, build CFGs and call summaries, and judge the
requested files).  The corpus is what documents each rule's contract:
the corrected twin of every violation is the smallest change that makes
the protocol hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.lintkit import (
    all_rules,
    lint_paths,
    load_baseline,
    violation_fingerprint,
    write_baseline,
)


def _lint_fixture(tmp_path, files: dict, select: set):
    """Write ``files`` (rel -> source) under tmp_path, lint with rules."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    rules = [r for r in all_rules() if r.id in select]
    return lint_paths([tmp_path / "src"], rules=rules, root=tmp_path)


# -- LK201: durability protocol ----------------------------------------------


def test_lk201_wrapper_installer_proved_by_summary(tmp_path):
    # _install is NOT on any allow-list: the bottom-up summary must
    # prove it durable (replace followed by fsync_dir on all paths) and
    # then excuse the write that reaches it.
    assert not _lint_fixture(tmp_path, {
        "src/repro/shard/wx.py": (
            "import os\n"
            "def fsync_dir(path):\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    os.fsync(fd)\n"
            "    os.close(fd)\n"
            "def _install(tmp, dst):\n"
            "    os.replace(tmp, dst)\n"
            "    fsync_dir(os.path.dirname(dst))\n"
            "def stash(path, data):\n"
            "    with open(path + '.tmp', 'wb') as f:\n"
            "        f.write(data)\n"
            "    _install(path + '.tmp', path)\n"
        ),
    }, select={"LK201"})


def test_lk201_write_escaping_on_one_branch_flagged(tmp_path):
    # Path sensitivity: the protocol must complete on EVERY normal
    # path.  The fast branch renames without replace+fsync_dir, so the
    # write is flagged even though the slow branch is correct.
    violations = _lint_fixture(tmp_path, {
        "src/repro/shard/bx.py": (
            "import os\n"
            "def stash(path, data, fast):\n"
            "    with open(path + '.tmp', 'wb') as f:\n"
            "        f.write(data)\n"
            "    if fast:\n"
            "        os.rename(path + '.tmp', path)\n"
            "    else:\n"
            "        os.replace(path + '.tmp', path)\n"
            "        fsync_dir(os.path.dirname(path))\n"
        ),
    }, select={"LK201"})
    assert len(violations) == 1
    assert violations[0].line == 3
    assert "atomic install path" in violations[0].message


def test_lk201_early_raise_is_not_an_escape(tmp_path):
    # A raise has no normal successor: aborting before the install is a
    # legal outcome, so validation guards do not defeat the must-proof.
    assert not _lint_fixture(tmp_path, {
        "src/repro/shard/rx.py": (
            "import os\n"
            "def stash(path, data):\n"
            "    if not data:\n"
            "        raise ValueError('empty')\n"
            "    with open(path + '.tmp', 'wb') as f:\n"
            "        f.write(data)\n"
            "    os.replace(path + '.tmp', path)\n"
            "    fsync_dir(os.path.dirname(path))\n"
        ),
    }, select={"LK201"})


def test_lk201_replace_without_dirsync_flagged_in_shard_tier(tmp_path):
    violations = _lint_fixture(tmp_path, {
        "src/repro/sketch/sx.py": (
            "import os\n"
            "def stash(path, data):\n"
            "    with open(path + '.tmp', 'wb') as f:\n"
            "        f.write(data)\n"
            "    os.replace(path + '.tmp', path)\n"
        ),
    }, select={"LK201"})
    assert [v.line for v in violations] == [3]


def test_lk201_method_on_local_object_is_not_an_install(tmp_path):
    # ``Writer.write`` is a proven installer, but ``f.write`` on a file
    # object is not a call to it: a callee guessed from a bare method
    # name must not excuse the in-place write under the shard root.
    violations = _lint_fixture(tmp_path, {
        "src/repro/shard/lx.py": (
            "import os\n"
            "def fsync_dir(path):\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    os.fsync(fd)\n"
            "    os.close(fd)\n"
            "class Writer:\n"
            "    def write(self, path, data):\n"
            "        with open(path + '.tmp', 'wb') as f:\n"
            "            f.write(data)\n"
            "        os.replace(path + '.tmp', path)\n"
            "        fsync_dir(os.path.dirname(path))\n"
            "def stash(path, data):\n"
            "    with open(path, 'wb') as f:\n"
            "        f.write(data)\n"
        ),
    }, select={"LK201"})
    assert [(v.rule, v.line) for v in violations] == [("LK201", 13)]


# -- LK202: crashpoint coverage ----------------------------------------------


def test_lk202_uncovered_boundaries_flagged(tmp_path):
    violations = _lint_fixture(tmp_path, {
        "src/repro/shard/fx.py": (
            "import os\n"
            "def install(tmp, dst):\n"
            "    os.replace(tmp, dst)\n"
            "def flush(f):\n"
            "    os.fsync(f.fileno())\n"
        ),
    }, select={"LK202"})
    assert len(violations) == 2
    assert "os.replace" in violations[0].message
    assert "os.fsync" in violations[1].message
    assert all("crashpoint" in v.message for v in violations)


def test_lk202_crashpoint_after_boundary_passes(tmp_path):
    assert not _lint_fixture(tmp_path, {
        "src/repro/shard/fx.py": (
            "import os\n"
            "def install(tmp, dst):\n"
            "    os.replace(tmp, dst)\n"
            "    crashpoint('replace:seg')\n"
        ),
    }, select={"LK202"})


def test_lk202_coverage_through_helper_summary(tmp_path):
    # _mark always hits crashpoint(), so calling it covers the boundary
    # — the summary makes helper indirection sound, not a loophole.
    assert not _lint_fixture(tmp_path, {
        "src/repro/shard/fx.py": (
            "import os\n"
            "def _mark(label):\n"
            "    crashpoint('replace:' + label)\n"
            "def install(tmp, dst):\n"
            "    os.replace(tmp, dst)\n"
            "    _mark('seg')\n"
        ),
    }, select={"LK202"})


def test_lk202_conditional_crashpoint_still_flagged(tmp_path):
    # Coverage is a must-property: a crashpoint reached only on one
    # branch leaves the other branch invisible to the crash matrix.
    violations = _lint_fixture(tmp_path, {
        "src/repro/shard/fx.py": (
            "import os\n"
            "def install(tmp, dst, noisy):\n"
            "    os.replace(tmp, dst)\n"
            "    if noisy:\n"
            "        crashpoint('replace:seg')\n"
        ),
    }, select={"LK202"})
    assert len(violations) == 1
    assert "os.replace" in violations[0].message


# -- LK203: deadline propagation ----------------------------------------------


def test_lk203_helper_indirection_flagged(tmp_path):
    # The handler has no Deadline anywhere, and the query work hides
    # behind a serving-local helper — the call-graph summary sees
    # through it.
    violations = _lint_fixture(tmp_path, {
        "src/repro/serving/hx.py": (
            "class Core:\n"
            "    def _cohort(self, request):\n"
            "        return run_query(self.workbench, request.q)\n"
            "def run_query(workbench, q, deadline=None):\n"
            "    return workbench.select(q, deadline=deadline)\n"
        ),
    }, select={"LK203"})
    assert len(violations) == 1
    assert violations[0].line == 3
    assert "run_query" in violations[0].message
    assert "no Deadline in scope" in violations[0].message


def test_lk203_deadline_in_scope_but_not_threaded_flagged(tmp_path):
    # Tier 2: having a deadline parameter (the old LK104 contract) is
    # no longer enough — it must reach the executor call.
    violations = _lint_fixture(tmp_path, {
        "src/repro/serving/hx.py": (
            "class Core:\n"
            "    def _cohort(self, request, deadline):\n"
            "        return self.workbench.select(request.q)\n"
        ),
    }, select={"LK203"})
    assert len(violations) == 1
    assert "without threading its Deadline" in violations[0].message


def test_lk203_deadline_threaded_positionally_passes(tmp_path):
    # A locally constructed Deadline bound to another name still
    # counts when it reaches the call — taint, not spelling.
    assert not _lint_fixture(tmp_path, {
        "src/repro/serving/hx.py": (
            "class Core:\n"
            "    def _cohort(self, request):\n"
            "        budget = Deadline(0.5)\n"
            "        return self.workbench.select(request.q, budget)\n"
        ),
    }, select={"LK203"})


def test_lk203_helper_constructing_own_deadline_excuses_caller(tmp_path):
    # snapshot() bounds its own query work, so callers need not thread
    # a deadline into it.
    assert not _lint_fixture(tmp_path, {
        "src/repro/serving/hx.py": (
            "class Core:\n"
            "    def _overview(self, request):\n"
            "        return snapshot(self.workbench)\n"
            "def snapshot(workbench):\n"
            "    deadline = Deadline(0.2)\n"
            "    return workbench.overview(deadline=deadline)\n"
        ),
    }, select={"LK203"})


# -- LK204: fork safety --------------------------------------------------------


def test_lk204_prefork_lock_used_in_child_flagged(tmp_path):
    violations = _lint_fixture(tmp_path, {
        "src/repro/serving/kx.py": (
            "import os\n"
            "import threading\n"
            "def run():\n"
            "    lock = threading.Lock()\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        lock.acquire()\n"
        ),
    }, select={"LK204"})
    assert len(violations) == 1
    assert violations[0].line == 7
    assert "lock" in violations[0].message
    assert "before fork" in violations[0].message


def test_lk204_resource_created_inside_child_passes(tmp_path):
    # The corrected twin: per-process state built after the fork.
    assert not _lint_fixture(tmp_path, {
        "src/repro/serving/kx.py": (
            "import os\n"
            "import threading\n"
            "def run():\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        lock = threading.Lock()\n"
            "        lock.acquire()\n"
        ),
    }, select={"LK204"})


def test_lk204_closing_inherited_handle_is_hygiene_not_use(tmp_path):
    assert not _lint_fixture(tmp_path, {
        "src/repro/serving/kx.py": (
            "import os\n"
            "import socket\n"
            "def run():\n"
            "    listener = socket.socket()\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        listener.close()\n"
        ),
    }, select={"LK204"})


def test_lk204_store_object_into_pool_worker_flagged(tmp_path):
    violations = _lint_fixture(tmp_path, {
        "src/repro/shard/px.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def _work(store):\n"
            "    return store\n"
            "def scatter(path):\n"
            "    store = load_store(path)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(_work, store).result()\n"
        ),
    }, select={"LK204"})
    assert len(violations) == 1
    assert "mmap-backed store" in violations[0].message
    assert "process-pool worker" in violations[0].message


def test_lk204_passing_plain_field_into_pool_passes(tmp_path):
    # store.path is a plain value: only the resource object itself
    # crossing the pool boundary is unsafe.
    assert not _lint_fixture(tmp_path, {
        "src/repro/shard/px.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def _work(path):\n"
            "    return path\n"
            "def scatter(path):\n"
            "    store = load_store(path)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(_work, store.path).result()\n"
        ),
    }, select={"LK204"})


# -- framework mechanics over project rules -----------------------------------


def test_project_rule_honours_line_suppression(tmp_path):
    assert not _lint_fixture(tmp_path, {
        "src/repro/serving/kx.py": (
            "import os\n"
            "import threading\n"
            "def run():\n"
            "    lock = threading.Lock()\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        lock.acquire()  # lintkit: disable=LK204\n"
        ),
    }, select={"LK204"})


_BASELINE_SNIPPET = (
    "import os\n"
    "def install(tmp, dst):\n"
    "    os.replace(tmp, dst)\n"
)


def test_baseline_filters_known_findings_only(tmp_path):
    files = {"src/repro/shard/fx.py": _BASELINE_SNIPPET}
    found = _lint_fixture(tmp_path, files, select={"LK202"})
    assert len(found) == 1

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, found)
    baseline = load_baseline(baseline_path)
    assert baseline == {violation_fingerprint(found[0])}

    # The recorded finding no longer gates...
    rules = [r for r in all_rules() if r.id == "LK202"]
    assert not lint_paths([tmp_path / "src"], rules=rules, root=tmp_path,
                          baseline=baseline)
    # ...even after edits above it move the line (fingerprints are
    # line-independent)...
    (tmp_path / "src/repro/shard/fx.py").write_text(
        "# a new leading comment\n" + _BASELINE_SNIPPET, encoding="utf-8"
    )
    assert not lint_paths([tmp_path / "src"], rules=rules, root=tmp_path,
                          baseline=baseline)
    # ...but a new finding still does.
    grown = "# a new leading comment\n" + _BASELINE_SNIPPET + (
        "def install2(tmp, dst):\n"
        "    os.replace(tmp, dst)\n"
    )
    (tmp_path / "src/repro/shard/fx.py").write_text(grown, encoding="utf-8")
    new = lint_paths([tmp_path / "src"], rules=rules, root=tmp_path,
                     baseline=baseline)
    assert len(new) == 1
    assert "install2" in new[0].message


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
