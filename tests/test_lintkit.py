"""The repo-wide AST lint framework (``tools/lintkit``).

Exercises the framework machinery (registry, suppressions, reporters,
syntax-error handling) and each rule against crafted snippets, then the
real gate: the whole of ``src/repro`` and ``tools`` must lint clean —
exactly what CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.lintkit import all_rules, format_text, lint_paths, to_json


def _lint_snippet(tmp_path, source: str, rel: str = "src/repro/x.py",
                  select: set | None = None):
    """Lint one snippet placed at a repo-relative-looking path.

    ``select`` narrows to specific rule ids (used by subsumption tests
    that port a legacy snippet onto its successor rule).
    """
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    # Exclude the project-wide taxonomy rule: it inspects repro.errors,
    # not the snippet.
    rules = [r for r in all_rules() if r.id != "LK003"]
    if select is not None:
        rules = [r for r in rules if r.id in select]
    return lint_paths([path], rules=rules, root=tmp_path)


def _rules_hit(violations) -> set:
    return {v.rule for v in violations}


# -- rules ------------------------------------------------------------------


def test_lk001_bare_except(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "try:\n    pass\nexcept:\n    pass\n"
    ))
    assert _rules_hit(violations) == {"LK001"}
    assert violations[0].line == 3


def test_lk002_broad_except_without_reraise(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "try:\n    pass\nexcept Exception:\n    x = 1\n"
    ))
    assert _rules_hit(violations) == {"LK002"}


def test_lk002_reraise_is_fine(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "try:\n    pass\nexcept Exception:\n    raise\n"
    ))


def test_lk003_taxonomy_roots_run_clean_on_repo():
    rules = [r for r in all_rules() if r.id == "LK003"]
    assert not lint_paths([], rules=rules, root=ROOT)


def test_lk101_unseeded_rng(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "import numpy as np\nimport random\n"
        "a = np.random.default_rng()\n"
        "b = random.Random()\n"
        "c = np.random.rand(3)\n"
    ))
    assert _rules_hit(violations) == {"LK101"}
    assert len(violations) == 3


def test_lk101_seeded_rng_passes(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "import numpy as np\nimport random\n"
        "a = np.random.default_rng(42)\n"
        "b = random.Random(7)\n"
    ))


def test_lk101_only_applies_to_src(tmp_path):
    source = "import numpy as np\na = np.random.default_rng()\n"
    assert _lint_snippet(tmp_path, source, rel="tools/x.py") == []


# LK201 subsumed the syntactic LK102: the legacy snippets must keep
# failing/passing identically under the dataflow rule.  Passing snippets
# that contain a bare ``os.replace`` now also owe a crashpoint under the
# *new* LK202 contract, so those select the successor rule explicitly.


def test_lk201_in_place_store_write(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "def save_thing(path, data):\n"
        "    with open(path, 'w') as f:\n"
        "        f.write(data)\n"
    ), rel="src/repro/io.py")
    assert _rules_hit(violations) == {"LK201"}


def test_lk201_atomic_replace_passes(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "import os, tempfile\n"
        "def save_thing(path, data):\n"
        "    fd, tmp = tempfile.mkstemp()\n"
        "    with open(tmp, 'w') as f:\n"
        "        f.write(data)\n"
        "    os.replace(tmp, path)\n"
    ), rel="src/repro/io.py", select={"LK201"})


def test_lk201_ignores_non_writer_io_functions(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "def export_csv(path):\n"
        "    with open(path, 'w') as f:\n"
        "        f.write('x')\n"
    ), rel="src/repro/io.py")


def test_lk103_np_load_needs_explicit_mmap(tmp_path):
    rel = "src/repro/shard/x.py"
    violations = _lint_snippet(tmp_path, (
        "import numpy as np\na = np.load('f.npy')\n"
    ), rel=rel)
    assert _rules_hit(violations) == {"LK103"}
    assert not _lint_snippet(tmp_path, (
        "import numpy as np\n"
        "a = np.load('f.npy', mmap_mode='r')\n"
        "b = np.load('g.npy', mmap_mode=None)\n"
    ), rel=rel)


def test_lk103_scoped_to_shard_code(tmp_path):
    source = "import numpy as np\na = np.load('f.npy')\n"
    assert not _lint_snippet(tmp_path, source, rel="src/repro/io.py")


_UNDEADLINED_HANDLER = (
    "class Core:\n"
    "    def _cohort(self, request):\n"
    "        return self.workbench.select(request.param('q'))\n"
)


# LK203 subsumed the syntactic LK104; same legacy snippets, same
# verdicts.


def test_lk203_undeadlined_handler_flagged(tmp_path):
    violations = _lint_snippet(
        tmp_path, _UNDEADLINED_HANDLER, rel="src/repro/serving/core.py"
    )
    assert _rules_hit(violations) == {"LK203"}
    assert violations[0].line == 3
    assert "select" in violations[0].message


def test_lk203_deadline_parameter_passes(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "class Core:\n"
        "    def _cohort(self, request, deadline):\n"
        "        return self.workbench.select(request.param('q'),\n"
        "                                     deadline=deadline)\n"
    ), rel="src/repro/serving/core.py")


def test_lk203_deadline_keyword_alone_passes(tmp_path):
    # Threading a deadline through without naming the parameter
    # 'deadline' (e.g. reading it off the request) still counts.
    assert not _lint_snippet(tmp_path, (
        "class Core:\n"
        "    def _cohort(self, request):\n"
        "        return self.workbench.select(\n"
        "            request.param('q'), deadline=request.budget)\n"
    ), rel="src/repro/serving/core.py")


def test_lk203_scoped_to_serving_code(tmp_path):
    # The same code outside the serving tier (e.g. a batch tool) is
    # allowed to run unbounded queries.
    assert not _lint_snippet(tmp_path, _UNDEADLINED_HANDLER,
                             rel="src/repro/workbench.py")
    assert not _lint_snippet(tmp_path, _UNDEADLINED_HANDLER,
                             rel="tools/x.py")


def test_lk203_applies_to_webapp_shim(tmp_path):
    violations = _lint_snippet(tmp_path, _UNDEADLINED_HANDLER,
                               rel="src/repro/webapp.py")
    assert _rules_hit(violations) == {"LK203"}


def test_lk203_ignores_functions_without_query_calls(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "class Core:\n"
        "    def _healthz(self, request):\n"
        "        return self.workbench.health()\n"
    ), rel="src/repro/serving/core.py")


_UNGUARDED_MATERIALIZE = (
    "class Core:\n"
    "    def _density(self, request, deadline):\n"
    "        flat = self.store.materialize_store()\n"
    "        return render(flat)\n"
)


def test_lk105_unguarded_materialization_flagged(tmp_path):
    violations = _lint_snippet(
        tmp_path, _UNGUARDED_MATERIALIZE, rel="src/repro/serving/core.py"
    )
    assert _rules_hit(violations) == {"LK105"}
    assert violations[0].line == 3
    assert "materialize_store" in violations[0].message


def test_lk105_threshold_guard_passes(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "class Core:\n"
        "    def _density(self, request, deadline):\n"
        "        sketch = self.store.store_sketch()\n"
        "        if sketch.n_patients <= self.config.drilldown_rows:\n"
        "            return render(self.store.materialize_store())\n"
        "        return render_sketch(sketch)\n"
    ), rel="src/repro/serving/core.py")


def test_lk105_applies_to_viz_code(tmp_path):
    violations = _lint_snippet(
        tmp_path, _UNGUARDED_MATERIALIZE, rel="src/repro/viz/views.py"
    )
    assert _rules_hit(violations) == {"LK105"}


def test_lk105_scoped_to_view_serving_code(tmp_path):
    # Batch/maintenance code (repair, CLI, io) legitimately flattens
    # whole stores; the rule only polices view-serving paths.
    assert not _lint_snippet(tmp_path, _UNGUARDED_MATERIALIZE,
                             rel="src/repro/shard/repair.py")
    assert not _lint_snippet(tmp_path, _UNGUARDED_MATERIALIZE,
                             rel="tools/x.py")


_BARE_SHARD_WRITE = (
    "import os\n"
    "def stash_blob(path, data):\n"
    "    with open(path + '.tmp', 'wb') as f:\n"
    "        f.write(data)\n"
    "    os.rename(path + '.tmp', path)\n"
)


# LK201's shard tier subsumed the syntactic LK106; same legacy
# snippets, same verdicts.


def test_lk201_bare_shard_write_flagged(tmp_path):
    violations = _lint_snippet(
        tmp_path, _BARE_SHARD_WRITE, rel="src/repro/shard/x.py"
    )
    assert _rules_hit(violations) == {"LK201"}
    assert violations[0].line == 3
    assert "atomic install path" in violations[0].message


def test_lk201_install_helper_passes(tmp_path):
    # Routing the bytes through an install helper satisfies the rule,
    # even from a function whose name the io tier would not police.
    assert not _lint_snippet(tmp_path, (
        "def stash_blob(path, data):\n"
        "    def write(tmp):\n"
        "        with open(tmp, 'wb') as f:\n"
        "            f.write(data)\n"
        "    atomic_replace(path, write)\n"
    ), rel="src/repro/shard/x.py")


def test_lk201_replace_plus_fsync_passes(tmp_path):
    assert not _lint_snippet(tmp_path, (
        "import os\n"
        "def stash_blob(path, data):\n"
        "    with open(path + '.tmp', 'wb') as f:\n"
        "        f.write(data)\n"
        "    os.replace(path + '.tmp', path)\n"
        "    fsync_dir(os.path.dirname(path))\n"
    ), rel="src/repro/shard/x.py", select={"LK201"})


def test_lk201_replace_without_fsync_flagged(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "import os\n"
        "def stash_blob(path, data):\n"
        "    with open(path + '.tmp', 'wb') as f:\n"
        "        f.write(data)\n"
        "    os.replace(path + '.tmp', path)\n"
    ), rel="src/repro/shard/x.py")
    assert "LK201" in _rules_hit(violations)


def test_lk201_scoped_to_shard_and_io_code(tmp_path):
    assert not _lint_snippet(tmp_path, _BARE_SHARD_WRITE,
                             rel="src/repro/viz/x.py")
    assert not _lint_snippet(tmp_path, _BARE_SHARD_WRITE,
                             rel="tools/x.py")


# -- framework --------------------------------------------------------------


def test_line_suppression(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "try:\n    pass\n"
        "except:  # lintkit: disable=LK001\n    pass\n"
    ))
    assert violations == []


def test_file_suppression(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "# lintkit: disable-file=LK001\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    ))
    assert violations == []


def test_suppression_only_silences_named_rule(tmp_path):
    violations = _lint_snippet(tmp_path, (
        "try:\n    pass\n"
        "except:  # lintkit: disable=LK002\n    pass\n"
    ))
    assert _rules_hit(violations) == {"LK001"}


def test_syntax_error_reported_not_raised(tmp_path):
    violations = _lint_snippet(tmp_path, "def broken(:\n")
    assert _rules_hit(violations) == {"LK000"}


def test_reporters(tmp_path):
    violations = _lint_snippet(tmp_path,
                               "try:\n    pass\nexcept:\n    pass\n")
    text = format_text(violations)
    assert "LK001" in text and "src/repro/x.py:3" in text
    payload = json.loads(to_json(violations))
    assert payload[0]["rule"] == "LK001"
    assert format_text([]) == "lintkit: clean"


def test_rule_ids_unique_and_titled():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert all(rule.title for rule in rules)
    assert {"LK001", "LK002", "LK003", "LK101", "LK103", "LK105",
            "LK201", "LK202", "LK203", "LK204"} <= set(ids)
    # The syntactic durability/deadline rules were subsumed by the
    # dataflow family and must not resurface under their old ids.
    assert not {"LK102", "LK104", "LK106"} & set(ids)


# -- the real gate ----------------------------------------------------------


def test_src_and_tools_lint_clean():
    violations = lint_paths([ROOT / "src" / "repro", ROOT / "tools"],
                            root=ROOT)
    assert not violations, format_text(violations)


def test_cli_module_runs_clean():
    result = subprocess.run(
        [sys.executable, "-m", "tools.lintkit"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_error_taxonomy_selection_runs_clean():
    result = subprocess.run(
        [sys.executable, "-m", "tools.lintkit",
         "--select", "LK001,LK002,LK003"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
