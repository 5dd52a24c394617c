"""Interprocedural dataflow rules (LK201+).

These replace the syntactic LK102/LK104/LK106 pattern checks with
path-sensitive proofs over per-function CFGs (:mod:`tools.lintkit.cfg`)
and a project call graph (:mod:`tools.lintkit.callgraph`):

* **LK201** — durability protocol.  Any raw byte write in the
  persistence tiers must reach the atomic install protocol on **every**
  normal path: under ``repro/shard/`` and ``repro/sketch/`` that means
  ``os.replace`` *followed by* ``fsync_dir`` (or a call to a helper the
  engine proves durable, e.g. ``atomic_replace``); in ``repro/io.py``
  the named ``save_*``/``write_*`` entry points must at least stage and
  ``os.replace``.  Helper indirection no longer defeats the check: a
  durable-installer *summary* is computed bottom-up to a fixpoint, so a
  new wrapper around ``atomic_replace`` is recognised without being
  added to any allow-list.
* **LK202** — crashpoint coverage.  Every direct ``os.replace`` /
  ``os.fsync`` boundary in the persistence tiers must be followed (on
  all normal paths) by a ``crashpoint()`` call — otherwise the crash
  matrix in the resilience tests can never schedule a crash at that
  boundary and the recovery path is dead code.
* **LK203** — deadline propagation.  Serving/webapp code that runs
  query-shaped work must have a ``Deadline`` in scope (the LK104
  contract), *and* the deadline must actually reach the scatter-gather
  entry points (``.select()`` / ``.patients()`` / ``.cohort_sketch()``)
  at each call site, including through serving-local helper functions.
* **LK204** — fork safety.  OS resources captured before ``os.fork()``
  (locks, sockets, pools, RNGs, mmap-backed stores) must not be used in
  the forked child, and must not be shipped into
  ``ProcessPoolExecutor`` workers: they are either duplicated (same RNG
  stream, torn lock state) or dead (mmap, socket) on the other side.

All four are :class:`~tools.lintkit.framework.ProjectRule` subclasses
sharing one cached :class:`~tools.lintkit.callgraph.Project` per root.
Suppressions (``# lintkit: disable=LK20x``) work exactly as for file
rules and must carry a justification comment.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from tools.lintkit.callgraph import (
    FunctionInfo,
    Project,
    dotted_name,
    iter_calls,
)
from tools.lintkit.dataflow import (
    Event,
    fixpoint_summaries,
    node_events,
    replay_events,
    solve_backward_must,
)
from tools.lintkit.framework import ProjectRule, Violation, register

__all__ = [
    "DurabilityProtocolRule",
    "CrashpointCoverageRule",
    "DeadlinePropagationRule",
    "ForkSafetyRule",
    "get_project",
]


# -- shared project cache -----------------------------------------------------

_PROJECT_CACHE: dict[str, tuple[tuple, Project]] = {}


def _project_fingerprint(root: Path) -> tuple:
    entries = []
    for sub in ("src", "tools"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path.as_posix(), stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


def get_project(root: Path) -> Project:
    """The parsed project for ``root``, cached until any file changes."""
    root = Path(root).resolve()
    fingerprint = _project_fingerprint(root)
    cached = _PROJECT_CACHE.get(str(root))
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    project = Project(root)
    _PROJECT_CACHE[str(root)] = (fingerprint, project)
    return project


# -- shared classifiers -------------------------------------------------------

_NP_SAVERS = {"save", "savez", "savez_compressed"}
_COPY_TAILS = {"copyfile", "copy", "copy2"}


def _tail(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _open_write_mode(call: ast.Call) -> bool:
    mode = ""
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = str(call.args[1].value)
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            mode = str(keyword.value.value)
    return any(ch in mode for ch in "wax+")


def _is_raw_write(call: ast.Call) -> bool:
    """Does this call put bytes on disk directly?"""
    dotted = dotted_name(call.func)
    if not dotted:
        return False
    tail = _tail(dotted)
    if tail in _NP_SAVERS and dotted.startswith(("np.", "numpy.")):
        return True
    if dotted == "open":
        return _open_write_mode(call)
    if dotted.startswith("shutil.") and tail in _COPY_TAILS:
        return True
    return False


def _store_tier(rel: str) -> str | None:
    """"io" / "shard" for persistence-tier files, None otherwise."""
    if rel == "src/repro/io.py":
        return "io"
    if rel.startswith(("src/repro/shard/", "src/repro/sketch/")):
        return "shard"
    return None


def _checked_functions(project: Project, rel: str) -> list[FunctionInfo]:
    return sorted(
        (f for f in project.functions_in(rel) if not f.nested),
        key=lambda f: f.lineno,
    )


# -- LK201: durability protocol ----------------------------------------------

#: Fallback for *unresolved* installer calls only (fixture snippets and
#: dynamically-dispatched helpers).  Resolved calls are judged by the
#: durable-installer summary instead.
_KNOWN_INSTALLERS = {
    "atomic_replace", "_write_json",
    "write_segment", "write_replicated_segment",
    "write_store_manifest", "write_sketch_sidecar",
    "replicate_segment_dir", "install_dir",
    "append_jsonl", "rotate_jsonl",
}


def _installer_summaries(project: Project) -> set[str]:
    """Qualnames proven to implement the durable install protocol.

    Seed: every ``os.replace`` in the function is followed by
    ``fsync_dir`` on all normal paths.  Propagation: the function
    delegates to an already-proven installer.
    """

    def classify(call: ast.Call) -> str | None:
        dotted = dotted_name(call.func)
        if dotted == "os.replace":
            return "replace"
        if _tail(dotted) == "fsync_dir":
            return "fsyncdir"
        return None

    def events(stmt: ast.stmt | None) -> list[Event]:
        return node_events(stmt, classify)

    def transfer(event: Event, fact: tuple) -> tuple:
        if event[0] == "fsyncdir":
            return (True,)
        return fact

    def seed(func: FunctionInfo) -> bool:
        replaces = [
            c for c in iter_calls(func.node)
            if dotted_name(c.func) == "os.replace"
        ]
        if not replaces:
            return False
        after = solve_backward_must(
            func.cfg, events, transfer, exit_fact=(False,), top=(True,)
        )
        unprotected = [
            event
            for event, fact in replay_events(func.cfg, after, events, transfer)
            if event[0] == "replace" and not fact[0]
        ]
        return not unprotected

    def propagate(func: FunctionInfo, members: set[str]) -> bool:
        for call in iter_calls(func.node):
            candidates = project.resolve_call(call, func)
            if candidates and all(c.qualname in members for c in candidates):
                return True
        return False

    return fixpoint_summaries(project.functions.values(), seed, propagate)


def _nested_writes(func: ast.AST) -> list[ast.Call]:
    """Raw writes inside nested defs/lambdas (write callbacks)."""
    seen: dict[int, ast.Call] = {}
    for inner in ast.walk(func):
        if inner is func or not isinstance(
            inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        for call in ast.walk(inner):
            if isinstance(call, ast.Call) and _is_raw_write(call):
                seen[id(call)] = call
    return list(seen.values())


@register
class DurabilityProtocolRule(ProjectRule):
    id = "LK201"
    title = "store writes must complete the durable install protocol"

    def check_project(self, root: Path) -> Iterator[Violation]:
        project = get_project(root)
        installers = _installer_summaries(project)
        for rel in project.files():
            tier = _store_tier(rel)
            if tier is None:
                continue
            for func in _checked_functions(project, rel):
                if tier == "io" and not func.name.lstrip("_").startswith(
                    ("save_", "write_")
                ):
                    continue
                yield from self._check(project, func, tier, installers)

    def _is_install(
        self,
        project: Project,
        func: FunctionInfo,
        call: ast.Call,
        installers: set[str],
    ) -> bool:
        dotted = dotted_name(call.func)
        if not dotted:
            return False
        candidates = project.resolve_call(call, func)
        if candidates:
            return all(c.qualname in installers for c in candidates)
        return _tail(dotted) in _KNOWN_INSTALLERS

    def _check(
        self,
        project: Project,
        func: FunctionInfo,
        tier: str,
        installers: set[str],
    ) -> Iterator[Violation]:
        def classify(call: ast.Call) -> str | None:
            if _is_raw_write(call):
                return "write"
            dotted = dotted_name(call.func)
            if dotted == "os.replace":
                return "replace"
            if _tail(dotted) == "fsync_dir":
                return "fsyncdir"
            if self._is_install(project, func, call, installers):
                return "install"
            return None

        def events(stmt: ast.stmt | None) -> list[Event]:
            return node_events(stmt, classify)

        # Fact after a point: (protocol completes ahead on all paths,
        # fsync_dir lies ahead on all paths).
        def transfer(event: Event, fact: tuple) -> tuple:
            satisfied, dirsync = fact
            kind = event[0]
            if kind == "fsyncdir":
                return (satisfied, True)
            if kind == "replace":
                if tier == "io":
                    return (True, dirsync)
                return (satisfied or dirsync, dirsync)
            if kind == "install":
                return (True, dirsync)
            return fact

        cfg = func.cfg
        after = solve_backward_must(
            cfg, events, transfer, exit_fact=(False, False), top=(True, True)
        )
        flagged: set[int] = set()
        for event, fact in replay_events(cfg, after, events, transfer):
            if event[0] == "write" and not fact[0]:
                flagged.add(event[1].lineno)

        # Writes inside nested defs/lambdas run when the closure runs —
        # the ``atomic_replace(path, write)`` callback shape.  They are
        # sound iff the enclosing function hands them to an installer.
        nested = _nested_writes(func.node)
        if nested:
            has_install = any(
                self._is_install(project, func, call, installers)
                for call in ast.walk(func.node)
                if isinstance(call, ast.Call)
            )
            if not has_install:
                flagged.update(call.lineno for call in nested)

        rel = Path(func.rel)
        for line in sorted(flagged):
            if tier == "io":
                yield self.violation(
                    rel, line,
                    f"{func.name}() writes its target in place — a "
                    f"crash mid-write corrupts the existing file",
                    hint="write to a temporary and os.replace it into "
                         "place (see repro.shard.format.atomic_replace)",
                )
            else:
                yield self.violation(
                    rel, line,
                    f"{func.name}() writes under a shard root outside "
                    f"the atomic install path",
                    hint="stage into a temporary and install it via "
                         "atomic_replace / write_replicated_segment "
                         "(os.replace + fsync_dir at minimum)",
                )


# -- LK202: crashpoint coverage ----------------------------------------------


def _always_crashpoints(project: Project) -> set[str]:
    """Functions that hit ``crashpoint()`` on every normal path."""

    def make_events(members: set[str]):
        def classify_in(func: FunctionInfo):
            def classify(call: ast.Call) -> str | None:
                if _tail(dotted_name(call.func)) == "crashpoint":
                    return "crash"
                candidates = project.resolve_call(call, func)
                if candidates and all(
                    c.qualname in members for c in candidates
                ):
                    return "crash"
                return None

            return classify

        return classify_in

    def transfer(event: Event, fact: tuple) -> tuple:
        if event[0] == "crash":
            return (True,)
        return fact

    def covered(func: FunctionInfo, members: set[str]) -> bool:
        classify = make_events(members)(func)

        def events(stmt: ast.stmt | None) -> list[Event]:
            return node_events(stmt, classify)

        after = solve_backward_must(
            func.cfg, events, transfer, exit_fact=(False,), top=(True,)
        )
        return after[func.cfg.entry][0]

    def seed(func: FunctionInfo) -> bool:
        return covered(func, set())

    return fixpoint_summaries(project.functions.values(), seed, covered)


@register
class CrashpointCoverageRule(ProjectRule):
    id = "LK202"
    title = "durability boundaries must be enumerated by crashpoint()"

    def check_project(self, root: Path) -> Iterator[Violation]:
        project = get_project(root)
        always = _always_crashpoints(project)
        for rel in project.files():
            if _store_tier(rel) is None:
                continue
            for func in _checked_functions(project, rel):
                yield from self._check(project, func, always)

    def _check(
        self, project: Project, func: FunctionInfo, always: set[str]
    ) -> Iterator[Violation]:
        def classify(call: ast.Call) -> str | None:
            dotted = dotted_name(call.func)
            if dotted in ("os.replace", "os.fsync"):
                return f"boundary:{_tail(dotted)}"
            if _tail(dotted) == "crashpoint":
                return "crash"
            candidates = project.resolve_call(call, func)
            if candidates and all(c.qualname in always for c in candidates):
                return "crash"
            return None

        def events(stmt: ast.stmt | None) -> list[Event]:
            return node_events(stmt, classify)

        def transfer(event: Event, fact: tuple) -> tuple:
            if event[0] == "crash":
                return (True,)
            return fact

        after = solve_backward_must(
            func.cfg, events, transfer, exit_fact=(False,), top=(True,)
        )
        seen: set[tuple[int, str]] = set()
        for event, fact in replay_events(func.cfg, after, events, transfer):
            kind, call = event
            if not kind.startswith("boundary:") or fact[0]:
                continue
            boundary = f"os.{kind.split(':', 1)[1]}"
            if (call.lineno, boundary) in seen:
                continue
            seen.add((call.lineno, boundary))
            yield self.violation(
                Path(func.rel), call.lineno,
                f"{func.name}() crosses a durability boundary "
                f"({boundary}) that no crashpoint() enumerates",
                hint="call crashpoint('replace:<label>') (or "
                     "'fsync:<label>') after the boundary so the crash "
                     "matrix visits it (repro.resilience.faults)",
            )


# -- LK203: deadline propagation ----------------------------------------------

_QUERY_METHODS = {
    "select", "patients", "timeline", "overview",
    "personal_timeline", "align",
}
#: Scatter-gather entry points: the deadline must reach these *calls*.
_EXECUTOR_METHODS = {"select", "patients", "cohort_sketch"}


def _serving_scope(rel: str) -> bool:
    return rel == "src/repro/webapp.py" or rel.startswith("src/repro/serving/")


def _mentions_token(func: ast.AST, token: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and token in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and token in node.attr.lower():
            return True
        if isinstance(node, ast.arg) and token in node.arg.lower():
            return True
        if isinstance(node, ast.keyword) and node.arg and (
            token in node.arg.lower()
        ):
            return True
    return False


def _expr_mentions_deadline(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "deadline" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and (
            "deadline" in node.attr.lower()
        ):
            return True
    return False


def _direct_query_calls(func: ast.AST) -> list[ast.Call]:
    return [
        node for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _QUERY_METHODS
    ]


def _serving_summaries(project: Project) -> tuple[set[str], set[str]]:
    """(runs_queries, creates_deadline) over serving-scope functions."""
    in_scope = [
        f for f in project.functions.values() if _serving_scope(f.rel)
    ]
    scope_names = {f.qualname for f in in_scope}

    def runs_seed(func: FunctionInfo) -> bool:
        return bool(_direct_query_calls(func.node))

    def runs_propagate(func: FunctionInfo, members: set[str]) -> bool:
        for call in iter_calls(func.node):
            candidates = [
                c for c in project.resolve_call(call, func)
                if c.qualname in scope_names
            ]
            if candidates and all(c.qualname in members for c in candidates):
                return True
        return False

    runs = fixpoint_summaries(in_scope, runs_seed, runs_propagate)

    def creates_seed(func: FunctionInfo) -> bool:
        return any(
            _tail(dotted_name(call.func)) == "Deadline"
            for call in iter_calls(func.node)
        )

    # Propagation: delegating to a helper that constructs its own
    # Deadline counts — the caller's query work is already bounded.
    creates = fixpoint_summaries(in_scope, creates_seed, runs_propagate)
    return runs, creates


@register
class DeadlinePropagationRule(ProjectRule):
    id = "LK203"
    title = "serving deadlines must reach the query executor"

    def check_project(self, root: Path) -> Iterator[Violation]:
        project = get_project(root)
        runs, creates = _serving_summaries(project)
        for rel in project.files():
            if not _serving_scope(rel):
                continue
            for func in sorted(
                project.functions_in(rel), key=lambda f: f.lineno
            ):
                yield from self._check(project, func, runs, creates)

    def _helper_calls(
        self,
        project: Project,
        func: FunctionInfo,
        runs: set[str],
        creates: set[str],
    ) -> list[tuple[ast.Call, str]]:
        """Calls to serving-local helpers that run queries and do not
        construct their own Deadline."""
        out: list[tuple[ast.Call, str]] = []
        for call in iter_calls(func.node):
            dotted = dotted_name(call.func)
            if not dotted:
                continue
            if isinstance(call.func, ast.Attribute) and (
                call.func.attr in _QUERY_METHODS
            ):
                continue  # direct query call, handled separately
            candidates = [
                c for c in project.resolve_call(call, func)
                if _serving_scope(c.rel)
            ]
            if not candidates:
                continue
            if all(c.qualname in runs for c in candidates) and not any(
                c.qualname in creates for c in candidates
            ):
                out.append((call, _tail(dotted)))
        return out

    def _call_carries_deadline(
        self, call: ast.Call, tainted: set[str]
    ) -> bool:
        for keyword in call.keywords:
            if keyword.arg and "deadline" in keyword.arg.lower():
                return True
        for expr in list(call.args) + [k.value for k in call.keywords]:
            if _expr_mentions_deadline(expr):
                return True
            for node in ast.walk(expr):
                if isinstance(node, ast.Name) and node.id in tainted:
                    return True
        return False

    def _tainted_names(self, func: ast.AST) -> set[str]:
        tainted: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.arg) and "deadline" in node.arg.lower():
                tainted.add(node.arg)
            if isinstance(node, ast.Assign) and (
                _expr_mentions_deadline(node.value)
                or any(
                    _tail(dotted_name(c.func)) == "Deadline"
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Call)
                )
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _check(
        self,
        project: Project,
        func: FunctionInfo,
        runs: set[str],
        creates: set[str],
    ) -> Iterator[Violation]:
        mentions = _mentions_token(func.node, "deadline")
        direct = _direct_query_calls(func.node)

        if not mentions:
            # Tier 1 — the LK104 contract: query-shaped work with no
            # Deadline anywhere in scope.
            for call in direct:
                yield self.violation(
                    Path(func.rel), call.lineno,
                    f"{func.name}() runs unbounded work "
                    f"(.{call.func.attr}()) with no Deadline in scope",
                    hint="accept a deadline parameter and thread it into "
                         "query execution (repro.resilience.retry.Deadline)",
                )
            if func.nested:
                return
            for call, name in self._helper_calls(project, func, runs, creates):
                yield self.violation(
                    Path(func.rel), call.lineno,
                    f"{func.name}() calls {name}() which runs query "
                    f"work, with no Deadline in scope",
                    hint="create or accept a Deadline here and pass it "
                         "through to the helper",
                )
            return

        if func.nested:
            return
        # Tier 2 — a Deadline exists; prove it reaches the executor.
        tainted = self._tainted_names(func.node)
        for call in iter_calls(func.node):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _EXECUTOR_METHODS
            ):
                continue
            if self._call_carries_deadline(call, tainted):
                continue
            yield self.violation(
                Path(func.rel), call.lineno,
                f"{func.name}() calls .{call.func.attr}() without "
                f"threading its Deadline into the call",
                hint="pass deadline= through to the executor so "
                     "scatter-gather stops at the budget",
            )
        for call, name in self._helper_calls(project, func, runs, creates):
            if self._call_carries_deadline(call, tainted):
                continue
            yield self.violation(
                Path(func.rel), call.lineno,
                f"{func.name}() has a Deadline but does not pass it to "
                f"query-running helper {name}()",
                hint="thread the deadline through the helper call so "
                     "downstream query work stays bounded",
            )


# -- LK204: fork safety --------------------------------------------------------

#: Constructors whose result must not cross an os.fork() boundary.
_CAPTURE_CTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Condition": "lock",
    "threading.Event": "lock",
    "threading.Barrier": "lock",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "socket.create_server": "socket",
    "concurrent.futures.ProcessPoolExecutor": "process pool",
    "concurrent.futures.process.ProcessPoolExecutor": "process pool",
    "multiprocessing.Pool": "process pool",
    "concurrent.futures.ThreadPoolExecutor": "thread pool",
    "random.Random": "RNG",
    "numpy.random.default_rng": "RNG",
    "mmap.mmap": "mmap",
}

#: Project constructors/openers that hand back mmap-backed state.
_STORE_CTOR_TAILS = {
    "load_store", "open_segment", "open_segment_any",
    "from_shards", "Workbench", "ShardedEventStore",
}


def _resolve_external(dotted: str, imports: dict[str, str]) -> str:
    parts = dotted.split(".")
    target = imports.get(parts[0])
    if target is None:
        return dotted
    return ".".join([target] + parts[1:])


def _capture_kind(call: ast.Call, imports: dict[str, str]) -> str | None:
    dotted = dotted_name(call.func)
    if not dotted:
        return None
    full = _resolve_external(dotted, imports)
    kind = _CAPTURE_CTORS.get(full)
    if kind is not None:
        return kind
    if _tail(dotted) in _STORE_CTOR_TAILS:
        return "mmap-backed store"
    return None


def _assignment_taints(
    node: ast.AST, imports: dict[str, str], self_only: bool
) -> dict[str, str]:
    """Symbol -> kind for ``x = ctor()`` / ``self.x = ctor()`` assigns."""
    taints: dict[str, str] = {}
    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        if not isinstance(value, ast.Call):
            continue
        kind = _capture_kind(value, imports)
        if kind is None:
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                taints[f"self.{target.attr}"] = kind
            elif isinstance(target, ast.Name) and not self_only:
                taints[target.id] = kind
    return taints


def _child_branches(func: ast.AST) -> list[tuple[list[ast.stmt], set[int]]]:
    """(child-branch body, node ids of the branch) per os.fork() site."""
    fork_pids: set[str] = set()
    for stmt in ast.walk(func):
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and dotted_name(stmt.value.func) == "os.fork"
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    fork_pids.add(target.id)
    out: list[tuple[list[ast.stmt], set[int]]] = []
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.If):
            continue
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            continue
        left, right = test.left, test.comparators[0]
        operands = (left, right)
        is_fork_pid = any(
            isinstance(op, ast.Name) and op.id in fork_pids for op in operands
        ) or any(
            isinstance(op, ast.Call) and dotted_name(op.func) == "os.fork"
            for op in operands
        )
        is_zero = any(
            isinstance(op, ast.Constant) and op.value == 0 for op in operands
        )
        if is_fork_pid and is_zero:
            ids = {id(n) for s in stmt.body for n in ast.walk(s)}
            out.append((stmt.body, ids))
    return out


@register
class ForkSafetyRule(ProjectRule):
    id = "LK204"
    title = "pre-fork resources must not be used in forked workers"

    def check_project(self, root: Path) -> Iterator[Violation]:
        project = get_project(root)
        for rel in project.files():
            if not rel.startswith("src/repro/"):
                continue
            tree = project.trees[rel]
            imports = project.imports.get(rel, {})
            module_taints = self._module_taints(tree, imports)
            class_taints = self._class_taints(tree, imports)
            has_process_pool = any(
                _capture_kind(call, imports) == "process pool"
                for call in ast.walk(tree)
                if isinstance(call, ast.Call)
            )
            for func in sorted(
                project.functions_in(rel), key=lambda f: f.lineno
            ):
                if func.nested:
                    continue
                yield from self._check_fork(
                    func, imports, module_taints, class_taints
                )
                if has_process_pool:
                    yield from self._check_pool_submit(
                        func, imports, module_taints, class_taints
                    )

    @staticmethod
    def _module_taints(
        tree: ast.Module, imports: dict[str, str]
    ) -> dict[str, str]:
        # Only assignments at module level — walking into function
        # bodies would taint their locals with module scope.
        taints: dict[str, str] = {}
        for stmt in tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            taints.update(_assignment_taints(stmt, imports, self_only=False))
        return taints

    @staticmethod
    def _class_taints(
        tree: ast.Module, imports: dict[str, str]
    ) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out[node.name] = _assignment_taints(
                    node, imports, self_only=True
                )
        return out

    def _check_fork(
        self,
        func: FunctionInfo,
        imports: dict[str, str],
        module_taints: dict[str, str],
        class_taints: dict[str, dict[str, str]],
    ) -> Iterator[Violation]:
        branches = _child_branches(func.node)
        if not branches:
            return
        own_class = class_taints.get(func.cls or "", {})
        for body, body_ids in branches:
            local_taints: dict[str, str] = {}
            for stmt in ast.walk(func.node):
                if isinstance(stmt, ast.Assign) and id(stmt) not in body_ids:
                    local_taints.update(
                        _assignment_taints(stmt, imports, self_only=False)
                    )
            taints = {**module_taints, **local_taints, **own_class}
            seen: set[tuple[str, int]] = set()
            for stmt in body:
                for sym, kind, line in self._tainted_uses(stmt, taints):
                    if (sym, line) in seen:
                        continue
                    seen.add((sym, line))
                    yield self.violation(
                        Path(func.rel), line,
                        f"{func.name}() uses {sym} ({kind}) captured "
                        f"before fork inside the forked child",
                        hint="re-create per-process state after fork "
                             "(build it in the worker, e.g. via the "
                             "workbench factory) or close the inherited "
                             "handle first",
                    )

    @staticmethod
    def _tainted_uses(
        stmt: ast.stmt, taints: dict[str, str]
    ) -> Iterator[tuple[str, str, int]]:
        closing: set[int] = set()
        for node in ast.walk(stmt):
            # X.close() in the child is fork hygiene, not a use.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "shutdown", "detach")
            ):
                closing.update(id(n) for n in ast.walk(node.func.value))
        for node in ast.walk(stmt):
            if id(node) in closing:
                continue
            if isinstance(node, ast.Name) and node.id in taints:
                yield node.id, taints[node.id], node.lineno
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and f"self.{node.attr}" in taints
            ):
                sym = f"self.{node.attr}"
                yield sym, taints[sym], node.lineno

    def _check_pool_submit(
        self,
        func: FunctionInfo,
        imports: dict[str, str],
        module_taints: dict[str, str],
        class_taints: dict[str, dict[str, str]],
    ) -> Iterator[Violation]:
        own_class = class_taints.get(func.cls or "", {})
        local_taints = _assignment_taints(func.node, imports, self_only=False)
        taints = {**module_taints, **local_taints, **own_class}

        def receiver_is_process_pool(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name):
                if taints.get(expr.id) == "process pool":
                    return True
                return "pool" in expr.id.lower()
            if isinstance(expr, ast.Attribute):
                if (
                    isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and taints.get(f"self.{expr.attr}") == "process pool"
                ):
                    return True
                return "pool" in expr.attr.lower()
            return False

        for call in iter_calls(func.node):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ("submit", "map")
            ):
                continue
            if not receiver_is_process_pool(call.func.value):
                continue
            payload = list(call.args[1:]) + [k.value for k in call.keywords]
            seen: set[tuple[str, int]] = set()
            for expr in payload:
                # A field read off a tainted object (``store.path``)
                # ships a plain value, not the resource — only the
                # object itself crossing the pool boundary is flagged.
                field_reads = {
                    id(node.value)
                    for node in ast.walk(expr)
                    if isinstance(node, ast.Attribute)
                }
                for node in ast.walk(expr):
                    if id(node) in field_reads:
                        continue
                    sym = kind = None
                    if isinstance(node, ast.Name) and node.id in taints:
                        sym, kind = node.id, taints[node.id]
                    elif (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and f"self.{node.attr}" in taints
                    ):
                        sym = f"self.{node.attr}"
                        kind = taints[sym]
                    if sym is None or (sym, node.lineno) in seen:
                        continue
                    seen.add((sym, node.lineno))
                    yield self.violation(
                        Path(func.rel), node.lineno,
                        f"{func.name}() passes {sym} ({kind}) into a "
                        f"process-pool worker",
                        hint="pass paths or plain data and rebuild the "
                             "resource inside the worker process",
                    )
