"""The repository's lint rules.

Error-taxonomy rules (the robustness contract; run just these with
``python -m tools.lintkit --select LK001,LK002,LK003``):

* **LK001** — no bare ``except:``; a handler must name what it catches.
* **LK002** — ``except Exception``/``BaseException`` must re-raise,
  otherwise failures from an unrelated domain are silently swallowed.
* **LK003** — every exception class defined in ``repro.errors`` derives
  from ``ReproError`` (one catchable base at application boundaries).

Reproducibility / durability rules:

* **LK101** — no unseeded RNG construction in ``src/``: the whole repo
  is deterministic by contract, so ``default_rng()`` / ``Random()``
  without a seed (or any use of numpy's global RNG) breaks replays.
* **LK103** — ``np.load`` in shard code must pass ``mmap_mode``
  explicitly: mapped (``"r"``) and eager (``None``) loads have very
  different failure and memory profiles, so the choice must be visible
  at the call site.

The old syntactic LK102 (atomic store writes), LK104 (handler
deadlines) and LK106 (shard-root install path) checks are subsumed by
the interprocedural LK201/LK203 rules in
:mod:`tools.lintkit.rules_dataflow`, which prove the same contracts
path-sensitively and through helper indirection.

Serving rules:

* **LK105** — viz/serving code (``repro/webapp.py``,
  ``repro/serving/``, ``repro/viz/``) that materializes merged rows
  (``.materialize_store()``, ``.to_flat()``) must have a row-threshold
  guard in scope: cohort views are served from sketch folds by
  contract, so any row materialization on these paths must be an
  explicit, bounded drill-down — never an unconditional full scan.

Narrow builtin catches (``except ValueError:`` around one conversion)
are legitimate control flow and pass; the rules target the broad
handlers and silent-corruption paths that hide real faults.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator

from tools.lintkit.framework import (
    ProjectRule,
    Rule,
    Violation,
    register,
)

__all__ = [
    "BareExceptRule",
    "BroadExceptRule",
    "TaxonomyRootRule",
    "UnseededRngRule",
    "ImplicitMmapRule",
    "UnguardedMaterializationRule",
]

_BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    """The dotted names a handler catches (empty for a bare except)."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
        else:
            names.append(ast.dump(item))
    return names


def _dotted(node: ast.AST) -> str:
    """``np.random.default_rng`` -> that string; '' when not a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class BareExceptRule(Rule):
    id = "LK001"
    title = "no bare except clauses"

    def check(self, tree: ast.AST, rel: Path,
              text: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    rel, node.lineno,
                    "bare 'except:' — name what you catch",
                    hint="catch the narrowest exception the block can "
                         "actually raise",
                )


@register
class BroadExceptRule(Rule):
    id = "LK002"
    title = "broad except must re-raise"

    def check(self, tree: ast.AST, rel: Path,
              text: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _caught_names(node)
            if any(n in _BROAD for n in names) and not any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            ):
                yield self.violation(
                    rel, node.lineno,
                    f"'except {'/'.join(names)}' without a re-raise "
                    f"silently swallows unrelated failures",
                    hint="catch a ReproError subclass, or re-raise",
                )


@register
class TaxonomyRootRule(ProjectRule):
    id = "LK003"
    title = "repro.errors classes derive from ReproError"

    def check_project(self, root: Path) -> Iterable[Violation]:
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import repro.errors as errors_module

        rel = Path("src/repro/errors.py")
        for name in sorted(dir(errors_module)):
            obj = getattr(errors_module, name)
            if not isinstance(obj, type) or not issubclass(
                obj, BaseException
            ):
                continue
            if obj.__module__ != "repro.errors":
                continue
            if obj is not errors_module.ReproError and not issubclass(
                obj, errors_module.ReproError
            ):
                yield self.violation(
                    rel, 1,
                    f"repro.errors.{name} does not derive from ReproError",
                    hint="derive every domain exception from ReproError "
                         "so boundaries can catch one base class",
                )


@register
class UnseededRngRule(Rule):
    id = "LK101"
    title = "no unseeded RNG in src/"

    #: numpy module-level functions that mutate/read the *global* RNG —
    #: unseedable per call site, so any use breaks determinism.
    _GLOBAL_STATE = {
        "seed", "rand", "randn", "randint", "random", "choice",
        "shuffle", "permutation", "normal", "uniform",
    }

    def applies_to(self, rel: Path) -> bool:
        return rel.parts[:1] == ("src",)

    def check(self, tree: ast.AST, rel: Path,
              text: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            tail = dotted.rsplit(".", 1)[-1]
            if tail == "default_rng" or dotted.endswith("random.Random"):
                if not node.args and not node.keywords:
                    yield self.violation(
                        rel, node.lineno,
                        f"{dotted}() constructed without a seed",
                        hint="pass an explicit seed (see "
                             "repro.config.rng / derive_seeds)",
                    )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and tail in self._GLOBAL_STATE
            ):
                yield self.violation(
                    rel, node.lineno,
                    f"{dotted}() uses numpy's global RNG state",
                    hint="use a Generator from np.random.default_rng(seed)",
                )


@register
class ImplicitMmapRule(Rule):
    id = "LK103"
    title = "shard np.load must pass mmap_mode explicitly"

    def applies_to(self, rel: Path) -> bool:
        return rel.as_posix().startswith("src/repro/shard/")

    def check(self, tree: ast.AST, rel: Path,
              text: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted not in ("np.load", "numpy.load"):
                continue
            if not any(k.arg == "mmap_mode" for k in node.keywords):
                yield self.violation(
                    rel, node.lineno,
                    "np.load without an explicit mmap_mode",
                    hint="pass mmap_mode='r' for a mapped view or "
                         "mmap_mode=None to document an eager load",
                )


@register
class UnguardedMaterializationRule(Rule):
    id = "LK105"
    title = "viz/serving row materialization needs a threshold guard"

    #: Entry points that flatten a sharded store into per-row arrays —
    #: O(total rows) memory and time, the exact cost the sketch
    #: subsystem exists to avoid on view-serving paths.
    _MATERIALIZE_METHODS = {"materialize_store", "to_flat"}

    #: A function that mentions one of these is making the drill-down
    #: decision explicit (e.g. comparing against
    #: ``config.drilldown_rows`` before flattening).
    _GUARD_TOKENS = ("threshold", "drilldown", "max_rows", "row_limit")

    def applies_to(self, rel: Path) -> bool:
        posix = rel.as_posix()
        return posix == "src/repro/webapp.py" or posix.startswith(
            ("src/repro/serving/", "src/repro/viz/")
        )

    @classmethod
    def _mentions_guard(cls, func: ast.AST) -> bool:
        def _hit(name: str) -> bool:
            lowered = name.lower()
            return any(token in lowered for token in cls._GUARD_TOKENS)

        for node in ast.walk(func):
            if isinstance(node, ast.Name) and _hit(node.id):
                return True
            if isinstance(node, ast.Attribute) and _hit(node.attr):
                return True
            if isinstance(node, ast.arg) and _hit(node.arg):
                return True
            if isinstance(node, ast.keyword) and node.arg and _hit(node.arg):
                return True
        return False

    def check(self, tree: ast.AST, rel: Path,
              text: str) -> Iterator[Violation]:
        for func in ast.walk(tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            calls = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MATERIALIZE_METHODS
            ]
            if not calls or self._mentions_guard(func):
                continue
            for call in calls:
                yield self.violation(
                    rel, call.lineno,
                    f"{func.name}() materializes rows "
                    f"(.{call.func.attr}()) with no row-threshold guard",
                    hint="gate the drill-down on a row budget (e.g. "
                         "config.drilldown_rows) or serve the view from "
                         "a sketch fold (repro.sketch)",
                )
