"""Project-wide function index and call graph for lintkit.

:class:`Project` parses every Python file under the scanned roots once,
records each function/method as a :class:`FunctionInfo`, and resolves
``Call`` nodes back to project functions using a best-effort, import-aware
scheme:

* bare names resolve through the caller module's import aliases, then to
  same-module top-level definitions, then to a unique project-wide match;
* ``self.m`` / ``cls.m`` resolve to methods of the caller's own class
  first, then to all methods of that name anywhere (ambiguous results are
  returned as multiple candidates);
* ``alias.f`` resolves through ``import pkg.mod as alias`` bindings.

Resolution returns *candidates*.  Rules that use summaries to excuse code
(e.g. "this call is a durable installer") must require **all** candidates
to satisfy the property — ambiguity never weakens a proof.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import CFG, build_cfg

__all__ = ["FunctionInfo", "Project", "dotted_name"]


def dotted_name(node: ast.expr) -> str:
    """Best-effort dotted name for a call target (``""`` if unnamed)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # "<rel>::<Class.>name" — unique per project
    rel: str  # posix path relative to the project root
    module: str  # dotted module guess ("repro.io", "tools.lintkit.cfg")
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    nested: bool  # defined inside another function
    _cfg: CFG | None = field(default=None, repr=False)

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    @property
    def lineno(self) -> int:
        return self.node.lineno


def _module_of(rel: str) -> str:
    parts = Path(rel).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _Collector(ast.NodeVisitor):
    def __init__(self, project: Project, rel: str, module: str) -> None:
        self.project = project
        self.rel = rel
        self.module = module
        self._cls: list[str] = []
        self._func_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._cls.append(node.name)
        self.generic_visit(node)
        self._cls.pop()

    def _func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self._cls[-1] if self._cls else None
        label = f"{cls}.{node.name}" if cls else node.name
        info = FunctionInfo(
            qualname=f"{self.rel}::{label}",
            rel=self.rel,
            module=self.module,
            name=node.name,
            cls=cls,
            node=node,
            nested=self._func_depth > 0,
        )
        self.project.functions[info.qualname] = info
        self.project.by_name.setdefault(node.name, []).append(info)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_FunctionDef = _func
    visit_AsyncFunctionDef = _func


def _import_map(
    tree: ast.Module, module: str, is_init: bool
) -> dict[str, str]:
    """Local alias -> dotted target for one module's import statements."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix_parts = module.split(".")
                # level 1 = current package, 2 = parent, ...  For a
                # package __init__, `module` already names the package.
                keep = len(prefix_parts) - node.level + (1 if is_init else 0)
                prefix = ".".join(prefix_parts[:keep]) if keep > 0 else ""
                base = f"{prefix}.{base}".strip(".") if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = f"{base}.{alias.name}".strip(".")
    return out


class Project:
    """Parsed view of every Python file under the scan roots."""

    def __init__(self, root: Path, subdirs: tuple[str, ...] = ("src", "tools")):
        self.root = Path(root)
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.trees: dict[str, ast.Module] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self._by_module: dict[tuple[str, str], list[FunctionInfo]] = {}
        for sub in subdirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                self._load(path)
        for info in self.functions.values():
            if info.cls is None and not info.nested:
                key = (info.module, info.name)
                self._by_module.setdefault(key, []).append(info)

    def _load(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return
        module = _module_of(rel)
        self.trees[rel] = tree
        self.imports[rel] = _import_map(
            tree, module, is_init=path.name == "__init__.py"
        )
        _Collector(self, rel, module).visit(tree)

    # -- queries ----------------------------------------------------------
    def files(self) -> list[str]:
        return sorted(self.trees)

    def functions_in(self, rel: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.rel == rel]

    def _module_func(self, module: str, name: str) -> list[FunctionInfo]:
        return self._by_module.get((module, name), [])

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        """Candidate project functions this call may target.

        Empty means *unresolved* (external library, dynamic dispatch, or
        an unknown name) — never "provably no callee".
        """
        dotted = dotted_name(call.func)
        if not dotted:
            return []
        parts = dotted.split(".")
        imports = self.imports.get(caller.rel, {})

        if len(parts) == 1:
            name = parts[0]
            target = imports.get(name)
            if target and "." in target:
                mod, attr = target.rsplit(".", 1)
                found = self._module_func(mod, attr)
                if found:
                    return found
            same_module = [
                f
                for f in self.functions_in(caller.rel)
                if f.name == name and f.cls is None
            ]
            if same_module:
                return same_module
            everywhere = self.by_name.get(name, [])
            return everywhere if len(everywhere) == 1 else []

        head, tail = parts[0], parts[-1]
        if head in ("self", "cls") and len(parts) == 2 and caller.cls:
            own = [
                f
                for f in self.by_name.get(tail, [])
                if f.cls == caller.cls and f.rel == caller.rel
            ]
            if own:
                return own
            return [f for f in self.by_name.get(tail, []) if f.cls is not None]
        if head in ("self", "cls"):
            # self.attr.method(...) — dispatch through an attribute; all
            # same-named methods anywhere are candidates.
            return [f for f in self.by_name.get(tail, []) if f.cls is not None]
        target = imports.get(head)
        if target and len(parts) == 2:
            # ``import pkg.mod as m`` and ``from pkg import mod`` both map
            # the alias to ``pkg.mod``.  A method called on any other
            # receiver (a local object) stays unresolved: its bare name
            # says nothing about its class.
            return self._module_func(target, tail)
        return []

    def callers_of(self, qualname: str) -> list[tuple[FunctionInfo, ast.Call]]:
        """All (caller, call) pairs whose candidates include ``qualname``."""
        out: list[tuple[FunctionInfo, ast.Call]] = []
        for caller in self.functions.values():
            for call in iter_calls(caller.node):
                for cand in self.resolve_call(call, caller):
                    if cand.qualname == qualname:
                        out.append((caller, call))
                        break
        return out


def iter_calls(node: ast.AST) -> list[ast.Call]:
    """Calls lexically inside ``node``, excluding nested function bodies.

    Post-order: inner calls precede the call that consumes their result,
    matching evaluation order for ``f(g(x))`` chains.
    """
    out: list[ast.Call] = []

    def visit(n: ast.AST) -> None:
        for child in ast.iter_child_nodes(n):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            visit(child)
            if isinstance(child, ast.Call):
                out.append(child)

    visit(node)
    return out
