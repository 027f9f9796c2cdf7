"""A project-wide call graph over per-function summaries.

Each function/method gets a :class:`FunctionSummary` listing its call
sites. Nested defs and lambdas
are folded into their enclosing function — a call made by a closure
the function creates is treated as a call the function makes, which is
exactly the conservative view the phase-protocol rule needs (the
``flush()`` closure inside a drain helper *is* part of the drain path).

Resolution is name-based and deliberately conservative:

* ``self.helper(...)`` resolves within the receiver class and its
  ancestors (hierarchy from the :class:`~repro.lint.engine.ProjectIndex`);
* bare ``helper(...)`` resolves to a module-level function of the same
  module;
* ``other.helper(...)`` resolves to *every* known method of that name —
  over-approximate, never unsound for reachability questions.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # engine does not import flow; no cycle at runtime
    from repro.lint.engine import ProjectIndex

#: call-site kinds.
KIND_SELF = "self"
KIND_NAME = "name"
KIND_ATTR = "attr"


@dataclasses.dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str
    kind: str
    line: int
    col: int
    receiver: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class FunctionSummary:
    """One function or method, with every call site in its body
    (nested defs/lambdas folded in)."""

    module: str
    path: str
    qualname: str
    name: str
    class_name: str | None
    line: int
    calls: tuple[CallSite, ...]

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


def _dotted_receiver(node: ast.expr) -> str:
    """Best-effort dotted text of a call receiver (for messages)."""
    parts: list[str] = []
    cursor: ast.expr = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
    elif isinstance(cursor, ast.Call):
        parts.append("()")
    parts.reverse()
    return ".".join(parts)


def _call_sites(body: Iterable[ast.stmt]) -> tuple[CallSite, ...]:
    """All call sites in a function body, nested defs included."""
    sites: list[CallSite] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                sites.append(
                    CallSite(func.id, KIND_NAME, node.lineno, node.col_offset)
                )
            elif isinstance(func, ast.Attribute):
                receiver = _dotted_receiver(func.value)
                kind = KIND_SELF if receiver == "self" else KIND_ATTR
                sites.append(
                    CallSite(
                        func.attr,
                        kind,
                        node.lineno,
                        node.col_offset,
                        receiver=receiver,
                    )
                )
    return tuple(sites)


def function_summaries(
    tree: ast.Module, module: str, path: str
) -> tuple[FunctionSummary, ...]:
    """Summaries for every module-level function and every method of
    every class in ``tree``. Nested defs are folded into the summary of
    the enclosing function, not listed separately."""
    summaries: list[FunctionSummary] = []

    def add(
        node: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> None:
        qualname = (
            node.name if class_name is None else f"{class_name}.{node.name}"
        )
        summaries.append(
            FunctionSummary(
                module=module,
                path=path,
                qualname=qualname,
                name=node.name,
                class_name=class_name,
                line=node.lineno,
                calls=_call_sites(node.body),
            )
        )

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(member, stmt.name)
    return tuple(summaries)


class CallGraph:
    """Name-based resolution and reachability over function summaries."""

    def __init__(
        self,
        summaries: Iterable[FunctionSummary],
        index: "ProjectIndex | None" = None,
    ) -> None:
        self._index = index
        self._by_key: dict[tuple[str, str], FunctionSummary] = {}
        self._methods_by_name: dict[str, list[FunctionSummary]] = {}
        self._module_functions: dict[tuple[str, str], FunctionSummary] = {}
        for summary in summaries:
            self._by_key[summary.key] = summary
            if summary.class_name is None:
                self._module_functions[(summary.module, summary.name)] = summary
            else:
                self._methods_by_name.setdefault(summary.name, []).append(
                    summary
                )

    def __iter__(self) -> Iterator[FunctionSummary]:
        for key in sorted(self._by_key):
            yield self._by_key[key]

    def find(self, module: str, qualname: str) -> FunctionSummary | None:
        return self._by_key.get((module, qualname))

    def methods_named(self, name: str) -> tuple[FunctionSummary, ...]:
        return tuple(
            sorted(
                self._methods_by_name.get(name, ()),
                key=lambda summary: summary.key,
            )
        )

    def _class_family(self, class_name: str) -> frozenset[str]:
        """The class plus its known ancestors (names)."""
        if self._index is None:
            return frozenset({class_name})
        family = {class_name}
        info = self._index.classes.get(class_name)
        if info is not None:
            family.update(
                ancestor.name for ancestor in self._index.ancestors(class_name)
            )
        return frozenset(family)

    def resolve(
        self, caller: FunctionSummary, site: CallSite
    ) -> tuple[FunctionSummary, ...]:
        """Every summary a call site may dispatch to (over-approximate)."""
        if site.kind == KIND_NAME:
            target = self._module_functions.get((caller.module, site.callee))
            return () if target is None else (target,)
        candidates = self._methods_by_name.get(site.callee, [])
        if site.kind == KIND_SELF and caller.class_name is not None:
            family = self._class_family(caller.class_name)
            scoped = [
                summary
                for summary in candidates
                if summary.class_name in family
            ]
            # a self-call can also land on an override in a subclass the
            # index knows about; include descendants' definitions.
            if self._index is not None:
                for summary in candidates:
                    if summary in scoped or summary.class_name is None:
                        continue
                    if self._index.is_descendant_of(
                        summary.class_name, caller.class_name
                    ):
                        scoped.append(summary)
            candidates = scoped
        return tuple(sorted(candidates, key=lambda summary: summary.key))

    def reachable_from(
        self, roots: Iterable[FunctionSummary]
    ) -> dict[tuple[str, str], tuple[str, str]]:
        """BFS closure: every reachable function key mapped to the root
        key it was first reached from (roots map to themselves)."""
        origin: dict[tuple[str, str], tuple[str, str]] = {}
        queue: deque[FunctionSummary] = deque()
        for root in roots:
            if root.key not in origin:
                origin[root.key] = root.key
                queue.append(root)
        while queue:
            current = queue.popleft()
            for site in current.calls:
                for target in self.resolve(current, site):
                    if target.key in origin:
                        continue
                    origin[target.key] = origin[current.key]
                    queue.append(target)
        return origin
