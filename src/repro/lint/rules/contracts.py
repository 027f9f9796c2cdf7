"""RPL001 — the scheme contract (PR 1's phase-split monitor API).

Every CTUP monitor subclass must implement the phase API
(``_build_initial_state`` / ``_apply`` / ``_refresh`` / ``top_k`` /
``sk``) and must leave the lifecycle methods — where *all* timing and
stream counters live, exactly once — to the base class. Anything
registered in ``repro.api.SCHEMES`` must be such a monitor, and a
``partial_top_k`` override must keep the ``(self, m)`` shape the shard
merger calls.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.registry import Violation, rule

#: lifecycle methods owned by ``CTUPMonitor`` (timing + counters).
OWNED_METHODS = frozenset(
    {"initialize", "apply_update", "refresh", "process"}
)
#: the phase-split monitor API every scheme must provide.
PHASE_API = (
    "_build_initial_state",
    "_apply",
    "_refresh",
    "top_k",
    "sk",
)
#: the module that owns the base class (allowed to define everything).
BASE_MODULE = "repro.core.monitor"


@rule(
    "RPL001",
    "scheme-contract",
    "monitor subclasses define the phase API and never override the "
    "base class's timing/counter ownership",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(source, project, node)
    yield from _check_registry(source, project)


def _check_class(
    source: SourceFile, project: ProjectIndex, node: ast.ClassDef
) -> Iterator[Violation]:
    name = node.name
    if name == "CTUPMonitor" or not project.is_descendant_of(
        name, "CTUPMonitor"
    ):
        return
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.setdefault(item.name, item)
    if source.module != BASE_MODULE:
        for owned in sorted(OWNED_METHODS & set(methods)):
            yield Violation(
                code="RPL001",
                message=(
                    f"{name}.{owned} overrides a lifecycle method owned by "
                    "CTUPMonitor — timing and stream counters live in the "
                    "base class exactly once; implement the scheme through "
                    "the phase API instead"
                ),
                path=source.path,
                line=methods[owned].lineno,
                col=methods[owned].col_offset,
            )
    direct = "CTUPMonitor" in _base_names(node)
    if direct:
        provided = set(methods)
        for ancestor in project.ancestors(name):
            if ancestor.name != "CTUPMonitor":
                provided |= set(ancestor.methods)
        for required in PHASE_API:
            if required not in provided:
                yield Violation(
                    code="RPL001",
                    message=(
                        f"{name} subclasses CTUPMonitor but does not define "
                        f"{required}() — the phase API is the scheme "
                        "contract (maintain/access split, PR 1)"
                    ),
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
    partial = methods.get("partial_top_k")
    if partial is not None:
        positional = len(partial.args.posonlyargs) + len(partial.args.args)
        if positional != 2 or partial.args.vararg is not None:
            yield Violation(
                code="RPL001",
                message=(
                    f"{name}.partial_top_k must keep the (self, m) "
                    "signature — the shard merger calls it positionally"
                ),
                path=source.path,
                line=partial.lineno,
                col=partial.col_offset,
            )


def _check_registry(
    source: SourceFile, project: ProjectIndex
) -> Iterator[Violation]:
    for cls_name, (path, line) in sorted(project.scheme_classes.items()):
        if path != source.path:
            continue
        if not project.is_descendant_of(cls_name, "CTUPMonitor"):
            yield Violation(
                code="RPL001",
                message=(
                    f"SCHEMES registers {cls_name}, which is not a "
                    "CTUPMonitor subclass — every registered scheme must "
                    "speak the monitor contract"
                ),
                path=source.path,
                line=line,
            )


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names
