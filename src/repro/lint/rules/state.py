"""RPL008 — snapshot completeness (the universal state layer).

A class that declares ``STATE_FIELDS`` (directly or via a base) is part
of the :mod:`repro.state` snapshot protocol: ``export_state()`` captures
exactly the declared fields, and ``restore_state()`` rebuilds the
transient ones. Any *other* attribute such a class mutates after
``__init__`` is state the checkpoint silently drops — the resumed run
diverges from the uninterrupted one and the bit-identity guarantee is
gone. The fix is always a declaration: add the field to ``STATE_FIELDS``
(and export/restore it) if it must survive a crash, or to
``TRANSIENT_FIELDS`` if restore derives it from the snapshot.

The check is syntactic: every assignment target rooted at ``self.<attr>``
inside a non-``__init__`` method must name an attribute in the MRO union
of ``STATE_FIELDS`` and ``TRANSIENT_FIELDS`` (the same union
``repro.core.monitor.collect_declared_fields`` computes at runtime).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.registry import Violation, rule


@rule(
    "RPL008",
    "snapshot-completeness",
    "every attribute a checkpointed class mutates outside __init__ is "
    "declared in STATE_FIELDS or TRANSIENT_FIELDS, so snapshots capture "
    "it and resumed runs stay bit-identical",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not project.declares_state_fields(node.name):
            continue
        allowed = project.snapshot_field_union(node.name)
        yield from _check_class(source, node, allowed)


def _check_class(
    source: SourceFile, node: ast.ClassDef, allowed: frozenset[str]
) -> Iterator[Violation]:
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name == "__init__":
            continue
        for inner in ast.walk(item):
            if isinstance(inner, ast.AugAssign):
                targets = [inner.target]
            elif isinstance(inner, ast.Assign):
                targets = list(inner.targets)
            elif isinstance(inner, ast.AnnAssign):
                targets = [inner.target]
            else:
                continue
            for target in targets:
                yield from _check_target(
                    source, node.name, item.name, target, allowed
                )


def _check_target(
    source: SourceFile,
    class_name: str,
    method: str,
    target: ast.expr,
    allowed: frozenset[str],
) -> Iterator[Violation]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _check_target(
                source, class_name, method, element, allowed
            )
        return
    root = _self_root(target)
    if root is None or root in allowed:
        return
    yield Violation(
        code="RPL008",
        message=(
            f"{class_name}.{method} mutates 'self.{root}', which is not "
            "declared in STATE_FIELDS or TRANSIENT_FIELDS — snapshots "
            "will silently drop it and a resumed run diverges; declare "
            "it (and export/restore it) or mark it transient"
        ),
        path=source.path,
        line=target.lineno,
        col=target.col_offset,
    )


def _self_root(target: ast.expr) -> str | None:
    """The attribute name a mutation reaches through ``self``, if any.

    ``self.a = x`` / ``self.a.b = x`` / ``self.a[k] = x`` all root at
    ``a``; targets not reached through ``self`` return ``None``.
    """
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None
