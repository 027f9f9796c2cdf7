"""RPL012 — lock discipline where real threads exist.

One place in this repo runs concurrently with the main loop: the obs
``/metrics`` HTTP server thread (``repro.obs``). A class there that
owns a lock is asserting "my state is shared"; this rule makes that
assertion checkable. The class declares which attributes the lock
guards::

    class MetricsRegistry:
        GUARDED_FIELDS = ("_families",)
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._families = {}

and the rule then verifies that every read or write of a guarded field
outside ``__init__`` sits lexically inside ``with self._lock:``. A bare
``acquire()`` / ``release()`` pair does not count: ``with`` is the one
form whose extent the reader (and the rule) can see. Attributes not
declared are documented-immutable by that same convention (set in
``__init__`` and never mutated). A lock-owning class in scope that
declares no ``GUARDED_FIELDS`` at all is itself a violation: an
undeclared lock guards nothing checkable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

SCOPES = ("repro.obs", "repro.shard")

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})


@rule(
    "RPL012",
    "lock-discipline",
    "attributes shared with the /metrics thread are accessed inside "
    "'with <owning lock>:' (GUARDED_FIELDS) or are documented-immutable",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _check_class(source, node)


def _is_self_attr(node: ast.AST, names: frozenset[str] | None = None) -> bool:
    """Whether ``node`` is ``self.<name>`` (any name when ``names`` is
    ``None``)."""
    return (
        isinstance(node, ast.Attribute)
        and (names is None or node.attr in names)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _lock_fields(node: ast.ClassDef) -> frozenset[str]:
    """``self.X = threading.Lock()``-style fields assigned in __init__."""
    fields: set[str] = set()
    for item in node.body:
        if not isinstance(item, ast.FunctionDef) or item.name != "__init__":
            continue
        for sub in ast.walk(item):
            if not (
                isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)
            ):
                continue
            func = sub.value.func
            factory = getattr(func, "id", None) or getattr(func, "attr", None)
            if factory in _LOCK_FACTORIES:
                fields.update(
                    t.attr
                    for t in sub.targets
                    if isinstance(t, ast.Attribute) and _is_self_attr(t)
                )
    return frozenset(fields)


def _guarded_fields(node: ast.ClassDef) -> frozenset[str] | None:
    """The names of the class body's ``GUARDED_FIELDS = ("a", ...)``
    literal, ``None`` when it declares none."""
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign):
            targets, value = [item.target], item.value
        else:
            continue
        named = any(
            isinstance(t, ast.Name) and t.id == "GUARDED_FIELDS" for t in targets
        )
        if named and isinstance(value, (ast.Tuple, ast.List)):
            names = [
                e.value if isinstance(e, ast.Constant) else None
                for e in value.elts
            ]
            if all(isinstance(name, str) for name in names):
                return frozenset(names)
    return None


def _check_class(
    source: SourceFile, node: ast.ClassDef
) -> Iterator[Violation]:
    locks = _lock_fields(node)
    if not locks:
        return
    guarded = _guarded_fields(node)
    if guarded is None:
        yield Violation(
            code="RPL012",
            message=(
                f"class '{node.name}' owns a lock "
                f"({', '.join(sorted(locks))}) but declares no "
                "GUARDED_FIELDS — declare which attributes the lock "
                "guards so shared-state accesses are checkable (the "
                "/metrics thread runs concurrently with the main loop)"
            ),
            path=source.path,
            line=node.lineno,
            col=node.col_offset,
        )
        return
    for method in node.body:
        # construction happens-before publication: __init__ is exempt.
        if isinstance(method, ast.FunctionDef) and method.name != "__init__":
            for access in _unlocked_accesses(method, locks, guarded):
                yield Violation(
                    code="RPL012",
                    message=(
                        f"access to guarded field 'self.{access.attr}' in "
                        f"'{node.name}.{method.name}' outside 'with self."
                        f"{sorted(locks)[0]}:' — the /metrics thread can "
                        "observe a torn update (GUARDED_FIELDS contract)"
                    ),
                    path=source.path,
                    line=access.lineno,
                    col=access.col_offset,
                )


def _unlocked_accesses(
    node: ast.AST, locks: frozenset[str], guarded: frozenset[str]
) -> Iterator[ast.Attribute]:
    """``self.<guarded>`` nodes not lexically inside ``with self.<lock>:``."""
    if isinstance(node, ast.With) and any(
        _is_self_attr(item.context_expr, locks) for item in node.items
    ):
        return
    if isinstance(node, ast.Attribute) and _is_self_attr(node, guarded):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _unlocked_accesses(child, locks, guarded)
