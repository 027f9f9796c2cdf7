"""RPL012 — lock discipline where real threads exist.

One place in this repo runs concurrently with the main loop: the obs
``/metrics`` HTTP server thread (``repro.obs``). A class there that owns a lock is asserting
"my state is shared"; this rule makes that assertion checkable. The
class declares which attributes the lock guards::

    class MetricsRegistry:
        GUARDED_FIELDS = ("_families",)
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._families = {}

and the rule then verifies, per method CFG, that every read or write
of a guarded field happens with the lock *definitely* held — either
lexically inside ``with self._lock:`` or downstream of an
``acquire()`` with no intervening ``release()`` on any path.
Attributes not declared are documented-immutable by that same
convention (set in ``__init__`` and never mutated — the snapshot rule
RPL008 polices that separately). A lock-owning class in scope that
declares no ``GUARDED_FIELDS`` at all is itself a violation: an
undeclared lock guards nothing checkable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.cfg import Block, build_cfg, scan_roots
from repro.lint.flow.dataflow import BOTTOM, FlagLattice, FlagState, solve_forward
from repro.lint.registry import Violation, rule

SCOPES = ("repro.obs", "repro.shard")

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

_HELD = "held"
_FREE = "free"
_LATTICE = FlagLattice(default=_FREE)
_KEY = "lock"


@rule(
    "RPL012",
    "lock-discipline",
    "attributes shared with the /metrics thread are "
    "accessed under the owning lock (GUARDED_FIELDS) or are "
    "documented-immutable",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _check_class(source, node)


def _lock_fields(node: ast.ClassDef) -> frozenset[str]:
    """``self.X = threading.Lock()``-style fields assigned in __init__."""
    fields: set[str] = set()
    for item in node.body:
        if not (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__init__"
        ):
            continue
        for sub in ast.walk(item):
            if not isinstance(sub, ast.Assign):
                continue
            value = sub.value
            if not (
                isinstance(value, ast.Call)
                and (
                    (
                        isinstance(value.func, ast.Name)
                        and value.func.id in _LOCK_FACTORIES
                    )
                    or (
                        isinstance(value.func, ast.Attribute)
                        and value.func.attr in _LOCK_FACTORIES
                    )
                )
            ):
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    fields.add(target.attr)
    return frozenset(fields)


def _guarded_fields(node: ast.ClassDef) -> tuple[str, ...] | None:
    """The ``GUARDED_FIELDS`` tuple literal, ``None`` when absent."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign):
            targets, value = [item.target], item.value
        elif isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "GUARDED_FIELDS"
            for t in targets
        ):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            return ()
        names: list[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                names.append(element.value)
        return tuple(names)
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
    guarded_set = frozenset(guarded)
    if not guarded_set:
        return
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name == "__init__":
            continue  # construction happens-before publication
        yield from _check_method(source, node, item, locks, guarded_set)


def _lock_event(node: ast.AST, locks: frozenset[str]) -> str | None:
    """acquire/release of an owned lock inside one statement."""
    event: str | None = None
    for root in scan_roots(node):
        found = _lock_event_in(root, locks)
        if found is not None:
            event = found
    return event


def _lock_event_in(root: ast.AST, locks: frozenset[str]) -> str | None:
    event: str | None = None
    for sub in ast.walk(root):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("acquire", "release")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in locks
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            continue
        event = "acquire" if func.attr == "acquire" else "release"
    return event


def _lexically_locked(block: Block, locks: frozenset[str]) -> bool:
    """Whether the block sits inside ``with self.<lock>:``."""
    for item in block.withitems:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr in locks
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return True
    return False


def _guarded_accesses(
    node: ast.AST, guarded: frozenset[str]
) -> Iterator[tuple[str, ast.Attribute]]:
    """``self.<guarded>`` attribute nodes inside one statement."""
    for root in scan_roots(node):
        for sub in ast.walk(root):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in guarded
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield (sub.attr, sub)


def _check_method(
    source: SourceFile,
    cls: ast.ClassDef,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    locks: frozenset[str],
    guarded: frozenset[str],
) -> Iterator[Violation]:
    cfg = build_cfg(method)

    def transfer(block: Block, state: FlagState) -> FlagState:
        if block.node is None:
            return state
        event = _lock_event(block.node, locks)
        if event == "acquire":
            return _LATTICE.write(state, _KEY, _HELD)
        if event == "release":
            return _LATTICE.write(state, _KEY, _FREE)
        return state

    in_states = solve_forward(
        cfg, _LATTICE.initial([_KEY]), transfer, _LATTICE.join
    )
    reported: set[tuple[int, str]] = set()
    for block_id in sorted(cfg.blocks):
        block = cfg.blocks[block_id]
        if block.node is None or block.label == "except":
            continue
        state = in_states.get(block_id, BOTTOM)
        if state is BOTTOM or not isinstance(state, dict):
            continue
        if _lexically_locked(block, locks):
            continue
        if _LATTICE.definitely(state, _KEY, _HELD):
            continue
        for attr, access in _guarded_accesses(block.node, guarded):
            marker = (access.lineno, attr)
            if marker in reported:
                continue
            reported.add(marker)
            yield Violation(
                code="RPL012",
                message=(
                    f"access to guarded field 'self.{attr}' in "
                    f"'{cls.name}.{method.name}' without the owning lock "
                    "definitely held — the /metrics thread "
                    "can observe a torn update; wrap the access in "
                    "'with self."
                    f"{sorted(locks)[0]}:' (GUARDED_FIELDS contract)"
                ),
                path=source.path,
                line=access.lineno,
                col=access.col_offset,
            )
