"""RPL011 — durability discipline on the checkpoint/journal write path.

Crash recovery (PR 6) only works if what the recovery pass reads was
actually on disk when the writer claimed it was. That is a *path*
property, not a call property: every CFG path from a file write to the
rename/publish of that file must pass ``flush()`` **and**
``os.fsync()`` first (``write_text`` + ``replace`` is the classic bug
— the rename is durable, the contents are not). The second half is
exception hygiene: a monitor-state mutation inside a ``try`` whose
handler swallows the exception leaves half-applied state visible to
the next snapshot unless the handler rolls the attribute back.

Scope: ``repro.state`` — the package whose whole contract is
durability.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.cfg import CFG, Block, function_cfgs, scan_roots
from repro.lint.flow.dataflow import BOTTOM, FlagLattice, FlagState, solve_forward
from repro.lint.registry import Violation, rule

SCOPES = ("repro.state",)

#: the per-function durability protocol states, in protocol order.
_CLEAN = "clean"
_WRITTEN = "written"
_FLUSHED = "flushed"
_DURABLE = "durable"

_WRITE_METHODS = frozenset(
    {"write", "writelines", "write_text", "write_bytes", "dump"}
)
_PUBLISH_METHODS = frozenset({"replace", "rename"})

_LATTICE = FlagLattice(default=_CLEAN)
_KEY = "written-data"


@rule(
    "RPL011",
    "durability-discipline",
    "every checkpoint/journal write path reaches flush+fsync before "
    "rename/publish, and no state mutation survives a swallowed "
    "exception without rollback",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node, cfg in function_cfgs(source.tree):
        yield from _check_publish_protocol(source, cfg)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Try):
            yield from _check_swallowed_mutations(source, node)


# -- half one: write -> flush -> fsync -> publish ------------------------


def _events(node: ast.AST) -> Iterator[tuple[str, ast.Call]]:
    """Durability protocol events inside one statement, in AST order."""
    for root in scan_roots(node):
        yield from _events_in(root)


def _events_in(root: ast.AST) -> Iterator[tuple[str, ast.Call]]:
    for sub in ast.walk(root):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _WRITE_METHODS:
            yield ("write", sub)
        elif func.attr == "flush":
            yield ("flush", sub)
        elif func.attr == "fsync":
            # os.fsync(handle.fileno()) or a raw fd; receiver shape is
            # not discriminated — fsync of anything counts.
            yield ("fsync", sub)
        elif func.attr in _PUBLISH_METHODS:
            # Path.replace/Path.rename take exactly one positional
            # argument; str.replace takes two — use the arity to avoid
            # flagging string surgery. os.replace/os.rename take two,
            # so accept those when the receiver is literally ``os``.
            receiver = func.value
            receiver_is_os = (
                isinstance(receiver, ast.Name) and receiver.id == "os"
            )
            arity = len(sub.args)
            if (receiver_is_os and arity == 2) or (
                not receiver_is_os and arity == 1 and not sub.keywords
            ):
                yield ("publish", sub)


def _advance(state: str, event: str) -> str:
    """The per-path protocol automaton (strings from the lattice)."""
    if event == "write":
        return _WRITTEN
    if event == "flush":
        return _FLUSHED if state == _WRITTEN else state
    if event == "fsync":
        return _DURABLE if state in (_FLUSHED, _WRITTEN) else state
    return state


def _transfer(block: Block, state: FlagState) -> FlagState:
    if block.node is None:
        return state
    possible = _LATTICE.read(state, _KEY)
    for event, _call in _events(block.node):
        if event == "publish":
            # publishing resets the protocol: the next write starts a
            # fresh cycle (violations are detected separately).
            possible = frozenset(
                _CLEAN if value != _CLEAN else value for value in possible
            )
        else:
            possible = frozenset(
                _advance(value, event) for value in possible
            )
    updated = dict(state)
    updated[_KEY] = possible
    return updated


def _check_publish_protocol(
    source: SourceFile, cfg: CFG
) -> Iterator[Violation]:
    in_states = solve_forward(
        cfg, _LATTICE.initial([_KEY]), _transfer, _LATTICE.join
    )
    for block in cfg.statement_blocks():
        state = in_states.get(block.block_id, BOTTOM)
        if state is BOTTOM or not isinstance(state, dict):
            continue
        possible = _LATTICE.read(state, _KEY)
        if block.node is None:
            continue
        for event, call in _events(block.node):
            if event == "publish":
                undrained = possible - frozenset({_CLEAN, _DURABLE})
                if undrained:
                    missing = (
                        "flush+fsync"
                        if _WRITTEN in undrained
                        else "os.fsync"
                    )
                    yield Violation(
                        code="RPL011",
                        message=(
                            "rename/publish reachable on a path where "
                            f"written data was not made durable ({missing} "
                            "missing before the publish) — a crash after "
                            "the rename can expose an empty or truncated "
                            "file to recovery (write -> flush -> fsync -> "
                            "rename, as repro.state.journal does)"
                        ),
                        path=source.path,
                        line=call.lineno,
                        col=call.col_offset,
                    )
                possible = frozenset(
                    _CLEAN if value != _CLEAN else value
                    for value in possible
                )
            else:
                possible = frozenset(
                    _advance(value, event) for value in possible
                )


# -- half two: no state mutation survives a swallowed exception ----------


def _self_attr_targets(node: ast.stmt) -> Iterator[tuple[str, ast.expr]]:
    """``self.X`` attributes a statement assigns, with the target node."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        for element in elements:
            if (
                isinstance(element, ast.Attribute)
                and isinstance(element.value, ast.Name)
                and element.value.id == "self"
            ):
                yield (element.attr, element)


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """A handler "swallows" when no path through it re-raises."""
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Raise):
            return False
    return True


def _handler_restores(handler: ast.ExceptHandler, attr: str) -> bool:
    """Whether the handler assigns ``self.<attr>`` (a rollback)."""
    for sub in ast.walk(handler):
        for name, _node in (
            _self_attr_targets(sub) if isinstance(sub, ast.stmt) else ()
        ):
            if name == attr:
                return True
    return False


def _statements_under(stmt: ast.stmt) -> Iterator[ast.stmt]:
    """The statement and its nested statements, stopping at inner
    ``try`` blocks (those have their own handlers and are analysed
    separately) and nested function definitions."""
    yield stmt
    if isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return
    for field in ("body", "orelse", "finalbody"):
        for child in getattr(stmt, field, ()):
            if isinstance(child, ast.stmt):
                yield from _statements_under(child)


def _check_swallowed_mutations(
    source: SourceFile, node: ast.Try
) -> Iterator[Violation]:
    swallowing = [h for h in node.handlers if _handler_swallows(h)]
    if not swallowing:
        return
    for stmt in node.body:
        for sub in _statements_under(stmt):
            for attr, target in _self_attr_targets(sub):
                uncovered = [
                    handler
                    for handler in swallowing
                    if not _handler_restores(handler, attr)
                ]
                if not uncovered:
                    continue
                handler_line = uncovered[0].lineno
                yield Violation(
                    code="RPL011",
                    message=(
                        f"mutation of 'self.{attr}' inside a try body "
                        "whose except handler (line "
                        f"{handler_line}) swallows the exception without "
                        "rolling the attribute back — a later statement "
                        "raising leaves half-applied monitor state that "
                        "the next snapshot will persist; restore the "
                        "attribute in the handler or re-raise"
                    ),
                    path=source.path,
                    line=target.lineno,
                    col=target.col_offset,
                )
