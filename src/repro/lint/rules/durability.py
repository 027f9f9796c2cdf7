"""RPL011 — durability discipline on the checkpoint/journal write path.

Crash recovery only works if what the recovery pass reads was actually
on disk when the writer claimed it was. So a publish — ``os.replace`` /
``os.rename``, or a path's one-argument ``.replace`` / ``.rename`` —
needs a write, then ``flush()``, then ``os.fsync()`` among the
statements that always run before it in the same function
(``write_text`` + ``replace`` is the classic bug — the rename is
durable, the contents are not). Those are the earlier siblings in each
enclosing body; the search looks inside their ``with`` bodies but not
inside ``if``, loop, ``try`` or ``except`` bodies, which may not run.
The second half is exception hygiene: a monitor-state mutation inside a
``try`` whose handler swallows the exception leaves half-applied state
visible to the next snapshot unless the handler rolls the attribute
back.

Scope: ``repro.state`` — the package whose whole contract is
durability.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

SCOPES = ("repro.state",)

_WRITE_METHODS = frozenset(
    {"write", "writelines", "write_text", "write_bytes", "dump"}
)
#: what is still missing before a publish, by how far the
#: write -> flush -> fsync sequence got.
_MISSING = ("a write -> flush -> fsync sequence", "flush+fsync", "os.fsync")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@rule(
    "RPL011",
    "durability-discipline",
    "every checkpoint/journal publish (rename/replace) follows "
    "write -> flush -> fsync in the statements that always run before "
    "it, and no state mutation survives a swallowed exception without "
    "rollback",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    yield from _check_body(source, source.tree.body, [])
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Try):
            yield from _check_swallowed_mutations(source, node)


# -- half one: write -> flush -> fsync -> publish ------------------------

Event = tuple[str, ast.Call]


def _events(node: ast.AST) -> list[Event]:
    """Durability protocol events inside ``node``, in AST order."""
    found: list[Event] = []
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
            continue
        attr, receiver = sub.func.attr, sub.func.value
        if attr in _WRITE_METHODS:
            found.append(("write", sub))
        elif attr in ("flush", "fsync"):  # fsync of any fd counts
            found.append((attr, sub))
        elif attr in ("replace", "rename") and not sub.keywords:
            # str.replace takes two arguments, Path.replace/rename one;
            # os.replace/os.rename take two.
            is_os = isinstance(receiver, ast.Name) and receiver.id == "os"
            if len(sub.args) == (2 if is_os else 1):
                found.append(("publish", sub))
    return found


def _parts(stmt: ast.stmt) -> tuple[list[Event], list[list[ast.stmt]]]:
    """A statement's header events (those that run whenever it runs:
    all of a simple statement, an ``if`` test, a ``with`` item) and its
    nested statement bodies."""
    header: list[Event] = []
    bodies: list[list[ast.stmt]] = []
    for name, value in ast.iter_fields(stmt):
        if name in ("body", "orelse", "finalbody"):
            bodies.append(value)
        elif name in ("handlers", "cases"):
            bodies.extend(clause.body for clause in value)
        else:
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.AST):
                    header.extend(_events(item))
    return header, bodies


def _always_run(stmt: ast.stmt) -> list[Event]:
    """Events that ran once ``stmt`` completed: its header, plus a
    ``with`` body's; never a branch, loop, ``try`` or handler body."""
    events, _ = _parts(stmt)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for child in stmt.body:
            events.extend(_always_run(child))
    return events


def _check_body(
    source: SourceFile, body: list[ast.stmt], before: list[Event]
) -> Iterator[Violation]:
    """Check each publish in ``body`` against the events that always
    run before it: ``before`` (from the enclosing bodies) plus the
    earlier siblings'."""
    events = list(before)
    for stmt in body:
        header, bodies = _parts(stmt)
        for event, call in header:
            if event == "publish":
                yield from _check_publish(source, events, call)
        inner = [] if isinstance(stmt, _DEFINITIONS) else events + header
        for child in bodies:
            yield from _check_body(source, child, inner)
        events.extend(_always_run(stmt))


def _check_publish(
    source: SourceFile, events: list[Event], call: ast.Call
) -> Iterator[Violation]:
    reached = 0  # 1 after a write, 2 after its flush, 3 after the fsync
    for event, _ in events:
        if event == "publish":
            reached = 0
        elif event == "write":
            reached = 1
        elif (event, reached) in (("flush", 1), ("fsync", 2)):
            reached += 1
    if reached < 3:
        yield Violation(
            code="RPL011",
            message=(
                f"rename/publish without {_MISSING[reached]} in the "
                "statements that always run before it — a crash after "
                "the rename can expose an empty or truncated file to "
                "recovery (write -> flush -> fsync -> rename, as "
                "CheckpointStore.write_snapshot does)"
            ),
            path=source.path,
            line=call.lineno,
            col=call.col_offset,
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
