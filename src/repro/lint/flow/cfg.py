"""Intraprocedural control-flow graphs over ``ast`` function bodies.

One :class:`Block` per simple statement (plus synthetic entry / exit /
test / join blocks), so transfer functions in
:mod:`repro.lint.flow.dataflow` operate statement-at-a-time and
exception edges are precise: an edge into a handler leaves from the
*individual statement* that may raise, carrying the state from before
that statement completed.

Modelled control flow:

* ``if`` / ``while`` / ``for`` (with ``else`` clauses, ``break`` /
  ``continue``, and explicit ``loop`` back-edges);
* ``return`` / ``raise`` (terminating edges into the single exit block,
  tagged ``return`` vs ``raise`` so rules can reason about normal
  completions separately from propagating exceptions);
* ``try`` / ``except`` / ``else`` / ``finally`` — every statement
  lexically inside a ``try`` body gets an ``exception`` edge to each of
  its handlers (any statement is conservatively assumed able to raise),
  and abnormal exits re-lower a fresh copy of each enclosing
  ``finally`` body on their way out, so a ``return`` inside ``try``
  cannot leak back onto the fall-through path;
* ``with`` — the context expression is a block of its own, and every
  block records the stack of ``with`` items lexically active at its
  creation (:attr:`Block.withitems`), which is what the lock-discipline
  rule reads.

Deliberate simplifications, fine at linter granularity: exception
edges target only the *innermost* enclosing handler set (an exception
an inner handler re-raises is not tracked into outer handlers), and a
``with`` block's ``__exit__`` is assumed not to swallow exceptions.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

#: edge kinds (a closed set; rules switch on these).
EDGE_NORMAL = "normal"
EDGE_TRUE = "true"
EDGE_FALSE = "false"
EDGE_LOOP = "loop"
EDGE_EXCEPTION = "exception"
EDGE_RETURN = "return"
EDGE_RAISE = "raise"
EDGE_FALLTHROUGH = "fallthrough"


@dataclasses.dataclass(frozen=True, slots=True)
class Edge:
    """One directed control-flow edge."""

    src: int
    dst: int
    kind: str


@dataclasses.dataclass(frozen=True, slots=True)
class Block:
    """One CFG node.

    ``node`` is the simple statement the block executes, the test
    expression of a branch/loop header, or the ``ast.ExceptHandler``
    for a handler entry; synthetic blocks (entry, exit, joins) carry
    ``None``. ``withitems`` is the stack of ``with`` items lexically
    active where the block was created, outermost first.
    """

    block_id: int
    label: str
    node: ast.AST | None
    withitems: tuple[ast.withitem, ...] = ()

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, name: str, line: int) -> None:
        self.name = name
        self.line = line
        self.blocks: dict[int, Block] = {}
        self.entry: int = -1
        self.exit: int = -1
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}

    def successors(self, block_id: int) -> Sequence[Edge]:
        return self._succ.get(block_id, ())

    def predecessors(self, block_id: int) -> Sequence[Edge]:
        return self._pred.get(block_id, ())

    def statement_blocks(self) -> Iterator[Block]:
        """Blocks carrying a real statement (label ``stmt``), id order."""
        for block_id in sorted(self.blocks):
            block = self.blocks[block_id]
            if block.label == "stmt":
                yield block

    def exit_edges(self) -> Sequence[Edge]:
        """Every edge into the exit block."""
        return self._pred.get(self.exit, ())

    # -- construction (used by the builder only) -------------------------

    def _add_block(self, block: Block) -> None:
        self.blocks[block.block_id] = block

    def _add_edge(self, src: int, dst: int, kind: str) -> None:
        edge = Edge(src, dst, kind)
        self._succ.setdefault(src, []).append(edge)
        self._pred.setdefault(dst, []).append(edge)


@dataclasses.dataclass(frozen=True)
class _Context:
    """Lowering context threaded through the recursive builder."""

    #: handler-entry block ids of the innermost enclosing ``try``.
    handlers: tuple[int, ...] = ()
    #: ``finally`` bodies of enclosing ``try`` statements, innermost
    #: last, paired with the handler context they were declared under.
    finallies: tuple[tuple[ast.stmt, ...], ...] = ()
    #: (break target, continue target, finally-depth at loop entry).
    loop: tuple[int, int, int] | None = None
    #: ``with`` items lexically active, outermost first.
    withitems: tuple[ast.withitem, ...] = ()


class _Builder:
    """Lowers one function body into a :class:`CFG`."""

    def __init__(self, name: str, line: int) -> None:
        self.cfg = CFG(name, line)
        self._next_id = 0

    def _block(
        self,
        label: str,
        node: ast.AST | None,
        ctx: _Context,
    ) -> int:
        block_id = self._next_id
        self._next_id += 1
        self.cfg._add_block(
            Block(block_id, label, node, withitems=ctx.withitems)
        )
        return block_id

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        ctx = _Context()
        self.cfg.entry = self._block("entry", None, ctx)
        self.cfg.exit = self._block("exit", None, ctx)
        end = self._lower_body(body, self.cfg.entry, ctx)
        if end is not None:
            self.cfg._add_edge(end, self.cfg.exit, EDGE_FALLTHROUGH)
        return self.cfg

    # -- body / statement lowering ---------------------------------------

    def _lower_body(
        self,
        body: Sequence[ast.stmt],
        cursor: int | None,
        ctx: _Context,
    ) -> int | None:
        """Lower a statement list; returns the open block flow leaves
        through, or ``None`` when every path terminated."""
        for stmt in body:
            if cursor is None:
                break  # unreachable code after return/raise/break
            cursor = self._lower_stmt(stmt, cursor, ctx)
        return cursor

    def _lower_stmt(
        self, stmt: ast.stmt, cursor: int, ctx: _Context
    ) -> int | None:
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, cursor, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._lower_loop(stmt, cursor, ctx)
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt, cursor, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._lower_with(stmt, cursor, ctx)
        if isinstance(stmt, ast.Return):
            return self._lower_terminator(stmt, cursor, ctx, EDGE_RETURN)
        if isinstance(stmt, ast.Raise):
            return self._lower_raise(stmt, cursor, ctx)
        if isinstance(stmt, ast.Break):
            return self._lower_break(stmt, cursor, ctx, is_break=True)
        if isinstance(stmt, ast.Continue):
            return self._lower_break(stmt, cursor, ctx, is_break=False)
        # simple statement (incl. nested defs/classes, treated opaquely).
        block = self._block("stmt", stmt, ctx)
        self.cfg._add_edge(cursor, block, EDGE_NORMAL)
        self._exception_edges(block, ctx)
        return block

    def _exception_edges(self, block_id: int, ctx: _Context) -> None:
        """Any statement may raise: wire it to the innermost handlers."""
        for handler_entry in ctx.handlers:
            self.cfg._add_edge(block_id, handler_entry, EDGE_EXCEPTION)

    # -- structured statements -------------------------------------------

    def _lower_if(self, stmt: ast.If, cursor: int, ctx: _Context) -> int | None:
        test = self._block("test", stmt.test, ctx)
        self.cfg._add_edge(cursor, test, EDGE_NORMAL)
        self._exception_edges(test, ctx)
        join = self._block("join", None, ctx)
        then_entry = self._block("join", None, ctx)
        self.cfg._add_edge(test, then_entry, EDGE_TRUE)
        then_end = self._lower_body(stmt.body, then_entry, ctx)
        if then_end is not None:
            self.cfg._add_edge(then_end, join, EDGE_NORMAL)
        if stmt.orelse:
            else_entry = self._block("join", None, ctx)
            self.cfg._add_edge(test, else_entry, EDGE_FALSE)
            else_end = self._lower_body(stmt.orelse, else_entry, ctx)
            if else_end is not None:
                self.cfg._add_edge(else_end, join, EDGE_NORMAL)
        else:
            self.cfg._add_edge(test, join, EDGE_FALSE)
        if not self.cfg.predecessors(join):
            return None  # both branches terminated
        return join

    def _lower_loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        cursor: int,
        ctx: _Context,
    ) -> int | None:
        # For loops the header carries the whole statement so the loop
        # target's binding is visible to rules (scan_roots restricts a
        # scan to the iterable the header evaluates).
        header_node: ast.AST = stmt.test if isinstance(stmt, ast.While) else stmt
        header = self._block("test", header_node, ctx)
        self.cfg._add_edge(cursor, header, EDGE_NORMAL)
        self._exception_edges(header, ctx)
        after = self._block("join", None, ctx)
        body_entry = self._block("join", None, ctx)
        self.cfg._add_edge(header, body_entry, EDGE_TRUE)
        loop_ctx = dataclasses.replace(
            ctx, loop=(after, header, len(ctx.finallies))
        )
        body_end = self._lower_body(stmt.body, body_entry, loop_ctx)
        if body_end is not None:
            self.cfg._add_edge(body_end, header, EDGE_LOOP)
        if stmt.orelse:
            else_entry = self._block("join", None, ctx)
            self.cfg._add_edge(header, else_entry, EDGE_FALSE)
            else_end = self._lower_body(stmt.orelse, else_entry, ctx)
            if else_end is not None:
                self.cfg._add_edge(else_end, after, EDGE_NORMAL)
        else:
            self.cfg._add_edge(header, after, EDGE_FALSE)
        if not self.cfg.predecessors(after):
            return None
        return after

    def _lower_with(
        self,
        stmt: ast.With | ast.AsyncWith,
        cursor: int,
        ctx: _Context,
    ) -> int | None:
        enter = self._block("stmt", stmt, ctx)
        self.cfg._add_edge(cursor, enter, EDGE_NORMAL)
        self._exception_edges(enter, ctx)
        inner_ctx = dataclasses.replace(
            ctx, withitems=ctx.withitems + tuple(stmt.items)
        )
        body_end = self._lower_body(stmt.body, enter, inner_ctx)
        if body_end is None:
            return None
        leave = self._block("join", None, ctx)
        self.cfg._add_edge(body_end, leave, EDGE_NORMAL)
        return leave

    def _lower_try(self, stmt: ast.Try, cursor: int, ctx: _Context) -> int | None:
        after = self._block("join", None, ctx)
        handler_entries: list[int] = []
        for handler in stmt.handlers:
            handler_entries.append(self._block("except", handler, ctx))
        body_ctx = dataclasses.replace(ctx, handlers=tuple(handler_entries))
        if stmt.finalbody:
            body_ctx = dataclasses.replace(
                body_ctx, finallies=ctx.finallies + (tuple(stmt.finalbody),)
            )
            handler_ctx = dataclasses.replace(
                ctx, finallies=ctx.finallies + (tuple(stmt.finalbody),)
            )
        else:
            handler_ctx = ctx

        def continue_after(end: int | None) -> None:
            """Route a completed region through the finally, then on."""
            if end is None:
                return
            if stmt.finalbody:
                end = self._lower_body(list(stmt.finalbody), end, ctx)
                if end is None:
                    return
            self.cfg._add_edge(end, after, EDGE_NORMAL)

        body_entry = self._block("join", None, ctx)
        self.cfg._add_edge(cursor, body_entry, EDGE_NORMAL)
        body_end = self._lower_body(stmt.body, body_entry, body_ctx)
        if stmt.orelse and body_end is not None:
            body_end = self._lower_body(stmt.orelse, body_end, body_ctx)
        continue_after(body_end)
        for entry_id, handler in zip(handler_entries, stmt.handlers):
            handler_end = self._lower_body(handler.body, entry_id, handler_ctx)
            continue_after(handler_end)
        if not stmt.handlers and stmt.finalbody:
            # try/finally with no except: an exception in the body runs
            # the finally and propagates. Model the propagating path.
            propagate = self._lower_body(
                list(stmt.finalbody), body_entry, ctx
            )
            if propagate is not None:
                self.cfg._add_edge(propagate, self.cfg.exit, EDGE_RAISE)
        if not self.cfg.predecessors(after):
            return None
        return after

    # -- terminators ------------------------------------------------------

    def _unwind_finallies(
        self, cursor: int, ctx: _Context, depth: int
    ) -> int | None:
        """Lower fresh copies of enclosing ``finally`` bodies (innermost
        first) down to ``depth``, returning the new open block."""
        open_block: int | None = cursor
        for finalbody in reversed(ctx.finallies[depth:]):
            if open_block is None:
                return None
            # the finally body runs outside the protected region, so a
            # bare context (no handlers) is the right lowering context.
            open_block = self._lower_body(
                list(finalbody),
                open_block,
                dataclasses.replace(ctx, handlers=(), finallies=()),
            )
        return open_block

    def _lower_terminator(
        self, stmt: ast.stmt, cursor: int, ctx: _Context, kind: str
    ) -> None:
        block = self._block("stmt", stmt, ctx)
        self.cfg._add_edge(cursor, block, EDGE_NORMAL)
        self._exception_edges(block, ctx)
        open_block = self._unwind_finallies(block, ctx, 0)
        if open_block is not None:
            self.cfg._add_edge(open_block, self.cfg.exit, kind)
        return None

    def _lower_raise(self, stmt: ast.Raise, cursor: int, ctx: _Context) -> None:
        block = self._block("stmt", stmt, ctx)
        self.cfg._add_edge(cursor, block, EDGE_NORMAL)
        if ctx.handlers:
            self._exception_edges(block, ctx)
            return None
        open_block = self._unwind_finallies(block, ctx, 0)
        if open_block is not None:
            self.cfg._add_edge(open_block, self.cfg.exit, EDGE_RAISE)
        return None

    def _lower_break(
        self, stmt: ast.stmt, cursor: int, ctx: _Context, *, is_break: bool
    ) -> None:
        block = self._block("stmt", stmt, ctx)
        self.cfg._add_edge(cursor, block, EDGE_NORMAL)
        self._exception_edges(block, ctx)
        if ctx.loop is None:
            return None  # syntactically invalid; be forgiving
        break_to, continue_to, loop_depth = ctx.loop
        open_block = self._unwind_finallies(block, ctx, loop_depth)
        if open_block is not None:
            target = break_to if is_break else continue_to
            kind = EDGE_NORMAL if is_break else EDGE_LOOP
            self.cfg._add_edge(open_block, target, kind)
        return None


def scan_roots(node: ast.AST) -> tuple[ast.AST, ...]:
    """What a block's node actually *evaluates* at that block.

    Compound-statement headers (``for``, ``with``) carry the whole
    statement so target bindings stay visible, but only the controlling
    expressions run at the header block — the body is lowered into
    blocks of its own. Rules and transfer functions must walk these
    roots, not the raw node, or they attribute body effects to the
    header.
    """
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return (node.iter,)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return tuple(item.context_expr for item in node.items)
    return (node,)


def build_cfg(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> CFG:
    """The CFG of one function definition's body."""
    return _Builder(node.name, node.lineno).build(node.body)


def function_cfgs(
    tree: ast.AST,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, CFG]]:
    """Every def in ``tree`` with its CFG (nested defs get their own —
    the enclosing function's CFG treats the def statement opaquely)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, build_cfg(node)
