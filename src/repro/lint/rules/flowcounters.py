"""RPL013 — counter conservation along every CFG path.

RPL002 checks *who* may charge a counter; this rule checks *when*. The
once-per-call fields of ``MonitorCounters`` (the timing and stream
ledgers the bench/obs story reads) must be charged exactly once per
maintain/access call: a function that charges ``self.counters.<field>``
somewhere must charge it on **every** normal completion (an early
``return`` — or a handler return reached only on an exception edge —
that skips the charge under-reports the phase), and must never reach
the same charge twice (a charge inside a loop body double-bills the
call). Paths that propagate an exception are exempt: the caller never
got a result, so no charge is owed.

Receivers are matched through a ``counters`` attribute in the chain
(``self.counters.updates_processed``), which keeps ``MonitorCounters``'s
own methods (``restore``, ``__add__`` — plain ``self.<field>``) out of
scope; those are conversions, not charges.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.cfg import (
    CFG,
    NORMAL_EXIT_KINDS,
    Block,
    function_cfgs,
    scan_roots,
)
from repro.lint.flow.dataflow import BOTTOM, FlagLattice, FlagState, solve_forward
from repro.lint.registry import Violation, rule

SCOPES = ("repro.core", "repro.shard", "repro.ext")

#: fields charged exactly once per lifecycle call by contract
#: (``CTUPMonitor.apply_update`` / ``apply_burst`` / ``refresh`` /
#: ``initialize`` own them — see RPL002's ownership table).
ONCE_PER_CALL_FIELDS = frozenset(
    {
        "time_maintain_s",
        "time_access_s",
        "time_init_s",
        "updates_processed",
        "coalesced_updates",
        "maintained_peak",
    }
)

_ZERO = "0"
_ONE = "1"
_MANY = "2+"
_LATTICE = FlagLattice(default=_ZERO)


@rule(
    "RPL013",
    "counter-conservation",
    "once-per-call MonitorCounters charges happen on every normal exit "
    "path and never twice (early returns, except edges, loop bodies)",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node, cfg in function_cfgs(source.tree):
        yield from _check_function(source, cfg)


def _charged_fields(node: ast.AST) -> frozenset[str]:
    """Once-per-call fields a statement charges through ``.counters.``"""
    charged: set[str] = set()
    for root in scan_roots(node):
        for sub in ast.walk(root):
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            else:
                continue
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, ast.Tuple)
                    else [target]
                )
                for element in elements:
                    if (
                        isinstance(element, ast.Attribute)
                        and element.attr in ONCE_PER_CALL_FIELDS
                        and _through_counters(element.value)
                    ):
                        charged.add(element.attr)
    return frozenset(charged)


def _through_counters(node: ast.expr) -> bool:
    """Whether the receiver chain passes an attribute named
    ``counters`` (or is a bare ``counters`` variable)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == "counters":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == "counters"


def _check_function(source: SourceFile, cfg: CFG) -> Iterator[Violation]:
    fields: set[str] = set()
    for block in cfg.statement_blocks():
        if block.node is not None:
            fields.update(_charged_fields(block.node))
    for field in sorted(fields):
        yield from _check_field(source, cfg, field)


def _check_field(
    source: SourceFile, cfg: CFG, field: str
) -> Iterator[Violation]:
    def transfer(block: Block, state: FlagState) -> FlagState:
        if block.node is None or field not in _charged_fields(block.node):
            return state
        possible = _LATTICE.read(state, field)
        bumped = frozenset(
            _ONE if value == _ZERO else _MANY for value in possible
        )
        updated = dict(state)
        updated[field] = bumped
        return updated

    in_states = solve_forward(
        cfg, _LATTICE.initial([field]), transfer, _LATTICE.join
    )

    # double charge: a charge block whose in-state may already be >= 1.
    for block in cfg.statement_blocks():
        if block.node is None or field not in _charged_fields(block.node):
            continue
        state = in_states.get(block.block_id, BOTTOM)
        if state is BOTTOM or not isinstance(state, dict):
            continue
        already = _LATTICE.read(state, field) - frozenset({_ZERO})
        if already:
            yield Violation(
                code="RPL013",
                message=(
                    f"counter '{field}' may be charged more than once on "
                    "a path through this statement (a loop back-edge or "
                    "repeated charge reaches it already-charged) — "
                    "once-per-call fields double-bill the phase ledger; "
                    "hoist the charge out of the loop"
                ),
                path=source.path,
                line=block.line,
                col=getattr(block.node, "col_offset", 0),
            )

    # skipped charge: a normal completion whose carried state may be 0.
    reported_lines: set[int] = set()
    for edge in cfg.exit_edges():
        if edge.kind not in NORMAL_EXIT_KINDS:
            continue
        block = cfg.blocks[edge.src]
        state = in_states.get(edge.src, BOTTOM)
        if state is BOTTOM or not isinstance(state, dict):
            continue
        carried = transfer(block, state)
        if _ZERO not in _LATTICE.read(carried, field):
            continue
        line = block.line or cfg.line
        if line in reported_lines:
            continue
        reported_lines.add(line)
        yield Violation(
            code="RPL013",
            message=(
                f"a normal completion of '{cfg.name}' is reachable with "
                f"counter '{field}' uncharged (early return, or a "
                "handler completing after an exception edge skipped the "
                "charge) while other paths charge it — the phase ledger "
                "under-reports; charge in a finally or on every branch"
            ),
            path=source.path,
            line=line,
            col=0,
        )
