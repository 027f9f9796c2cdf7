"""RPL015 — catalog & epoch discipline (the control plane's write fence).

The place catalog and the reconfiguration epoch are control-plane state
(see :mod:`repro.control`): every mutation must flow through a journaled
control event, or recovery replays a different world than the live run
saw. Concretely:

* ``add_place`` / ``remove_place`` / ``reweight`` calls — the
  :class:`~repro.storage.placestore.PlaceStore` write surface — are
  only allowed inside ``repro.storage`` (the owner) and
  ``repro.control`` (the sanctioned entry point). Anywhere else they bypass epoch
  accounting and the journal.
* ``<monitor>.epoch`` is written only by ``repro.control`` (the bump in
  ``apply_control``) and ``repro.core.monitor`` (init / restore on
  ``self``).

The mutator check is flow-aware: binding a mutator method to a local
(``write = store.add_place``) and calling it later is caught by a
forward dataflow over the function's CFG, so the write cannot hide
behind an alias on any path. Intentional exceptions carry a reasoned
suppression (``# reprolint: disable=RPL015 -- why``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.cfg import CFG, Block, function_cfgs, scan_roots
from repro.lint.flow.dataflow import (
    BOTTOM,
    FlagLattice,
    FlagState,
    solve_forward,
)
from repro.lint.registry import Violation, rule

#: the PlaceStore write surface.
_MUTATORS = frozenset({"add_place", "remove_place", "reweight"})
#: packages allowed to call it.
_MUTATION_OWNERS = ("repro.storage", "repro.control")
#: packages allowed to write ``.epoch`` (core.monitor only on ``self``:
#: construction and snapshot restore).
_EPOCH_OWNER = "repro.control"
_EPOCH_SELF_OWNER = "repro.core.monitor"

_UNBOUND = "unbound"
_BOUND = "bound"
_LATTICE = FlagLattice(default=_UNBOUND)


@rule(
    "RPL015",
    "catalog-epoch-discipline",
    "place-catalog mutations (add_place/remove_place/reweight) and "
    "epoch writes only happen via repro.storage / repro.control entry "
    "points; mutator aliases are tracked through the CFG",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    yield from _check_epoch_writes(source)
    if source.in_packages(*_MUTATION_OWNERS):
        return
    yield from _check_direct_calls(source)
    for _node, cfg in function_cfgs(source.tree):
        yield from _check_aliased_calls(source, cfg)


# -- epoch writes ---------------------------------------------------------


def _check_epoch_writes(source: SourceFile) -> Iterator[Violation]:
    if source.in_packages(_EPOCH_OWNER):
        return
    monitor_owner = source.in_packages(_EPOCH_SELF_OWNER)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            elements = (
                target.elts if isinstance(target, ast.Tuple) else [target]
            )
            for element in elements:
                if (
                    not isinstance(element, ast.Attribute)
                    or element.attr != "epoch"
                ):
                    continue
                receiver = element.value
                if (
                    monitor_owner
                    and isinstance(receiver, ast.Name)
                    and receiver.id in ("self", "cls")
                ):
                    continue
                yield Violation(
                    code="RPL015",
                    message=(
                        "epoch written outside the control plane — only "
                        "repro.control.apply_control bumps a monitor's "
                        "epoch (and repro.core.monitor restores its own); "
                        "an unjournaled epoch diverges from recovery"
                    ),
                    path=source.path,
                    line=element.lineno,
                    col=element.col_offset,
                )


# -- direct mutator calls -------------------------------------------------


def _is_self_call(receiver: ast.expr) -> bool:
    return isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")


def _check_direct_calls(source: SourceFile) -> Iterator[Violation]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            continue
        if _is_self_call(func.value):
            # ``self.add_place`` is the enclosing class's own method —
            # the mutator *classes* all live in the allowed packages.
            continue
        yield Violation(
            code="RPL015",
            message=(
                f"place-catalog mutation '{func.attr}' outside "
                "repro.storage / repro.control — route it through a "
                "journaled control event (repro.control.PlaceAdded / "
                "PlaceRemoved / PlaceReweighted) so the epoch, journal "
                "and recovery see the same world"
            ),
            path=source.path,
            line=node.lineno,
            col=node.col_offset,
        )


# -- aliased mutator calls (flow-aware) -----------------------------------


def _alias_bindings(node: ast.AST) -> dict[str, str | None]:
    """Name -> mutator it binds (or ``None`` for a clearing rebind)."""
    bindings: dict[str, str | None] = {}
    for root in scan_roots(node):
        for sub in ast.walk(root):
            if not isinstance(sub, ast.Assign):
                continue
            value = sub.value
            bound = (
                value.attr
                if isinstance(value, ast.Attribute)
                and value.attr in _MUTATORS
                and not _is_self_call(value.value)
                else None
            )
            for target in sub.targets:
                elements = (
                    target.elts
                    if isinstance(target, ast.Tuple)
                    else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Name):
                        # tuple targets bind from an iterable, never a
                        # bare bound method — treat as clearing.
                        bindings[element.id] = (
                            bound
                            if element is target
                            else None
                        )
    return bindings


def _called_names(node: ast.AST) -> list[tuple[str, ast.Call]]:
    calls: list[tuple[str, ast.Call]] = []
    for root in scan_roots(node):
        for sub in ast.walk(root):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                calls.append((sub.func.id, sub))
    return calls


def _check_aliased_calls(
    source: SourceFile, cfg: CFG
) -> Iterator[Violation]:
    # cheap pre-filter: no block ever binds a mutator -> nothing to track.
    tracked: set[str] = set()
    for block in cfg.statement_blocks():
        if block.node is None:
            continue
        for name, bound in _alias_bindings(block.node).items():
            if bound is not None:
                tracked.add(name)
    if not tracked:
        return

    def transfer(block: Block, state: FlagState) -> FlagState:
        if block.node is None:
            return state
        bindings = _alias_bindings(block.node)
        if not bindings:
            return state
        updated = dict(state)
        for name, bound in bindings.items():
            if name in tracked:
                updated[name] = frozenset(
                    {_BOUND if bound is not None else _UNBOUND}
                )
        return updated

    in_states = solve_forward(
        cfg, _LATTICE.initial(sorted(tracked)), transfer, _LATTICE.join
    )
    for block in cfg.statement_blocks():
        if block.node is None:
            continue
        state = in_states.get(block.block_id, BOTTOM)
        if state is BOTTOM or not isinstance(state, dict):
            continue
        # the binding statement itself may both bind and call; apply the
        # block's own bindings before judging its calls.
        state = transfer(block, state)
        for name, call in _called_names(block.node):
            if name in tracked and _BOUND in _LATTICE.read(state, name):
                yield Violation(
                    code="RPL015",
                    message=(
                        f"call through '{name}', a local alias of a "
                        "place-catalog mutator, outside repro.storage / "
                        "repro.control — aliasing does not lift the "
                        "write fence; route the change through a "
                        "journaled control event"
                    ),
                    path=source.path,
                    line=call.lineno,
                    col=call.col_offset,
                )
