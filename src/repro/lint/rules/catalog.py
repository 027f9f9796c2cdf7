"""RPL015 — catalog & epoch discipline (the control plane's write fence).

The place catalog and the reconfiguration epoch are control-plane state
(see :mod:`repro.control`): every mutation must flow through a journaled
control event, or recovery replays a different world than the live run
saw. Concretely:

* ``add_place`` / ``remove_place`` / ``reweight`` — the
  :class:`~repro.storage.placestore.PlaceStore` write surface — are
  only named inside ``repro.storage`` (the owner) and
  ``repro.control`` (the sanctioned entry point). Anywhere else a call
  bypasses epoch accounting and the journal.
* ``<monitor>.epoch`` is written only by ``repro.control`` (the bump in
  ``apply_control``) and ``repro.core.monitor`` (init / restore on
  ``self``).

The mutator check is a reference check: naming a mutator outside the
owners is a finding whether or not the name is called there, so the
write cannot hide behind an alias (``write = store.add_place``) either.
Intentional exceptions carry a reasoned suppression
(``# reprolint: disable=RPL015 -- why``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

#: the PlaceStore write surface.
_MUTATORS = frozenset({"add_place", "remove_place", "reweight"})
#: packages allowed to name it.
_MUTATION_OWNERS = ("repro.storage", "repro.control")
#: packages allowed to write ``.epoch`` (core.monitor only on ``self``:
#: construction and snapshot restore).
_EPOCH_OWNER = "repro.control"
_EPOCH_SELF_OWNER = "repro.core.monitor"


@rule(
    "RPL015",
    "catalog-epoch-discipline",
    "place-catalog mutations (add_place/remove_place/reweight) and "
    "epoch writes only happen via repro.storage / repro.control entry "
    "points; outside them a mutator is not even named",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    yield from _check_epoch_writes(source)
    if source.in_packages(*_MUTATION_OWNERS):
        return
    yield from _check_mutator_references(source)


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


# -- mutator references ---------------------------------------------------


def _check_mutator_references(source: SourceFile) -> Iterator[Violation]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Attribute) or node.attr not in _MUTATORS:
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            # ``self.add_place`` is the enclosing class's own method —
            # the mutator *classes* all live in the allowed packages.
            continue
        yield Violation(
            code="RPL015",
            message=(
                f"place-catalog mutator '{node.attr}' named outside "
                "repro.storage / repro.control (called or aliased) — "
                "route the change through a journaled control event "
                "(repro.control.PlaceAdded / PlaceRemoved / "
                "PlaceReweighted) so the epoch, journal and recovery see "
                "the same world"
            ),
            path=source.path,
            line=node.lineno,
            col=node.col_offset,
        )
