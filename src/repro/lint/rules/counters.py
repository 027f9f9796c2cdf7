"""RPL002 — counter discipline (paper §II-A I/O accounting).

The work and I/O counters are the measured quantities of the
reproduction; their meaning depends on *who* is allowed to bump them.
``IoStats`` belongs to the storage layer (a page read that is counted
anywhere else is a fabricated measurement), the stream fields of
``MonitorCounters`` belong to the ``CTUPMonitor`` lifecycle methods,
``UnitKernelStats`` to the unit index, ``MergeStats`` to the merger —
and nothing outside ``repro.storage`` may reach into ``PlaceStore``'s
page internals, because that is exactly how a read bypasses the
``IoStats`` charge.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

#: counter field -> (owning module prefixes, owner description).
_FIELD_OWNERS: dict[str, tuple[tuple[str, ...], str]] = {}


def _own(fields: tuple[str, ...], owners: tuple[str, ...], label: str) -> None:
    for field in fields:
        _FIELD_OWNERS[field] = (owners, label)


_own(
    ("page_reads", "buffered_reads", "page_writes", "array_hits"),
    ("repro.storage",),
    "IoStats (owned by repro.storage)",
)
_own(
    ("updates_processed", "maintained_peak"),
    ("repro.core.monitor", "repro.core.metrics"),
    "MonitorCounters stream fields (owned by the CTUPMonitor lifecycle "
    "in repro.core.monitor)",
)
_own(
    ("candidate_units", "reachable_units"),
    ("repro.core.units",),
    "UnitKernelStats (owned by repro.core.units)",
)
#: shared by UnitKernelStats (chain applies in repro.core.units) and
#: MonitorCounters (burst accounting in CTUPMonitor.apply_burst) — both
#: count raw updates skipped by exact move coalescing.
_own(
    ("coalesced_updates",),
    ("repro.core.monitor", "repro.core.metrics", "repro.core.units"),
    "coalescing counters (owned by CTUPMonitor.apply_burst and the "
    "UnitIndex chain applies)",
)
_own(
    ("shards_queried", "refills", "records_pulled"),
    ("repro.shard.merge",),
    "MergeStats (owned by repro.shard.merge)",
)
#: per-scheme work counters: any monitor implementation may bump them.
_own(
    (
        "cells_accessed",
        "places_loaded",
        "lb_decrements",
        "lb_increments",
        "doo_suppressed",
        "dechash_inserts",
        "dechash_removes",
        "cells_darkened",
        "distance_rows",
        "maintained_scans",
    ),
    ("repro.core", "repro.shard"),
    "MonitorCounters work fields (owned by the monitor implementations)",
)

#: PlaceStore internals whose use outside the storage layer bypasses
#: the IoStats charging path.
_STORE_INTERNALS = frozenset(
    {"_pages", "_buffer", "_array_cache", "_cell_pages", "_columns"}
)
_STORAGE_OWNERS = ("repro.storage",)


@rule(
    "RPL002",
    "counter-discipline",
    "IoStats / MonitorCounters / UnitKernelStats fields are mutated "
    "only by their owning modules; no PlaceStore page access bypasses "
    "IoStats charging",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.AugAssign):
            yield from _check_target(source, node.target)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _check_target(source, target)
        elif isinstance(node, ast.Attribute):
            yield from _check_internal_access(source, node)


def _check_target(source: SourceFile, target: ast.expr) -> Iterator[Violation]:
    if isinstance(target, ast.Tuple):
        for element in target.elts:
            yield from _check_target(source, element)
        return
    if not isinstance(target, ast.Attribute):
        return
    receiver = target.value
    if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
        # ``self.updates_processed`` is the enclosing class's own
        # attribute; the owned counter *objects* are always reached
        # through a field or variable (``self.counters.x``, ``stats.x``).
        return
    owned = _FIELD_OWNERS.get(target.attr)
    if owned is None:
        return
    owners, label = owned
    if source.in_packages(*owners):
        return
    yield Violation(
        code="RPL002",
        message=(
            f"direct mutation of counter field '{target.attr}' outside "
            f"its owning module — {label}; go through the owner's API "
            "so the accounting stays trustworthy"
        ),
        path=source.path,
        line=target.lineno,
        col=target.col_offset,
    )


def _check_internal_access(
    source: SourceFile, node: ast.Attribute
) -> Iterator[Violation]:
    if node.attr not in _STORE_INTERNALS:
        return
    if source.in_packages(*_STORAGE_OWNERS):
        return
    receiver = node.value
    if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
        return
    yield Violation(
        code="RPL002",
        message=(
            f"access to storage internal '{node.attr}' outside "
            "repro.storage — page reads that bypass PlaceStore's public "
            "surface are not charged to IoStats (paper §II-A accounting)"
        ),
        path=source.path,
        line=node.lineno,
        col=node.col_offset,
    )
