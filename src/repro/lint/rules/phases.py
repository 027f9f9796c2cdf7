"""RPL014 — phase-protocol ordering over the project call graph.

The paper's monitor contract is two-phase: the *maintain* phase
(``apply_update`` / ``apply_burst`` -> ``_apply`` / ``_apply_burst``)
mutates grid counters and scheme state; the *access* phase
(``refresh`` -> ``_refresh``, ``top_k``, ``sk``) reads it. Timing,
counter ownership, and the paper's correctness argument (access sees
the state as of the last maintained update) all assume the phases
never interleave — an access-phase helper that reaches a maintain
mutator bills maintain work to the access ledger and mutates state
readers assume frozen.

A per-file rule cannot see this: the crossing usually happens two
calls deep. This rule walks the project call graph from every
access-phase entry of every monitor class and flags the first
maintain-phase call on each path, at the call site (so a deliberate
crossing — the sharded monitor's refresh-time drain is one — gets a
reasoned suppression exactly where the design decision lives).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.callgraph import CallGraph, FunctionSummary
from repro.lint.registry import Violation, rule

#: access-phase entry points on monitor classes.
ACCESS_ENTRIES = frozenset({"_refresh", "top_k", "sk", "partial_top_k"})

#: maintain-phase mutators; calling one *from* the access phase is the
#: violation. Functions with these names are themselves skipped — once
#: inside the maintain phase, maintain calls are the contract.
MAINTAIN_SINKS = frozenset(
    {"_apply", "_apply_burst", "apply_update", "apply_burst"}
)

#: the monitor-layer modules the access-phase walk stays inside.
#: Observability (RPL010 polices that boundary), persistence, and the
#: bench/sim harnesses are separate layers — name-based resolution
#: through them drags driver code into the access set.
WALK_SCOPES = (
    "repro.core",
    "repro.shard",
    "repro.index",
    "repro.grid",
    "repro.storage",
)


@rule(
    "RPL014",
    "phase-protocol",
    "no access-phase helper (reachable from _refresh/top_k/sk) may call "
    "a maintain-phase mutator (apply_update/_apply/...)",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages("repro"):
        return
    monitor_family = _monitor_family(project)
    if not monitor_family:
        return
    graph = project.callgraph
    entries = [
        summary
        for summary in graph
        if summary.name in ACCESS_ENTRIES
        and summary.class_name in monitor_family
    ]
    if not entries:
        return
    origin = _access_reachable(graph, entries)
    for summary in project.functions:
        if summary.path != source.path:
            continue
        if summary.key not in origin:
            continue
        if summary.name in MAINTAIN_SINKS:
            continue  # already on the maintain side; its calls are fine
        entry_key = origin[summary.key]
        reported: set[tuple[int, str]] = set()
        for site in summary.calls:
            if site.callee not in MAINTAIN_SINKS:
                continue
            marker = (site.line, site.callee)
            if marker in reported:
                continue
            reported.add(marker)
            receiver = f"{site.receiver}." if site.receiver else ""
            yield Violation(
                code="RPL014",
                message=(
                    f"maintain-phase mutator '{receiver}{site.callee}()' "
                    f"called from '{summary.qualname}', which is "
                    "reachable from access-phase entry "
                    f"'{entry_key[1]}' — the access phase must not "
                    "mutate monitor state (two-phase contract); move "
                    "the work into the maintain phase, or suppress "
                    "with the design reason if the crossing is the "
                    "scheme's documented behaviour"
                ),
                path=source.path,
                line=site.line,
                col=site.col,
            )


def _access_reachable(
    graph: "CallGraph", entries: list["FunctionSummary"]
) -> dict[tuple[str, str], tuple[str, str]]:
    """Reachability that stops at maintain sinks.

    Unlike :meth:`CallGraph.reachable_from`, the walk does not expand
    *through* a function named like a maintain mutator: entering it is
    the violation (flagged at the call site), and everything past it is
    the maintain phase running under its own contract — following it
    would drag the whole maintain implementation (and whatever the obs
    hooks over-approximately resolve to) into the access-phase set.
    """
    origin: dict[tuple[str, str], tuple[str, str]] = {}
    queue: deque[FunctionSummary] = deque()
    for entry in entries:
        if entry.key not in origin:
            origin[entry.key] = entry.key
            queue.append(entry)
    while queue:
        current = queue.popleft()
        for site in current.calls:
            for target in graph.resolve(current, site):
                if (
                    target.key in origin
                    or target.name in MAINTAIN_SINKS
                    or not _in_walk_scope(target.module)
                ):
                    continue
                origin[target.key] = origin[current.key]
                queue.append(target)
    return origin


def _in_walk_scope(module: str) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in WALK_SCOPES
    )


def _monitor_family(project: ProjectIndex) -> frozenset[str]:
    """CTUPMonitor and every known subclass."""
    names = {
        info.name
        for info in project.monitor_classes()
    }
    if "CTUPMonitor" in project.classes:
        names.add("CTUPMonitor")
    return frozenset(names)
