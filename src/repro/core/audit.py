"""Invariant auditing for the grid monitors.

The schemes' correctness rests on a handful of invariants (dark-cell
bounds never exceed the true minimum, maintained safeties are exact,
every top-k place is tracked). :func:`audit_monitor` checks them against
a brute-force recomputation and returns human-readable violations — an
empty list means the monitor's state is sound.

This is test infrastructure promoted to a public API: a deployment can
run it periodically (it costs one full safety recomputation) as a
self-check, and bug reports can attach its output.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.basic import BasicCTUP
from repro.core.monitor import CTUPMonitor
from repro.core.opt import OptCTUP
from repro.storage.placestore import CellArrays
from repro.validate import Oracle


def audit_monitor(monitor: CTUPMonitor) -> list[str]:
    """All invariant violations of a monitor's current state."""
    # local import: repro.shard builds on repro.core, not the reverse.
    from repro.shard.monitor import ShardedMonitor

    oracle = Oracle(
        list(monitor.store.iter_all_places()), list(monitor.units)
    )
    problems: list[str] = []
    problems.extend(_audit_result(monitor, oracle))
    if isinstance(monitor, ShardedMonitor):
        # the global result was checked above against the full oracle;
        # every shard is additionally a complete monitor over its own
        # sub-population and must satisfy its scheme's invariants.
        for shard in monitor.shards:
            problems.extend(
                f"shard[{shard.shard_id}]: {problem}"
                for problem in audit_monitor(shard.monitor)
            )
    elif isinstance(monitor, OptCTUP):
        problems.extend(_audit_opt(monitor, oracle))
    elif isinstance(monitor, BasicCTUP):
        problems.extend(_audit_basic(monitor, oracle))
    return problems


def _audit_result(monitor: CTUPMonitor, oracle: Oracle) -> list[str]:
    verdict = oracle.validate(monitor.top_k(), monitor.config.k)
    return [f"result: {problem}" for problem in verdict.problems]


def _cell_minima(
    monitor: CTUPMonitor, truth: dict[int, float], exclude: set[int]
) -> dict[tuple[int, int], float]:
    minima: dict[tuple[int, int], float] = {}
    for place in monitor.store.iter_all_places():
        if place.place_id in exclude:
            continue
        cell = monitor.grid.cell_of(place.location)
        value = truth[place.place_id]
        minima[cell] = min(minima.get(cell, math.inf), value)
    return minima


def _audit_basic(monitor: BasicCTUP, oracle: Oracle) -> list[str]:
    problems = []
    truth = oracle.safeties()
    maintained = monitor.maintained.safeties_snapshot()
    minima = _cell_minima(monitor, truth, exclude=set())
    for cell, state in monitor.cell_states.items():
        if state.illuminated:
            continue
        if state.lower_bound > minima.get(cell, math.inf) + 1e-9:
            problems.append(
                f"basic: dark cell {cell} bound {state.lower_bound} exceeds "
                f"true minimum {minima.get(cell)}"
            )
    for pid, safety in maintained.items():
        if truth[pid] != safety:
            problems.append(
                f"basic: maintained place {pid} has stale safety "
                f"{safety} (true {truth[pid]})"
            )
    return problems


def _audit_opt(monitor: OptCTUP, oracle: Oracle) -> list[str]:
    problems = []
    truth = oracle.safeties()
    maintained = monitor.maintained.safeties_snapshot()
    for pid, safety in maintained.items():
        if truth[pid] != safety:
            problems.append(
                f"opt: maintained place {pid} has stale safety "
                f"{safety} (true {truth[pid]})"
            )
    minima = _cell_minima(monitor, truth, exclude=set(maintained))
    for cell, state in monitor.cell_states.items():
        if state.lower_bound > minima.get(cell, math.inf) + 1e-9:
            problems.append(
                f"opt: cell {cell} bound {state.lower_bound} exceeds the "
                f"minimum non-maintained safety {minima.get(cell)}"
            )
    sk = oracle.sk(monitor.config.k)
    for pid, value in truth.items():
        if value < sk and pid not in maintained:
            problems.append(
                f"opt: place {pid} (safety {value} < SK {sk}) is not "
                f"maintained"
            )
    problems.extend(_audit_ap_caches(monitor))
    return problems


def _audit_ap_caches(monitor: OptCTUP) -> list[str]:
    """Every cached AP column plus its recorded units' change must equal
    a recount (the unit stats the recounts touch are put back)."""
    problems = []
    units = monitor.units
    stats = units.stats.snapshot()
    try:
        for cell, state in monitor.cell_states.items():
            cache = state.ap
            if cache is None:
                continue
            arrays = CellArrays(monitor.store.peek_cell(cell))
            rect = monitor.grid.cell_rect(cell)
            fresh, _ = units.ap_counts_near(arrays.xs, arrays.ys, rect)
            current = cache.column.astype(np.int64)
            if cache.moved:
                current += cache.change(units, arrays, rect)[0]
            wrong = int(np.count_nonzero(current != fresh))
            if wrong:
                problems.append(
                    f"opt: cell {cell} cached AP plus its recorded moves "
                    f"differs from a recount at {wrong} of "
                    f"{len(arrays)} places"
                )
    finally:
        units.stats.restore(stats)
    return problems
