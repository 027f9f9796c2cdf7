"""Access-band invariant: every cell access keeps exactly the Δ band.

When OptCTUP accesses a cell, the cell's maintained rows must be exactly
its places with ``safety < SK + Δ`` or ``safety <= SK``, and the cell's
bound must be the minimum safety of the rest (``+inf`` when nothing was
dropped). The accessed cells of each ``refresh()`` are spotted by their
``CellState.access_count`` rising; the truth comes from
:class:`repro.validate.Oracle`. The matrix covers single updates and
bursts of 32, monolithic and 4 shards.
"""

from __future__ import annotations

import math

import pytest

from repro.api import ShardSpec, make_monitor
from repro.core import CTUPConfig, OptCTUP
from repro.core.batch import coalesce_burst
from repro.validate import Oracle
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)

PLACES = generate_places(600, seed=11)


def _leaves(monitor) -> list[OptCTUP]:
    """The monitors that own cell states: the shards, or the monitor."""
    shards = getattr(monitor, "shards", None)
    if shards is None:
        return [monitor]
    return [shard.monitor for shard in shards]


def _record_access_sk(leaf: OptCTUP, log: dict) -> None:
    """Log, per accessed cell, the SK its access left behind.

    Within one refresh no unit moves and SK only falls, so a later
    access may lower SK below the one a band was cut at; the band is
    checked against the SK of its own access.
    """
    access = leaf._access_cell

    def logged(cell) -> None:
        access(cell)
        log[cell] = leaf.sk()

    leaf._access_cell = logged


def _check_bands(leaf: OptCTUP, before: dict, sks: dict, truth: dict) -> int:
    """Assert the band invariant on each cell accessed since ``before``."""
    delta = leaf.config.delta
    maintained = leaf.maintained
    checked = 0
    for cell, state in leaf.cell_states.items():
        if state.access_count == before.get(cell, 0):
            continue
        sk = sks[cell]
        linear = leaf.grid.linear(cell)
        kept: set[int] = set()
        rest = math.inf
        for place in leaf.store.read_cell(cell):
            safety = truth[place.place_id]
            if safety < sk + delta or safety <= sk:
                kept.add(place.place_id)
            else:
                rest = min(rest, safety)
        assert {
            pid for pid, _, owner in maintained.export_rows() if owner == linear
        } == kept
        for pid in kept:
            assert maintained.safety_of(pid) == truth[pid]
        assert state.lower_bound == rest, cell
        checked += 1
    return checked


@pytest.mark.parametrize("shards", [0, 4], ids=["mono", "s4"])
@pytest.mark.parametrize("burst", [1, 32])
@pytest.mark.parametrize("scheme", ["opt"])
@pytest.mark.parametrize("delta", [0, 3])
def test_access_keeps_exactly_the_delta_band(scheme, burst, shards, delta):
    config = CTUPConfig(k=5, delta=delta, protection_range=0.1, granularity=8)
    units = generate_units(30, config.protection_range, seed=12)
    stream = record_stream(RandomWalkMobility(units, step=0.03, seed=13), 256)
    oracle = Oracle(PLACES, units)
    monitor = make_monitor(
        scheme,
        places=PLACES,
        units=units,
        config=config,
        shard=ShardSpec(shards=shards) if shards else None,
    )
    monitor.initialize()
    leaves = _leaves(monitor)
    sks: list[dict] = [{} for _ in leaves]
    for leaf, log in zip(leaves, sks):
        _record_access_sk(leaf, log)

    checked = 0
    for start in range(0, len(stream), burst):
        chunk = stream[start : start + burst]
        before = [
            {cell: state.access_count for cell, state in leaf.cell_states.items()}
            for leaf in leaves
        ]
        if burst == 1:
            monitor.apply_update(chunk[0])
        else:
            monitor.apply_burst(coalesce_burst(chunk))
        for update in chunk:
            oracle.apply(update)
        if not monitor.refresh():
            continue
        truth = oracle.safeties()
        for leaf, seen, log in zip(leaves, before, sks):
            checked += _check_bands(leaf, seen, log, truth)
            local = sorted(
                truth[p.place_id] for p in leaf.store.iter_all_places()
            )
            assert leaf.sk() == (
                local[config.k - 1] if len(local) >= config.k else math.inf
            )
    assert checked > 0
