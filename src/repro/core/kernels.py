"""Multi-unit burst maintain kernels (the burst execution engine).

The kernels are the only way BasicCTUP and OptCTUP run a coalesced
burst: :func:`apply_burst_basic` / :func:`apply_burst_opt` are their
maintain phase. What they batch is the part of maintenance that
telescopes over a chain, so only its endpoints matter:

* unit positions move through ``UnitIndex.apply_moves`` (one vectorised
  write plus one re-bucket);
* the maintained table absorbs every chain's endpoint move in one
  ``(rows, moves)`` broadcast (:func:`_maintained_endpoint_pass`)
  instead of one ``MaintainedPlaces.apply_unit_move`` scan per move.

Table I/II bound maintenance does not telescope (``P→P`` decreases, so
a ``P→P→P`` chain decreases twice, and DecHash toggles on every
crossing). :func:`repro.core.batch.replay_chain_steps` replays it one
chain step at a time through the scheme's own ``_adjust_bounds``, the
call per-update processing makes. Each step classifies a handful of
cells in plain floats (:class:`repro.grid.partition.CircleStencil`):
on blocks of at most 5×5 cells numpy's per-call cost outweighs the
arithmetic, so classifying a whole burst in one broadcast measured
slower than the per-step scalar replay. The access phase that follows
is the schemes' ordinary :func:`repro.grid.cellstate.access_below_sk`.

Everything is bit-identical to replaying the burst one update at a
time (``apply_update`` per raw update, then one ``refresh()``): final
bounds, maintained safeties, DecHash contents, top-k, SK and every
logical counter outside the skipped work that coalescing reports
(``coalesced_updates``, the interior maintained scans).

This module is covered by reprolint rule RPL009: ``for``/``while``
statements iterating ``range``/``zip``/``enumerate``/``map`` are
flagged so the batched passes stay batched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.batch import replay_chain_steps
from repro.model import CoalescedMove, Point

if TYPE_CHECKING:
    from repro.core.basic import BasicCTUP
    from repro.core.opt import OptCTUP


def _maintained_endpoint_pass(
    monitor: "BasicCTUP | OptCTUP",
    moves: Sequence[CoalescedMove],
    olds: Sequence[Point],
) -> None:
    """Step 1 for the whole burst: one batched maintained-table scan."""
    old_x = np.array([p.x for p in olds], dtype=np.float64)
    old_y = np.array([p.y for p in olds], dtype=np.float64)
    new_x = np.array([m.last_new.x for m in moves], dtype=np.float64)
    new_y = np.array([m.last_new.y for m in moves], dtype=np.float64)
    rows = monitor.maintained.apply_unit_moves(
        old_x, old_y, new_x, new_y, monitor.config.protection_range
    )
    scanned = rows * len(moves)
    monitor.counters.maintained_scans += scanned
    # two point-in-disk tests (old and new endpoint) per scanned row.
    monitor.counters.distance_rows += 2 * scanned


def _burst(monitor: "BasicCTUP | OptCTUP", moves: Sequence[CoalescedMove]) -> int:
    olds = monitor.units.apply_moves(moves)
    _maintained_endpoint_pass(monitor, moves, olds)
    replay_chain_steps(monitor, moves, olds)
    return sum(m.raw_count for m in moves) - len(moves)


def apply_burst_basic(
    monitor: "BasicCTUP", moves: Sequence[CoalescedMove]
) -> int:
    """BasicCTUP's maintain phase for one coalesced burst (Table I).

    Returns the raw updates skipped by coalescing (chain length minus
    one per chain), which ``apply_burst`` reports as
    ``coalesced_updates``. Observability wraps the whole pass in one
    span (RPL010: instrumentation only at pass boundaries, never inside
    the per-step loop).
    """
    obs = monitor.obs
    if obs is None:
        return _burst(monitor, moves)
    with obs.tracer.span("kernel.burst_basic", cat="kernel", moves=len(moves)):
        return _burst(monitor, moves)


def apply_burst_opt(monitor: "OptCTUP", moves: Sequence[CoalescedMove]) -> int:
    """OptCTUP's maintain phase for one coalesced burst (Table II, or
    Table I with DOO disabled — the Fig. 8 ablation). Same return value
    and span rule as :func:`apply_burst_basic`.
    """
    obs = monitor.obs
    if obs is None:
        return _burst(monitor, moves)
    with obs.tracer.span("kernel.burst_opt", cat="kernel", moves=len(moves)):
        return _burst(monitor, moves)
