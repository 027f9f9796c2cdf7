"""Vectorized multi-unit maintain kernels (the burst execution engine).

Per-update maintenance runs a dozen tiny numpy calls per move — stencil
classification, maintained-table scan, bound adjustment — and at burst
sizes in the tens the *call overhead* dominates the arithmetic. The
kernels here batch one whole coalesced burst per pass, and they are the
only way BasicCTUP and OptCTUP run a burst:
:func:`apply_burst_basic` / :func:`apply_burst_opt` are their maintain
phase. Unit positions move through ``UnitIndex.apply_moves`` (one
vectorised write + re-bucket), the maintained table absorbs all
endpoint moves in one ``(rows, moves)`` broadcast, and cell bounds are
updated from one N/P/F classification of *all* waypoint disks against
their candidate blocks at once. The access phase that follows is the
schemes' ordinary :func:`repro.grid.cellstate.access_below_sk`.

Everything is bit-identical to replaying the burst one update at a
time (``apply_update`` per raw update, then one ``refresh()``): final
bounds, maintained safeties, DecHash contents, top-k, SK and every
logical counter outside the skipped work that coalescing reports
(``coalesced_updates``, the interior maintained scans). The only
structural liberty taken is *folding* the per-step Table I/II
transitions after classification: chain steps whose table entry is a
complete no-op (``N→N``, ``N→P``, ``F→F``; for Table I also ``P→F``)
touch neither bounds, hash nor counters in per-update processing and
are dropped before the fold, and Table I's remaining ±1 deltas are
summed per cell (integer-valued float adds are exact, and per-step
counter bumps equal the per-cell positive/negative step counts).

A burst of one narrow chain pays the numpy setup for little work (an
old profile measured about 2x the per-update cost for a one-chain
burst), but there is deliberately no width threshold that falls back to
a scalar fold: no benchmark workload sits on that side of the choice,
so a second path would not pay for itself.

This module is covered by reprolint rule RPL009: ``for``/``while``
statements iterating ``range``/``zip``/``enumerate``/``map`` — the
shape of a per-element scalar loop — are flagged so the vectorised
paths stay vectorised. The few irreducibly scalar tails (dict-backed
cell-state application, the stateful DecHash fold) carry explicit
suppressions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.tables import (
    HASH_INSERT,
    HASH_NONE,
    HASH_REMOVE,
    TABLE1,
    TABLE2_UNCONDITIONAL,
    table2_action,
)
from repro.geometry.relations import CellRelation
from repro.grid.partition import RELATION_OF_CODE, CircleStencil, GridPartition
from repro.model import CoalescedMove, Point

if TYPE_CHECKING:
    from repro.core.basic import BasicCTUP
    from repro.core.opt import OptCTUP

_CODE_OF_REL = {rel: code for code, rel in RELATION_OF_CODE.items()}
_N = _CODE_OF_REL[CellRelation.NO_INTERSECT]

#: Table I delta per packed transition code ``old * 3 + new``.
_TABLE1_LUT = np.zeros(9, dtype=np.int64)
for _rels, _delta in TABLE1.items():
    _TABLE1_LUT[_CODE_OF_REL[_rels[0]] * 3 + _CODE_OF_REL[_rels[1]]] = _delta

#: decoded (old, new) relation pair per packed transition code.
_RELS_OF_PACKED = [
    (RELATION_OF_CODE[code // 3], RELATION_OF_CODE[code % 3])
    for code in range(9)
]

#: packed codes whose Table II row can touch state or counters; the
#: complement (``N→N``, ``N→P``, ``F→F``) is unconditionally
#: ``(delta 0, no hash action)`` and never trips the DOO-suppression
#: counter (its Table I delta is 0 too), so dropping it from the fold is
#: exact.
_TABLE2_EFFECTIVE = np.array(
    [
        TABLE2_UNCONDITIONAL.get(rels) != (0, HASH_NONE)
        for rels in _RELS_OF_PACKED
    ],
    dtype=bool,
)

#: Table I deltas as a plain list — python-loop lookups in the DOO fold
#: skip the numpy scalar boxing.
_TABLE1_DELTAS = _TABLE1_LUT.tolist()

_ACT_NONE, _ACT_INSERT, _ACT_REMOVE = 0, 1, 2
_ACTION_CODE = {HASH_NONE: _ACT_NONE, HASH_INSERT: _ACT_INSERT, HASH_REMOVE: _ACT_REMOVE}


def _encode_action(entry: tuple[int, str]) -> tuple[int, int]:
    return entry[0], _ACTION_CODE[entry[1]]


#: Table II ``(delta, action)`` rows indexed ``[pair_in_hash][packed
#: code]`` — the whole conditional table as integer tuples, so the fold
#: below never touches enum-keyed dicts.
_TABLE2_LUT: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        _encode_action(table2_action(old, new, in_hash))
        for old, new in _RELS_OF_PACKED
    )
    for in_hash in (False, True)
)


# -- shared passes ----------------------------------------------------------


def _chain_groups(
    grid: GridPartition,
    stencil: CircleStencil,
    moves: Sequence[CoalescedMove],
    olds: Sequence[Point],
) -> Iterator[
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
]:
    """Classify every chain's waypoint disks, grouped by waypoint count.

    Yields ``(unit_ids, i_lo, j_lo, rel_old, rel_new)`` per group: the
    ``(G, p - 1, bi, bj)`` relation codes of each chain step's old and
    new disk against the chain's *union* candidate block (anchored at
    ``(i_lo[g], j_lo[g])``, padded to the group's max block shape).

    Each step is scoped exactly like :meth:`CircleStencil.classify_move`
    scopes one update: when the two waypoints' candidate blocks touch,
    both disks are classified over their merged block; otherwise each
    disk only over its own block, the other side reading ``N``. Cells
    outside a step's scope (padding included) read ``N → N``. The scope
    matters at block edges: the floor arithmetic of ``block_of`` can
    leave out a cell whose edge the circle meets to within one ulp (a
    unit at ``x = 1.0`` with ``R`` a multiple of the cell width), which
    the distance test alone would call ``P``.
    """
    radius = stencil.radius
    space = grid.space
    by_count: dict[int, list[int]] = {}
    for pos, move in enumerate(moves):  # reprolint: disable=RPL009 -- O(#chains) grouping bookkeeping, not per-element compute
        by_count.setdefault(move.raw_count + 1, []).append(pos)
    for members in by_count.values():
        cx = np.array(
            [
                [olds[pos].x]
                + [raw.new_location.x for raw in moves[pos].raws]
                for pos in members
            ],
            dtype=np.float64,
        )
        cy = np.array(
            [
                [olds[pos].y]
                + [raw.new_location.y for raw in moves[pos].raws]
                for pos in members
            ],
            dtype=np.float64,
        )
        unit_ids = np.array(
            [moves[pos].unit_id for pos in members], dtype=np.int64
        )
        # per-waypoint candidate blocks (i_lo, i_hi, j_lo, j_hi), each
        # (G, p): CircleStencil.block_of's floor arithmetic, clamped to
        # the grid. Their union is the chain's block (floor is monotone).
        blocks = np.floor(
            np.stack(
                [
                    (cx - radius - space.xmin) / grid.cell_width,
                    (cx + radius - space.xmin) / grid.cell_width,
                    (cy - radius - space.ymin) / grid.cell_height,
                    (cy + radius - space.ymin) / grid.cell_height,
                ]
            )
        ).astype(np.int64)
        np.maximum(blocks[0::2], 0, out=blocks[0::2])
        np.minimum(blocks[1], grid.nx - 1, out=blocks[1])
        np.minimum(blocks[3], grid.ny - 1, out=blocks[3])
        i_lo, j_lo = blocks[0].min(axis=1), blocks[2].min(axis=1)
        bi = blocks[1].max(axis=1) - i_lo + 1
        bj = blocks[3].max(axis=1) - j_lo + 1
        live = (bi > 0) & (bj > 0)
        if not live.any():
            continue
        if not live.all():
            cx, cy, unit_ids = cx[live], cy[live], unit_ids[live]
            blocks = blocks[:, live]
            i_lo, j_lo, bi, bj = i_lo[live], j_lo[live], bi[live], bj[live]
        codes = stencil.classify_centers(
            cx, cy, i_lo, j_lo, int(bi.max()), int(bj.max())
        )
        # per-step scopes: each side's own block or, when the two
        # touch, their merged bounding block for both sides.
        old_side, new_side = blocks[:, :, :-1], blocks[:, :, 1:]
        touch = (
            (old_side[0] <= old_side[1]) & (old_side[2] <= old_side[3])
            & (new_side[0] <= new_side[1]) & (new_side[2] <= new_side[3])
            & (old_side[0] <= new_side[1]) & (new_side[0] <= old_side[1])
            & (old_side[2] <= new_side[3]) & (new_side[2] <= old_side[3])
        )
        merged = np.stack(
            [
                np.minimum(old_side[0], new_side[0]),
                np.maximum(old_side[1], new_side[1]),
                np.minimum(old_side[2], new_side[2]),
                np.maximum(old_side[3], new_side[3]),
            ]
        )
        cols = i_lo[:, None] + np.arange(codes.shape[2])
        rows = j_lo[:, None] + np.arange(codes.shape[3])
        rel_old = np.where(
            _in_blocks(cols, rows, np.where(touch, merged, old_side)),
            codes[:, :-1],
            _N,
        )
        rel_new = np.where(
            _in_blocks(cols, rows, np.where(touch, merged, new_side)),
            codes[:, 1:],
            _N,
        )
        yield unit_ids, i_lo, j_lo, rel_old, rel_new


def _in_blocks(
    cols: np.ndarray, rows: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``(G, s, bi, bj)`` membership of each anchored block cell (absolute
    ``cols`` ``(G, bi)`` / ``rows`` ``(G, bj)``) in per-step blocks
    ``bounds = (i_lo, i_hi, j_lo, j_hi)``, each ``(G, s)``."""
    i_lo, i_hi, j_lo, j_hi = (b[..., None] for b in bounds)
    in_i = (cols[:, None, :] >= i_lo) & (cols[:, None, :] <= i_hi)
    in_j = (rows[:, None, :] >= j_lo) & (rows[:, None, :] <= j_hi)
    return in_i[..., :, None] & in_j[..., None, :]


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


def _table1_pass(
    monitor: "BasicCTUP | OptCTUP",
    moves: Sequence[CoalescedMove],
    olds: Sequence[Point],
    skip_illuminated: bool,
) -> None:
    """Fold Table I over every chain and apply per-cell aggregates.

    Per chain step, per-update processing applies a ±1 delta and bumps
    one counter per non-zero delta; summing the deltas (``net``) and
    counting the positive/negative steps (``incs``/``decs``) per cell
    gives bit-identical bounds (integer-valued float adds commute
    exactly, ``inf`` absorbs either way) and counter totals. Cell
    eligibility (unknown cell, illuminated cell) is constant during the
    maintain phase, so filtering once per cell equals the per-update
    filter.
    """
    grid = monitor.grid
    stencil = grid.stencil(monitor.config.protection_range)
    ny = grid.ny
    lin_parts: list[np.ndarray] = []
    net_parts: list[np.ndarray] = []
    inc_parts: list[np.ndarray] = []
    dec_parts: list[np.ndarray] = []
    for _unit_ids, i_lo, j_lo, rel_old, rel_new in _chain_groups(
        grid, stencil, moves, olds
    ):
        deltas = _TABLE1_LUT[rel_old * 3 + rel_new]
        net = deltas.sum(axis=1)
        incs = np.count_nonzero(deltas > 0, axis=1)
        decs = np.count_nonzero(deltas < 0, axis=1)
        touched = (incs + decs) > 0
        g_idx, a_idx, b_idx = np.nonzero(touched)
        if len(g_idx) == 0:
            continue
        lin_parts.append((i_lo[g_idx] + a_idx) * ny + (j_lo[g_idx] + b_idx))
        net_parts.append(net[g_idx, a_idx, b_idx])
        inc_parts.append(incs[g_idx, a_idx, b_idx])
        dec_parts.append(decs[g_idx, a_idx, b_idx])
    if not lin_parts:
        return
    lin = np.concatenate(lin_parts)
    uniq, inverse = np.unique(lin, return_inverse=True)
    k = len(uniq)
    net_sum = np.bincount(
        inverse, weights=np.concatenate(net_parts).astype(np.float64), minlength=k
    ).astype(np.int64)
    inc_sum = np.bincount(
        inverse, weights=np.concatenate(inc_parts).astype(np.float64), minlength=k
    ).astype(np.int64)
    dec_sum = np.bincount(
        inverse, weights=np.concatenate(dec_parts).astype(np.float64), minlength=k
    ).astype(np.int64)
    states = monitor.cell_states
    counters = monitor.counters
    for cell_lin, d_net, n_inc, n_dec in zip(  # reprolint: disable=RPL009 -- dict-backed cell-state application; the burst is already reduced to unique touched cells
        uniq.tolist(), net_sum.tolist(), inc_sum.tolist(), dec_sum.tolist()
    ):
        state = states.get((cell_lin // ny, cell_lin % ny))
        if state is None or (skip_illuminated and state.illuminated):
            continue
        if d_net:
            state.lower_bound += float(d_net)
        counters.lb_increments += n_inc
        counters.lb_decrements += n_dec


def _table2_pass(
    monitor: "OptCTUP",
    moves: Sequence[CoalescedMove],
    olds: Sequence[Point],
) -> None:
    """Classify every chain in one pass, then fold Table II per entry.

    Unlike Table I, the DOO rows are path-dependent (a decrease arms the
    hash against further decreases until an ``→F`` transition clears
    it), so the per-``(unit, cell)`` fold replays the effective chain
    steps in order. The fold is *local*: a burst carries one chain per
    unit, so each ``(unit, cell)`` DecHash key is owned by exactly one
    entry and nothing else reads it mid-burst — membership is fetched
    once, folded as a plain bool through the integer-encoded Table II
    rows (:data:`_TABLE2_LUT`), and the dict is mutated only when the
    final membership differs from the initial one. Counters still count
    every insert/remove/suppression per-update processing would make,
    and the per-entry bound deltas sum exactly (integer-valued float
    adds, ``inf`` absorbs). Entry order across distinct ``(unit, cell)`` pairs is
    irrelevant — bounds add exactly, the hash is keyed per pair — while
    within an entry chain order is preserved.
    """
    grid = monitor.grid
    stencil = grid.stencil(monitor.config.protection_range)
    ny = grid.ny
    states = monitor.cell_states
    dechash = monitor.dechash
    counters = monitor.counters
    t2 = _TABLE2_LUT
    t1 = _TABLE1_DELTAS
    for unit_ids, i_lo, j_lo, rel_old, rel_new in _chain_groups(
        grid, stencil, moves, olds
    ):
        packed = rel_old * 3 + rel_new
        eff = _TABLE2_EFFECTIVE[packed]
        touched = eff.any(axis=1)
        g_idx, a_idx, b_idx = np.nonzero(touched)
        if len(g_idx) == 0:
            continue
        lins = ((i_lo[g_idx] + a_idx) * ny + (j_lo[g_idx] + b_idx)).tolist()
        uids = unit_ids[g_idx].tolist()
        # advanced indexing with a mid slice puts the entry axis first:
        # (n_entries, chain steps) packed codes / effectiveness flags.
        entry_codes = packed[g_idx, :, a_idx, b_idx].tolist()
        entry_eff = eff[g_idx, :, a_idx, b_idx].tolist()
        for uid, cell_lin, code_row, eff_row in zip(  # reprolint: disable=RPL009 -- the DOO fold is inherently per (unit, cell); the vectorised pass above reduced the burst to exactly these entries
            uids, lins, entry_codes, entry_eff
        ):
            cell = divmod(cell_lin, ny)
            state = states.get(cell)
            if state is None:
                continue
            initial = in_hash = dechash.contains(uid, cell)
            net = incs = decs = inserts = removes = suppressed = 0
            step_codes = [c for c, e in zip(code_row, eff_row) if e]
            for code in step_codes:
                step_in = in_hash
                delta, action = t2[step_in][code]
                if action == _ACT_INSERT:
                    if not step_in:
                        inserts += 1
                        in_hash = True
                    elif delta < 0:
                        # the pair is already armed: decreasing again
                        # would double-count this unit, skip it.
                        delta = 0
                elif action == _ACT_REMOVE:
                    if step_in:
                        removes += 1
                        in_hash = False
                if step_in and delta == 0 and t1[code] < 0:
                    suppressed += 1
                if delta > 0:
                    net += delta
                    incs += 1
                elif delta < 0:
                    net += delta
                    decs += 1
            if in_hash != initial:
                if in_hash:
                    dechash.insert(uid, cell)
                else:
                    dechash.remove(uid, cell)
            if net:
                state.lower_bound += float(net)
            counters.dechash_inserts += inserts
            counters.dechash_removes += removes
            counters.doo_suppressed += suppressed
            counters.lb_increments += incs
            counters.lb_decrements += decs


# -- burst maintain kernels -------------------------------------------------


def apply_burst_basic(
    monitor: "BasicCTUP", moves: Sequence[CoalescedMove]
) -> int:
    """BasicCTUP's maintain phase for one coalesced burst, vectorised.

    Returns the raw updates skipped by coalescing (chain length minus
    one per chain), which ``apply_burst`` reports as
    ``coalesced_updates``. Observability
    wraps the whole pass in one span (RPL010: instrumentation only at
    pass boundaries, never inside the kernels' loops).
    """
    obs = monitor.obs
    if obs is None:
        return _burst_basic(monitor, moves)
    with obs.tracer.span("kernel.burst_basic", cat="kernel", moves=len(moves)):
        return _burst_basic(monitor, moves)


def _burst_basic(monitor: "BasicCTUP", moves: Sequence[CoalescedMove]) -> int:
    olds = monitor.units.apply_moves(moves)
    _maintained_endpoint_pass(monitor, moves, olds)
    _table1_pass(monitor, moves, olds, skip_illuminated=True)
    return sum(m.raw_count for m in moves) - len(moves)


def apply_burst_opt(monitor: "OptCTUP", moves: Sequence[CoalescedMove]) -> int:
    """OptCTUP's maintain phase for one coalesced burst, vectorised.

    With DOO disabled (the Fig. 8 ablation) bounds follow Table I and
    the aggregation kernel applies unchanged — OptCTUP never illuminates
    cells, so the eligibility filter is membership only. Observability
    wraps the whole pass in one span (RPL010: instrumentation only at
    pass boundaries, never inside the kernels' loops).
    """
    obs = monitor.obs
    if obs is None:
        return _burst_opt(monitor, moves)
    with obs.tracer.span("kernel.burst_opt", cat="kernel", moves=len(moves)):
        return _burst_opt(monitor, moves)


def _burst_opt(monitor: "OptCTUP", moves: Sequence[CoalescedMove]) -> int:
    olds = monitor.units.apply_moves(moves)
    _maintained_endpoint_pass(monitor, moves, olds)
    if monitor.config.use_doo:
        _table2_pass(monitor, moves, olds)
    else:
        _table1_pass(monitor, moves, olds, skip_illuminated=False)
    return sum(m.raw_count for m in moves) - len(moves)
