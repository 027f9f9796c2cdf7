"""The maintained-place table.

Both monitors keep "a very small fraction of places" in memory together
with their safeties (§II-A): BasicCTUP keeps every place of every
illuminated cell, OptCTUP keeps exactly the places that were within
``SK + Δ`` when their cell was last accessed. This table backs both.

It is columnar (numpy) so the per-update hot path — adjusting the
safety of every maintained place against a unit's old and new protection
disk — is one vectorised pass, and ``SK`` (the k-th smallest safety) is
one ``np.partition``. A cell → rows index lets a cell access touch only
that cell's rows: a removal moves the last rows into the holes (so the
columns stay dense) and repoints each moved row's index entry in O(1).
A result version tells readers when SK and the top-k may have moved.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Iterable, Sequence, cast

import numpy as np

from repro.geometry import Point
from repro.model import Place, SafetyRecord
from repro.storage.placestore import CellArrays

if TYPE_CHECKING:
    from repro.grid.partition import GridPartition
    from repro.storage.placestore import PlaceStore

_INITIAL_CAPACITY = 64
#: removals of more rows than this move the column values with fancy
#: indexing; fewer rows are cheaper moved one scalar at a time.
_SCALAR_DROP = 8

_VERSIONS = itertools.count(1)


def fresh_version() -> int:
    """A result version no table or monitor has handed out before.

    Versions come from one process-wide counter, so two tables (a
    monitor that rebuilt its table, say) never hand out equal ones.
    """
    return next(_VERSIONS)


def tie_key(safety: float, place_id: int) -> tuple[float, int]:
    """THE ``(safety, id)`` ranking key — the single tie-break comparator.

    Every surface that orders safety records (the maintained table, the
    naïve monitors, the sharded merger, and the ``ext/`` schemes'
    result lists) must sort by this key so equal safeties always break
    by ascending place id; see :func:`topk_rows` for the full contract.
    """
    return (float(safety), int(place_id))


def kth_smallest(safety: np.ndarray, k: int) -> float:
    """The k-th smallest value of ``safety``; ``+inf`` with < k values.

    ``k <= 0`` yields ``-inf``: a degenerate top-0 query has an empty
    result, and ``-inf`` is the SK that makes every maintenance guard
    (``safety < SK`` and friends) vacuously false.
    """
    if k <= 0:
        return -math.inf
    if len(safety) < k:
        return math.inf
    return float(np.partition(safety, k - 1)[k - 1])


def topk_rows(
    ids: np.ndarray, safety: np.ndarray, k: int, kth: float | None = None
) -> np.ndarray:
    """Row indices of the k smallest safeties, ties broken by id.

    ``kth`` is the k-th smallest safety when the caller already holds
    it (``kth_smallest(safety, k)``); it saves the partition.

    Shared by the maintained table and the naïve monitor so every scheme
    reports an identical, deterministic result set.

    **Tie-breaking contract.** The result order is exactly the first
    ``min(k, n)`` rows of the lexicographic ``(safety, id)`` order: equal
    safeties are always ordered by ascending place id, including across
    the SK boundary (the k-th slot). That makes ``top_k()`` and
    ``topk_ids()`` agree for every scheme that feeds its candidates
    through this function, and it is what the sharded merger relies on —
    per-shard prefixes in the same total order merge into the same total
    order. The only remaining cross-scheme ambiguity is *which*
    candidates a scheme tracks when several places tie exactly at SK
    (Definition 4 does not prescribe that; see
    ``CTUPMonitor.top_k``).
    """
    n = len(safety)
    if n == 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    take = min(k, n)
    if n > take:
        if kth is None:
            kth = np.partition(safety, take - 1)[take - 1]
        candidates = np.nonzero(safety <= kth)[0]
        order = np.lexsort((ids[candidates], safety[candidates]))
        return candidates[order][:take]
    return np.lexsort((ids, safety))[:take]


class MaintainedPlaces:
    """A dynamic table of (place, safety, owning cell) rows.

    **Layout.** ``ids``, ``xs``, ``ys`` and ``safety`` are dense numpy
    columns over rows ``0 .. len - 1``; each row's ``Place`` and owning
    cell sit in plain lists. ``_cell_rows`` maps every cell that owns
    rows to the list of its rows, and ``_slot`` holds each row's
    position in that list, so :meth:`remove_cell` finds a cell's rows
    without a column compare and a row moved by a removal repoints its
    entry in O(1). No id → row index is kept: the rare lookups by id
    (:meth:`remove_id`, :meth:`safety_of`, ``in``) search the id column.

    **Memo.** Every mutator that changes a row bumps ``_version``;
    :meth:`sk` and the top-k rows are memoised per ``(version, k)``, so
    the reads between two mutations (a refresh's last round,
    ``process()``'s report, change tracking) share one computation.

    **Result version.** :meth:`result_version` hands out a version and
    records the SK as of that read. A mutator marks the result changed
    when a row it touches, adds or removes has a safety at or below
    that SK, before or after the write; the next read then hands out a
    fresh version. One pair is judged as a whole: the rows a
    :meth:`remove_cell` takes at or below SK, and the next insert into
    the same cell (a cell access's band). If that insert brings exactly
    those ``(id, safety)`` rows back at or below SK, nothing is marked.
    The rule is exact: if nothing was marked, the rows at or below the
    recorded SK are the same rows with the same safeties, and every
    other row is still above it, so SK and the ``(safety, id)`` top-k
    are unchanged. It holds for any number of readers, since any read
    after a mark sees a new version.
    """

    def __init__(self) -> None:
        self._n = 0
        cap = _INITIAL_CAPACITY
        self._ids = np.empty(cap, dtype=np.int64)
        self._xs = np.empty(cap, dtype=np.float64)
        self._ys = np.empty(cap, dtype=np.float64)
        self._safety = np.empty(cap, dtype=np.float64)
        self._place_at: list[Place] = []
        self._cell: list[int] = []
        self._slot: list[int] = []
        self._cell_rows: dict[int, list[int]] = {}
        self._version = 0
        self._sk_memo: tuple[int, int, float] = (-1, 0, math.inf)
        self._rows_memo: tuple[int, int, np.ndarray] = (-1, 0, self._ids[:0])
        # the result version: handed out at reads, renewed after a mark.
        self._result = 0
        self._result_changed = True
        self._watch_k = 0
        self._watch_sk = math.inf
        # (cell, {id: safety}) of the rows at or below SK that the last
        # remove_cell took, until the next mutation judges them.
        self._left: tuple[int, dict[int, float]] | None = None

    def __len__(self) -> int:
        return self._n

    def __contains__(self, place_id: int) -> bool:
        return bool(np.count_nonzero(self._ids[: self._n] == place_id))

    def _row(self, place_id: int) -> int:
        """The row holding ``place_id`` (a search of the id column)."""
        hit = (self._ids[: self._n] == place_id).nonzero()[0]
        if not len(hit):
            raise KeyError(place_id)
        return int(hit[0])

    # -- the result version ---------------------------------------------

    def result_version(self, k: int) -> int:
        """A version that stays equal while ``sk(k)`` and the top-k ids
        cannot have changed (see the class docstring)."""
        if self._left is not None:
            self._settle()
        if self._result_changed or k != self._watch_k:
            self._result = fresh_version()
            self._watch_k = k
            self._watch_sk = self.sk(k)
            self._result_changed = False
        return self._result

    def _touch(self, lowest: float) -> None:
        """Mark the result changed if ``lowest`` — the least safety a
        mutation touched, before or after — is at or below the SK of the
        last result-version read."""
        if lowest <= self._watch_sk:
            self._result_changed = True

    def _settle(self) -> None:
        """Judge a pending cell removal that no insert into the cell
        followed: rows at or below SK left for good."""
        assert self._left is not None
        if self._left[1]:
            self._result_changed = True
        self._left = None

    # -- growth ---------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        cap = len(self._ids)
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        self._ids = np.resize(self._ids, cap)
        self._xs = np.resize(self._xs, cap)
        self._ys = np.resize(self._ys, cap)
        self._safety = np.resize(self._safety, cap)

    # -- insertion ------------------------------------------------------

    def insert(self, place: Place, safety: float, cell: int) -> None:
        """Add one place; rejects duplicates (a maintenance bug otherwise)."""
        if place.place_id in self:
            raise ValueError(f"place {place.place_id} already maintained")
        location = place.location
        self._append(
            [place],
            np.array([place.place_id], dtype=np.int64),
            np.array([location.x]),
            np.array([location.y]),
            np.array([safety], dtype=np.float64),
            cell,
        )

    def insert_batch(
        self,
        places: Sequence[Place],
        safeties: np.ndarray | Sequence[float],
        cell: int | np.ndarray | Sequence[int],
        columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Append ``places`` with their safeties in one vectorised pass.

        ``cell`` is one owning cell for every row, or one per row.
        ``columns`` are the places' ``(ids, xs, ys)`` arrays when the
        caller holds them (a cell's ``CellArrays``); otherwise they are
        read off the places. Equals :meth:`insert` row by row, except
        that a bad batch raises ``ValueError`` before anything is
        written: a length mismatch, or, for a batch that joins rows
        already maintained (per-row cells, or a cell that owns rows), an
        id repeated or already maintained. A batch into a cell that owns
        no rows is that cell's places — distinct, and owned by no other
        cell — so it is not searched: the illumination and band paths
        pay no per-id check.
        """
        m = len(places)
        per_row = np.ndim(cell) > 0
        if len(safeties) != m or (per_row and np.size(cell) != m):
            raise ValueError("places, safeties and cells length mismatch")
        if columns is None:
            arrays = CellArrays(places)
            columns = (arrays.ids, arrays.xs, arrays.ys)
        ids, xs, ys = columns
        if per_row or cell in self._cell_rows:
            maintained = self._ids[: self._n]
            if len(set(ids.tolist())) != m or np.isin(ids, maintained).any():
                raise ValueError(
                    "batch repeats a place id or one already maintained"
                )
        if not m:
            return
        safety = np.asarray(safeties, dtype=np.float64)
        if per_row:
            self._append_rows(places, ids, xs, ys, safety)
            cells = [int(c) for c in np.asarray(cell).tolist()]
            self._index_rows(self._n - m, cells)
        else:
            self._append(places, ids, xs, ys, safety, int(cast(int, cell)))

    def insert_band(
        self,
        places: Sequence[Place],
        arrays: CellArrays,
        safeties: np.ndarray,
        cell: int,
        sk: float,
        delta: float,
    ) -> float:
        """Append the accessed cell's places below ``SK + Δ``; bound the rest.

        The Δ-band rule of a cell access (§IV-E step 3); ``arrays`` is
        the cell's columnar view, row-aligned with ``places`` and
        ``safeties``. Returns the minimum safety of the places not kept
        (``+inf`` if none), the cell's new bound. Places with
        ``safety <= SK`` are always kept even when Δ is 0: dropping a
        place tied at SK would evict part of the top-k result and make
        the access loop oscillate. For any Δ >= 1 (safeties are integers
        in the core model) this coincides with the paper's rule.
        """
        # ``safeties < SK + Δ or safeties <= SK`` in one compare: when
        # SK + Δ > SK the second test implies the first, otherwise the
        # first implies the second.
        cut = sk + delta
        keep = safeties < cut if cut > sk else safeties <= sk
        take = keep.nonzero()[0]
        kept = len(take)
        if kept:
            band = [places[i] for i in take.tolist()]
            columns = (arrays.ids[take], arrays.xs[take], arrays.ys[take])
            if cell in self._cell_rows:
                self.insert_batch(band, safeties[take], cell, columns)
            else:
                self._append(band, *columns, safeties[take], cell)
        if kept == len(safeties):
            return math.inf
        return float(safeties[~keep].min())

    def _append_rows(
        self,
        places: Sequence[Place],
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        safety: np.ndarray,
        judged: bool = False,
    ) -> None:
        """Write rows at the end of the columns (not yet indexed).

        ``judged``: the caller has already judged the rows against the
        result version.
        """
        start = self._n
        end = start + len(places)
        self._ensure_capacity(end)
        self._ids[start:end] = ids
        self._xs[start:end] = xs
        self._ys[start:end] = ys
        self._safety[start:end] = safety
        self._place_at.extend(places)
        self._n = end
        self._version += 1
        if judged:
            return
        if self._left is not None:
            self._settle()
        if not self._result_changed:
            self._touch(float(safety.min()))

    def _append(
        self,
        places: Sequence[Place],
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        safety: np.ndarray,
        cell: int,
    ) -> None:
        """Append rows all owned by ``cell`` and extend its entry."""
        start = self._n
        left = self._left
        if left is not None and left[0] == cell:
            # the cell's band after its removal: the result stays when
            # the rows at or below SK are the ones that left.
            self._left = None
            watch = self._watch_sk
            back = {
                pid: value
                for pid, value in zip(ids.tolist(), safety.tolist())
                if value <= watch
            }
            if back != left[1]:
                self._result_changed = True
            self._append_rows(places, ids, xs, ys, safety, judged=True)
        else:
            self._append_rows(places, ids, xs, ys, safety)
        end = self._n
        rows = self._cell_rows.get(cell)
        if rows is None:
            self._cell_rows[cell] = list(range(start, end))
            self._slot.extend(range(end - start))
        else:
            self._slot.extend(range(len(rows), len(rows) + end - start))
            rows.extend(range(start, end))
        self._cell.extend([cell] * (end - start))

    def _index_rows(self, start: int, cells: list[int]) -> None:
        """Index rows ``start ..`` under their per-row ``cells``."""
        cell_rows = self._cell_rows
        slot = self._slot
        for row, cell in enumerate(cells, start):
            rows = cell_rows.get(cell)
            if rows is None:
                rows = cell_rows[cell] = []
            slot.append(len(rows))
            rows.append(row)
        self._cell.extend(cells)

    # -- removal --------------------------------------------------------

    def remove_id(self, place_id: int) -> tuple[Place, float]:
        """Remove a place by id; returns the evicted record.

        Raises ``KeyError`` when the place is not maintained.
        """
        row = self._row(place_id)
        place = self._place_at[row]
        cell = self._cell[row]
        rows = self._cell_rows[cell]
        last = rows.pop()
        if last != row:
            slot = self._slot[row]
            rows[slot] = last
            self._slot[last] = slot
        if not rows:
            del self._cell_rows[cell]
        return place, self._drop([row])

    def remove_cell(self, cell: int) -> float:
        """Drop every place owned by ``cell``; min removed safety.

        Returns ``+inf`` when the cell owns no row — exactly the value
        the monitors assign as a cell bound when no place was dropped.
        """
        rows = self._cell_rows.pop(cell, None)
        if rows is None:
            return math.inf
        if self._left is not None:
            self._settle()
        if self._result_changed or len(rows) > _SCALAR_DROP:
            return self._drop(rows)
        # defer the judgement to the next mutation: a band that puts
        # the same rows back at or below SK does not move the result.
        ids, safety, watch = self._ids, self._safety, self._watch_sk
        left: dict[int, float] = {}
        for row in rows:
            value = safety.item(row)
            if value <= watch:
                left[ids.item(row)] = value
        self._left = (cell, left)
        return self._drop(rows, judged=True)

    def _drop(self, rows: list[int], judged: bool = False) -> float:
        """Remove ``rows`` (already out of the cell index); min removed
        safety.

        The last rows that stay move into the holes below the new end,
        in ascending order on both sides, so the columns stay dense and
        the layout depends on the removed rows alone, not on the order
        of a cell's index entry. Each moved row repoints its index
        entry through its slot. ``judged``: the caller has already
        judged the rows against the result version.
        """
        n = self._n
        m = len(rows)
        end = n - m
        ids, xs, ys, safety = self._ids, self._xs, self._ys, self._safety
        if m > _SCALAR_DROP:
            gone = np.array(rows)
            min_removed = float(safety[gone].min())
            holes = np.sort(gone[gone < end])
            stays = np.ones(m, dtype=bool)
            stays[gone[gone >= end] - end] = False
            movers = end + stays.nonzero()[0]
            for column in (ids, xs, ys, safety):
                column[holes] = column[movers]
            pairs = zip(holes.tolist(), movers.tolist())
        else:
            min_removed = min(map(safety.item, rows))
            tail = set(rows)
            hole_list = sorted(row for row in rows if row < end)
            mover_list = [row for row in range(end, n) if row not in tail]
            for hole, mover in zip(hole_list, mover_list):
                ids[hole] = ids[mover]
                xs[hole] = xs[mover]
                ys[hole] = ys[mover]
                safety[hole] = safety[mover]
            pairs = zip(hole_list, mover_list)
        place_at, cells, slots = self._place_at, self._cell, self._slot
        cell_rows = self._cell_rows
        for hole, mover in pairs:
            place_at[hole] = place_at[mover]
            cell = cells[hole] = cells[mover]
            slot = slots[hole] = slots[mover]
            cell_rows[cell][slot] = hole
        del place_at[end:], cells[end:], slots[end:]
        self._n = end
        self._version += 1
        if judged:
            return min_removed
        if self._left is not None:
            self._settle()
        if not self._result_changed:
            self._touch(min_removed)
        return min_removed

    # -- queries --------------------------------------------------------

    def safety_of(self, place_id: int) -> float:
        return float(self._safety[self._row(place_id)])

    def place_of(self, place_id: int) -> Place:
        return self._place_at[self._row(place_id)]

    def set_safety(self, place_id: int, safety: float) -> None:
        row = self._row(place_id)
        before = float(self._safety[row])
        self._safety[row] = safety
        self._version += 1
        if self._left is not None:
            self._settle()
        if not self._result_changed:
            self._touch(min(before, safety))

    def export_rows(self) -> list[list[float]]:
        """JSON-codable ``[place_id, safety, cell]`` rows in table order.

        Row order matters: re-inserting the rows front to back rebuilds
        the table with identical row placement, so a resumed monitor's
        swap-removals evolve exactly like the snapshotted one's.
        """
        n = self._n
        rows = zip(
            self._ids[:n].tolist(),
            self._safety[:n].tolist(),
            self._cell,
        )
        return [list(row) for row in rows]

    def safeties(self) -> np.ndarray:
        """Read-only view of the live safety column, in row order."""
        view = self._safety[: self._n]
        view.flags.writeable = False
        return view

    def safeties_snapshot(self) -> dict[int, float]:
        """id -> safety for every maintained place (testing/diagnostics)."""
        n = self._n
        return dict(zip(self._ids[:n].tolist(), self._safety[:n].tolist()))

    def sk(self, k: int) -> float:
        """The k-th smallest maintained safety; ``+inf`` with < k rows.

        With fewer than ``k`` places maintained, *every* place qualifies
        as top-k, so the threshold is unbounded. ``k <= 0`` yields
        ``-inf`` (see :func:`kth_smallest`).
        """
        version, memo_k, value = self._sk_memo
        if version != self._version or memo_k != k:
            value = kth_smallest(self._safety[: self._n], k)
            self._sk_memo = (self._version, k, value)
        return value

    def _top_rows(self, k: int) -> np.ndarray:
        """:func:`topk_rows` of the live table, memoised per version."""
        version, memo_k, rows = self._rows_memo
        if version != self._version or memo_k != k:
            n = self._n
            rows = topk_rows(self._ids[:n], self._safety[:n], k, self.sk(k))
            self._rows_memo = (self._version, k, rows)
        return rows

    def top_k(self, k: int) -> list[SafetyRecord]:
        """The k least safe maintained places, ties broken by place id."""
        place_at = self._place_at
        safety = self._safety
        return [
            SafetyRecord(place_at[row], float(safety[row]))
            for row in self._top_rows(k).tolist()
        ]

    def topk_ids(self, k: int) -> list[int]:
        """Place ids of :meth:`top_k`, in the same order."""
        return self._ids[self._top_rows(k)].tolist()

    # -- the hot path ---------------------------------------------------

    def apply_unit_move(self, old: Point, new: Point, radius: float) -> int:
        """Adjust every maintained safety for one unit's move.

        A place gains 1 safety when it enters the new disk without having
        been in the old one, loses 1 in the symmetric case. Returns the
        number of rows scanned (for the cost counters).
        """
        n = self._n
        if n == 0:
            return 0
        xs = self._xs[:n]
        ys = self._ys[:n]
        r2 = radius * radius
        dxo = xs - old.x
        dyo = ys - old.y
        was = dxo * dxo + dyo * dyo <= r2
        dxn = xs - new.x
        dyn = ys - new.y
        now = dxn * dxn + dyn * dyn <= r2
        self._add_change(np.subtract(now, was, dtype=np.float64))
        return n

    def apply_unit_moves(
        self,
        old_x: np.ndarray,
        old_y: np.ndarray,
        new_x: np.ndarray,
        new_y: np.ndarray,
        radius: float,
    ) -> int:
        """Adjust every maintained safety for a whole burst of unit moves.

        One ``(rows, moves)`` broadcast replaces ``len(old_x)`` calls to
        :meth:`apply_unit_move`. Exactness: each row's total change is
        the integer sum of its per-move ``now - was`` terms, and adding
        that sum once is bit-identical to accumulating the per-move
        float terms (safeties are integer-valued, far below 2**53).
        The result version is judged on that net change. Returns the
        rows scanned *per move* — callers charge their scan counters
        once per move, matching the sequential path.
        """
        n = self._n
        if n == 0 or len(old_x) == 0:
            return n
        xs = self._xs[:n, None]
        ys = self._ys[:n, None]
        r2 = radius * radius
        # two (rows, moves) buffers, computed in place and reused for the
        # old and the new positions: a burst's heap peak is two of them,
        # not the seven temporaries of the plain expression.
        d2 = np.empty((n, len(old_x)))
        dy = np.empty_like(d2)
        covered = []
        for px, py in ((old_x, old_y), (new_x, new_y)):
            np.subtract(xs, px[None, :], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(ys, py[None, :], out=dy)
            np.multiply(dy, dy, out=dy)
            np.add(d2, dy, out=d2)
            covered.append(np.count_nonzero(d2 <= r2, axis=1))
        self._add_change((covered[1] - covered[0]).astype(np.float64))
        return n

    def _add_change(self, change: np.ndarray) -> None:
        """Add a per-row safety ``change`` (one entry per live row)."""
        moved = change.nonzero()[0]
        if not len(moved):
            return
        safety = self._safety
        if self._left is not None:
            self._settle()
        if not self._result_changed:
            before = safety[moved]
            self._touch(min(before.tolist() + (before + change[moved]).tolist()))
        safety[: self._n] += change
        self._version += 1

    def restore_rows(
        self,
        rows: Iterable[Sequence[Any]],
        store: "PlaceStore",
        grid: "GridPartition",
    ) -> None:
        """Rebuild the table from :meth:`export_rows` output.

        Each referenced cell is read once from the store to recover the
        :class:`Place` records, then the rows are appended in one batch
        in their exported order — row placement is identical to the
        snapshotted table, so a resumed monitor's swap-removals evolve
        exactly like the original's. The cell index is rebuilt from the
        rows whatever their order. Must be called on an empty table.
        """
        if self._n:
            raise ValueError("restore_rows requires an empty table")
        materialized = [list(row) for row in rows]
        place_of: dict[int, Place] = {}
        for linear in sorted({int(row[2]) for row in materialized}):
            for place in store.read_cell(grid.from_linear(linear)):
                place_of[place.place_id] = place
        self.insert_batch(
            [place_of[int(row[0])] for row in materialized],
            [row[1] for row in materialized],
            [row[2] for row in materialized],
        )
