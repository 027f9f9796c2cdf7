"""The maintained-place table.

Both monitors keep "a very small fraction of places" in memory together
with their safeties (§II-A): BasicCTUP keeps every place of every
illuminated cell, OptCTUP keeps exactly the places that were within
``SK + Δ`` when their cell was last accessed. This table backs both.

It is columnar (numpy) so the per-update hot path — adjusting the
safety of every maintained place against a unit's old and new protection
disk — is one vectorised pass, and ``SK`` (the k-th smallest safety) is
one ``np.partition``. Rows are removed with swap-to-last so the arrays
stay dense.
"""

from __future__ import annotations

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


def topk_rows(ids: np.ndarray, safety: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k smallest safeties, ties broken by id.

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
        kth = np.partition(safety, take - 1)[take - 1]
        candidates = np.nonzero(safety <= kth)[0]
        order = np.lexsort((ids[candidates], safety[candidates]))
        return candidates[order][:take]
    return np.lexsort((ids, safety))[:take]


class MaintainedPlaces:
    """A dynamic table of (place, safety, owning cell) rows.

    Every mutator that changes a row bumps ``_version`` (a unit move
    that changes no coverage and an empty band keep it); :meth:`sk` and
    the top-k rows are memoised per ``(version, k)``, so the reads
    between two mutations (a refresh's last round, ``process()``'s
    report, change tracking) share one computation.
    """

    def __init__(self) -> None:
        self._n = 0
        cap = _INITIAL_CAPACITY
        self._ids = np.empty(cap, dtype=np.int64)
        self._xs = np.empty(cap, dtype=np.float64)
        self._ys = np.empty(cap, dtype=np.float64)
        self._safety = np.empty(cap, dtype=np.float64)
        self._cell = np.empty(cap, dtype=np.int64)
        self._row_of: dict[int, int] = {}
        self._place_at: list[Place | None] = [None] * cap
        self._version = 0
        self._sk_memo: tuple[int, int, float] = (-1, 0, math.inf)
        self._rows_memo: tuple[int, int, np.ndarray] = (-1, 0, self._ids[:0])

    def __len__(self) -> int:
        return self._n

    def __contains__(self, place_id: int) -> bool:
        return place_id in self._row_of

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
        self._cell = np.resize(self._cell, cap)
        self._place_at.extend([None] * (cap - len(self._place_at)))

    # -- insertion ------------------------------------------------------

    def insert(self, place: Place, safety: float, cell: int) -> None:
        """Add one place; rejects duplicates (a maintenance bug otherwise)."""
        if place.place_id in self._row_of:
            raise ValueError(f"place {place.place_id} already maintained")
        self._ensure_capacity(self._n + 1)
        row = self._n
        self._ids[row] = place.place_id
        self._xs[row] = place.location.x
        self._ys[row] = place.location.y
        self._safety[row] = safety
        self._cell[row] = cell
        self._place_at[row] = place
        self._row_of[place.place_id] = row
        self._n += 1
        self._version += 1

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
        that a bad batch (a length mismatch, or an id repeated or
        already maintained) raises ``ValueError`` before anything is
        written.
        """
        start, m = self._n, len(places)
        if len(safeties) != m or (np.ndim(cell) and np.size(cell) != m):
            raise ValueError("places, safeties and cells length mismatch")
        if columns is None:
            arrays = CellArrays(places)
            columns = (arrays.ids, arrays.xs, arrays.ys)
        ids, xs, ys = columns
        end = start + m
        index = dict(zip(ids.tolist(), range(start, end)))
        if len(index) != m or not self._row_of.keys().isdisjoint(index):
            raise ValueError("batch repeats a place id or one already maintained")
        self._ensure_capacity(end)
        self._ids[start:end] = ids
        self._xs[start:end] = xs
        self._ys[start:end] = ys
        self._safety[start:end] = safeties
        self._cell[start:end] = cell
        self._place_at[start:end] = places
        self._row_of.update(index)
        self._n = end
        self._version += 1

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
        take = np.flatnonzero(keep)
        if len(take):
            self.insert_batch(
                [places[i] for i in take.tolist()],
                safeties.take(take),
                cell,
                (arrays.ids.take(take), arrays.xs.take(take), arrays.ys.take(take)),
            )
        if len(take) == len(safeties):
            return math.inf
        return float(safeties[~keep].min())

    # -- removal --------------------------------------------------------

    def remove_row(self, row: int) -> tuple[Place, float]:
        """Remove one row (swap-with-last); returns the evicted record."""
        if not (0 <= row < self._n):
            raise IndexError(f"row {row} out of range")
        place = self._place_at[row]
        assert place is not None
        hit = np.zeros(self._n, dtype=bool)
        hit[row] = True
        return place, self._drop(hit)

    def remove_id(self, place_id: int) -> tuple[Place, float]:
        """Remove a place by id."""
        return self.remove_row(self._row_of[place_id])

    def remove_cell(self, cell: int) -> float:
        """Drop every place owned by ``cell``; min removed safety.

        Returns ``+inf`` when the cell owns no row — exactly the value
        the monitors assign as a cell bound when no place was dropped.
        """
        return self._drop(self._cell[: self._n] == cell)

    def _drop(self, hit: np.ndarray) -> float:
        """Swap-remove the rows where ``hit`` is set; min removed safety.

        The kept rows past the new end move into the removed rows below
        it, so the arrays stay dense and the Python work is O(removed).
        """
        rows = np.flatnonzero(hit)
        if len(rows) == 0:
            return math.inf
        n = self._n
        end = n - len(rows)
        holes = rows[rows < end]
        movers = end + np.flatnonzero(~hit[end:])
        min_removed = float(self._safety[rows].min())
        row_of = self._row_of
        for place_id in self._ids[rows].tolist():
            del row_of[place_id]
        for column in (self._ids, self._xs, self._ys, self._safety, self._cell):
            column[holes] = column[movers]
        place_at = self._place_at
        for hole, mover in zip(holes.tolist(), movers.tolist()):
            place_at[hole] = place_at[mover]
        row_of.update(zip(self._ids[holes].tolist(), holes.tolist()))
        place_at[end:n] = [None] * len(rows)
        self._n = end
        self._version += 1
        return min_removed

    # -- queries --------------------------------------------------------

    def cells_present(self) -> set[int]:
        """The owning cells of all maintained places."""
        return set(np.unique(self._cell[: self._n]).tolist())

    def safety_of(self, place_id: int) -> float:
        return float(self._safety[self._row_of[place_id]])

    def place_of(self, place_id: int) -> Place:
        place = self._place_at[self._row_of[place_id]]
        assert place is not None
        return place

    def set_safety(self, place_id: int, safety: float) -> None:
        self._safety[self._row_of[place_id]] = safety
        self._version += 1

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
            self._cell[:n].tolist(),
        )
        return [list(row) for row in rows]

    def safeties(self) -> np.ndarray:
        """Read-only view of the live safety column, in row order."""
        view = self._safety[: self._n]
        view.flags.writeable = False
        return view

    def safeties_snapshot(self) -> dict[int, float]:
        """id -> safety for every maintained place (testing/diagnostics)."""
        return {
            int(self._ids[row]): float(self._safety[row])
            for row in range(self._n)
        }

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
            rows = topk_rows(self._ids[:n], self._safety[:n], k)
            self._rows_memo = (self._version, k, rows)
        return rows

    def top_k(self, k: int) -> list[SafetyRecord]:
        """The k least safe maintained places, ties broken by place id."""
        place_at = self._place_at
        safety = self._safety
        return [
            SafetyRecord(cast(Place, place_at[row]), float(safety[row]))
            for row in self._top_rows(k).tolist()
        ]

    def topk_ids(self, k: int) -> list[int]:
        """Place ids of :meth:`top_k`, in the same order."""
        return self._ids[self._top_rows(k)].tolist()

    def min_safety(self) -> float:
        if self._n == 0:
            return math.inf
        return float(self._safety[: self._n].min())

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
        if (now != was).any():
            self._safety[:n] += now.astype(np.float64) - was.astype(np.float64)
            self._version += 1
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
        Returns the rows scanned *per move* — callers charge their scan
        counters once per move, matching the sequential path.
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
        change = covered[1] - covered[0]
        if change.any():
            self._safety[:n] += change.astype(np.float64)
            self._version += 1
        return n

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
        exactly like the original's. Must be called on an empty table.
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
