"""DecHash — the hash table behind the Decrease Once Optimization (§IV-B).

``DecHash`` records (unit, cell) pairs: the presence of a pair means the
cell's lower bound has already been decreased on account of that unit and
must not be decreased for it again. Pairs are removed when the unit's
new protection region fully contains the cell (N→F and P→F-with-pair in
Table II), at which point the bound is raised and the unit may legally
cause one future decrease again.

One detail the paper leaves implicit: when a cell is *accessed* its
lower bound is recomputed exactly from the current safeties. Keeping the
cell's hash pairs across that refresh would be unsound — a unit whose
pair survived could later leave the cell without the bound ever being
decreased for it, even though the fresh bound assumed it was still
protecting. :meth:`clear_cell` therefore drops all pairs of a cell when
the cell is accessed, re-arming one decrease per unit for the new epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.grid.partition import CellId

if TYPE_CHECKING:
    from repro.grid.partition import GridPartition


class DecHash:
    """The (unit, cell) pair set of the Decrease Once Optimization."""

    def __init__(self) -> None:
        self._by_cell: dict[CellId, set[int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pair: tuple[int, CellId]) -> bool:
        unit_id, cell = pair
        return self.contains(unit_id, cell)

    def contains(self, unit_id: int, cell: CellId) -> bool:
        """Whether this unit already caused a decrease of this cell."""
        units = self._by_cell.get(cell)
        return units is not None and unit_id in units

    def insert(self, unit_id: int, cell: CellId) -> bool:
        """Record a decrease; returns False if the pair was already there."""
        units = self._by_cell.setdefault(cell, set())
        if unit_id in units:
            return False
        units.add(unit_id)
        self._size += 1
        return True

    def remove(self, unit_id: int, cell: CellId) -> bool:
        """Forget the pair (the unit fully covers the cell again).

        Returns whether the pair was present; removing an absent pair is
        legal (the N→F transition *attempts* a removal unconditionally).
        """
        units = self._by_cell.get(cell)
        if units is None or unit_id not in units:
            return False
        units.remove(unit_id)
        self._size -= 1
        if not units:
            del self._by_cell[cell]
        return True

    def clear_cell(self, cell: CellId) -> int:
        """Drop every pair of ``cell`` (called when the cell is accessed).

        Returns the number of pairs dropped.
        """
        units = self._by_cell.pop(cell, None)
        if units is None:
            return 0
        self._size -= len(units)
        return len(units)

    def pairs_of_cell(self, cell: CellId) -> set[int]:
        """Unit ids holding a pair with ``cell`` (diagnostics)."""
        return set(self._by_cell.get(cell, ()))

    def clear(self) -> None:
        self._by_cell.clear()
        self._size = 0

    def export_pairs(self, grid: "GridPartition") -> list[list[Any]]:
        """JSON-codable ``[linear cell, [unit ids]]`` rows, fully sorted.

        The pair set is semantically unordered (membership tests only),
        so the export canonicalizes: cells ascending, unit ids ascending.
        Cell tuples sort in :meth:`GridPartition.linear` order.
        """
        ny = grid.ny
        by_cell = self._by_cell
        return [
            [cell[0] * ny + cell[1], sorted(by_cell[cell])]
            for cell in sorted(by_cell)
        ]

    @classmethod
    def from_pairs(
        cls, rows: Iterable[Sequence[Any]], grid: "GridPartition"
    ) -> "DecHash":
        """Rebuild a pair set from :meth:`export_pairs` rows."""
        out = cls()
        for linear, unit_ids in rows:
            cell = grid.from_linear(int(linear))
            for unit_id in unit_ids:
                out.insert(int(unit_id), cell)
        return out
