"""Per-cell monitoring state.

Both monitors keep one :class:`CellState` per grid cell. BasicCTUP uses
the ``illuminated`` flag (Fig. 1); OptCTUP keeps every cell dark and only
uses the lower bound (Fig. 2). The lower bound is a float so that the
decaying-protection extension (real-valued safeties) can reuse the same
state; the core monitors only ever store integers or ``+inf`` in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.grid.partition import CellId, GridPartition


@dataclass(slots=True)
class CellState:
    """Mutable monitoring state of one grid cell.

    ``lower_bound`` is a certified lower bound on the safety of the
    cell's *tracked-by-bound* places: all places of the cell in
    BasicCTUP, only the non-maintained places in OptCTUP. ``+inf`` means
    the bound constrains nothing (an empty cell, or a cell whose places
    are all individually maintained).
    """

    lower_bound: float = math.inf
    illuminated: bool = False
    #: number of places stored in this cell (set at initialisation; the
    #: set of places is static, so this never changes afterwards).
    place_count: int = 0
    #: how many times this cell was illuminated / accessed — the cost
    #: counter behind Fig. 9's "cell access" series.
    access_count: int = field(default=0, repr=False)
    #: OptCTUP's cached AP column of the cell (``repro.core.opt.CachedAP``),
    #: ``None`` when there is none; the other schemes never set it.
    ap: Any = field(default=None, repr=False, compare=False)

    def decrease(self, amount: float = 1.0) -> None:
        """Lower the bound by ``amount`` (a unit may have stopped protecting)."""
        self.lower_bound -= amount

    def increase(self, amount: float = 1.0) -> None:
        """Raise the bound by ``amount`` (a unit now protects the whole cell)."""
        self.lower_bound += amount


def access_below_sk(
    cell_states: Mapping[CellId, CellState],
    sk_of: Callable[[], float],
    access: Callable[[CellId], None],
    *,
    skip_illuminated: bool,
) -> int:
    """Access the lowest-bound cell below SK until every bound clears it.

    The schemes' scalar access loop: each round re-reads SK and takes
    the first cell, in table order, with the smallest bound below it
    (illuminated cells are passed over when ``skip_illuminated``).
    Returns the number of cells accessed.
    """
    accessed = 0
    while True:
        sk = sk_of()
        best: CellId | None = None
        best_bound = math.inf
        for cell, state in cell_states.items():
            if skip_illuminated and state.illuminated:
                continue
            if state.lower_bound < sk and state.lower_bound < best_bound:
                best_bound = state.lower_bound
                best = cell
        if best is None:
            return accessed
        access(best)
        accessed += 1


# -- checkpoint codec ------------------------------------------------------
#
# Cell-state tables are dicts keyed by CellId whose *iteration order*
# matters: the access loops break bound ties by it. The codec therefore
# encodes rows in iteration order and restores them in the same order.

def encode_bound(value: float) -> float | str:
    """JSON-safe lower bound (``inf`` has no JSON literal)."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def decode_bound(value: float | str) -> float:
    """Inverse of :func:`encode_bound`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def export_cell_states(
    states: Mapping[CellId, CellState], grid: GridPartition
) -> list[list[float | str | bool | int]]:
    """JSON-codable rows ``[linear cell, bound, illuminated, places,
    accesses]`` in table-iteration order."""
    ny = grid.ny
    return [
        [
            cell[0] * ny + cell[1],
            encode_bound(state.lower_bound),
            state.illuminated,
            state.place_count,
            state.access_count,
        ]
        for cell, state in states.items()
    ]


def restore_cell_states(
    rows: Iterable[Sequence[Any]], grid: GridPartition
) -> dict[CellId, CellState]:
    """Rebuild a cell-state table from :func:`export_cell_states` rows."""
    out: dict[CellId, CellState] = {}
    for linear, bound, illuminated, place_count, access_count in rows:
        out[grid.from_linear(int(linear))] = CellState(
            lower_bound=decode_bound(bound),
            illuminated=bool(illuminated),
            place_count=int(place_count),
            access_count=int(access_count),
        )
    return out
