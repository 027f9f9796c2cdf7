"""Choosing the system parameters (§VI's "insights", operationalised).

* **Partition granularity** (Fig. 6): cells much larger than the
  protection disk blur the N/P/F classification (everything is P, bounds
  decay constantly); cells much smaller multiply bookkeeping and leave
  cells nearly empty. :func:`suggest_granularity` encodes the sweet spot
  — cell width about the protection range, capped so cells keep a
  useful number of places.
"""

from __future__ import annotations

import math

from repro.geometry import Rect


def suggest_granularity(
    n_places: int,
    protection_range: float,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
    min_places_per_cell: int = 20,
) -> int:
    """A granularity that keeps cells disk-sized and usefully populated.

    Two ceilings apply: cell width should not shrink below the
    protection range (finer cells add bookkeeping without sharpening the
    per-update candidate set), and the grid should not spread the place
    set below ``min_places_per_cell`` per occupied cell on average
    (near-empty cells make bounds meaningless).
    """
    if n_places <= 0:
        raise ValueError("n_places must be positive")
    if protection_range <= 0:
        raise ValueError("protection range must be positive")
    extent = min(space.width, space.height)
    by_range = max(1, round(extent / protection_range))
    by_population = max(
        1, math.isqrt(max(1, n_places // min_places_per_cell))
    )
    return max(2, min(by_range, by_population))
