"""In-memory spatial index over the moving units.

* :class:`~repro.index.unitgrid.UnitGridIndex` — a grid-bucketed
  secondary index over the *moving units*, maintained incrementally per
  location update, that turns the AP kernels' reachability prefilter
  from an O(|U|) scan into a bucket-neighbourhood gather.
"""

from repro.index.unitgrid import UnitGridIndex

__all__ = [
    "UnitGridIndex",
]
