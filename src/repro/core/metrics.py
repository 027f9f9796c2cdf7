"""Cost accounting for the monitors.

The paper reports update cost in milliseconds; a Python reproduction on
different hardware cannot match absolute numbers, so every monitor also
counts machine-independent work: cells accessed, places loaded, bound
adjustments, distance-kernel rows. These are integers only; wall time
lives in an attached :class:`~repro.obs.Observability` bundle, whose
``ctup_phase_seconds`` sums give Fig. 9's maintain/access split.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(slots=True)
class MonitorCounters:
    """Cumulative work performed by one monitor instance."""

    updates_processed: int = 0
    #: raw updates whose maintain work was collapsed into another update
    #: of the same unit by burst coalescing (``repro.core.batch``). Every
    #: coalesced update still counts in ``updates_processed``; this field
    #: explains the matching drop in ``maintained_scans`` /
    #: ``distance_rows`` relative to a per-update run.
    coalesced_updates: int = 0
    #: cells illuminated (BasicCTUP) or accessed (OptCTUP), incl. init.
    cells_accessed: int = 0
    #: places loaded from the lower storage level.
    places_loaded: int = 0
    #: lower-bound decrements / increments applied to cells.
    lb_decrements: int = 0
    lb_increments: int = 0
    #: bound adjustments suppressed because (unit, cell) was in DecHash.
    doo_suppressed: int = 0
    dechash_inserts: int = 0
    dechash_removes: int = 0
    #: cells darkened by BasicCTUP's step 4.
    cells_darkened: int = 0
    #: rows evaluated by the distance kernel (|places| x |units| work).
    distance_rows: int = 0
    #: maintained places touched by safety-adjustment scans.
    maintained_scans: int = 0
    #: high-water mark of the maintained-place table.
    maintained_peak: int = 0

    def snapshot(self) -> "MonitorCounters":
        """An independent copy (bench harness diffs snapshots)."""
        return MonitorCounters(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def __sub__(self, other: "MonitorCounters") -> "MonitorCounters":
        return MonitorCounters(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "MonitorCounters") -> "MonitorCounters":
        """Element-wise sum — aggregation across shard monitors.

        ``maintained_peak`` is a high-water mark, not a flow; summing the
        per-shard peaks is the peak simultaneous footprint bound (each
        shard's table peaks independently).
        """
        return MonitorCounters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore(self, values: "MonitorCounters") -> None:
        """Overwrite every counter with ``values`` (checkpoint resume)."""
        for f in fields(self):
            setattr(self, f.name, getattr(values, f.name))

    @classmethod
    def from_dict(cls, values: dict[str, int]) -> "MonitorCounters":
        """Inverse of :meth:`as_dict` (checkpoint decoding).

        Fields absent from ``values`` keep their dataclass default, so
        snapshots written before a counter existed restore cleanly (the
        counter was necessarily 0 when they were taken). Keys of retired
        fields are ignored: a snapshot from before 10.0 still carries
        the ``time_*`` wall-clock fields.
        """
        return cls(
            **{f.name: values[f.name] for f in fields(cls) if f.name in values}
        )


@dataclass(slots=True)
class UpdateReport:
    """What one ``process()`` call (or one burst) did.

    ``unit_id`` identifies the moved unit for single-update reports and
    is ``None`` for batch reports — a burst has no single mover, and the
    old behaviour of reusing the last update's id was misleading.
    ``batch_size`` is the number of raw updates the report covers;
    ``coalesced_size`` how many unit transitions remained after burst
    coalescing (equal to ``batch_size`` when no unit moved twice).
    """

    sk: float
    unit_id: int | None = None
    cells_accessed: int = 0
    batch_size: int = 1
    coalesced_size: int = 1


@dataclass(slots=True)
class InitReport:
    """What ``initialize()`` did."""

    seconds: float
    cells_accessed: int
    places_loaded: int
    sk: float
    maintained_places: int = 0
