"""Configuration shared by all CTUP monitors.

The defaults reproduce Table III of the paper: 150 units, 15 000 places,
``k = 15``, ``Δ = 6``, protection range 0.1 and a 10×10 grid over the
unit square. (The place/unit counts live in the workload configuration,
not here — this object describes the *monitor*.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect


def _unit_square() -> Rect:
    return Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True, slots=True)
class CTUPConfig:
    """Parameters of a CTUP monitor instance.

    Attributes
    ----------
    k:
        how many unsafe places to monitor (Table III default 15).
    delta:
        OptCTUP's Δ slack: after accessing a cell, every place with
        ``safety < SK + Δ`` stays maintained, so the cell's bound can
        absorb Δ decreases before the cell is touched again.
    protection_range:
        radius ``R`` of every unit's protection disk.
    granularity:
        the grid is ``granularity × granularity`` over ``space``.
    space:
        the monitored region (unit square by default). A unit position
        outside it is accepted and handled exactly, not clamped.
    use_doo:
        enable the Decrease Once Optimization in OptCTUP. Switching it
        off (Fig. 8's ablation) falls back to Table I bound maintenance
        while keeping the rest of OptCTUP intact.
    page_capacity / buffer_pages:
        layout of the simulated lower storage level.

    Burst execution has no knob: BasicCTUP and OptCTUP always run a
    coalesced burst's maintain phase through
    :func:`repro.core.batch.apply_chains`. Neither has the unit index:
    every monitor buckets its fleet by grid cell, and
    :attr:`~repro.core.units.UnitIndex.grid_min_fleet` picks the linear
    reachability scan for fleets too small to gain from the buckets.
    """

    k: int = 15
    delta: int = 6
    protection_range: float = 0.1
    granularity: int = 10
    space: Rect = field(default_factory=_unit_square)
    use_doo: bool = True
    page_capacity: int = 64
    buffer_pages: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k cannot be negative")
        if self.delta < 0:
            raise ValueError("delta cannot be negative")
        if self.protection_range <= 0:
            raise ValueError("protection range must be positive")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")

    def replace(self, **overrides: object) -> "CTUPConfig":
        """A copy with some fields overridden."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
