"""The common interface of all CTUP monitors.

A monitor owns its full server-side state: the grid partition, the
simulated lower storage level holding all places, the unit index with
the most recently reported unit positions, and whatever bound/maintained
structures the concrete scheme needs. Driving a monitor is always:

>>> monitor.initialize()          # §III-B / §IV-D, executed once
>>> for update in stream:
...     monitor.process(update)   # §III-C / §IV-E
...     monitor.top_k()           # the continuously monitored answer

Internally every scheme's update handling splits into two phases that
the base class composes (and times, and counts — the bookkeeping lives
here once, not in every scheme):

* the **maintain phase** ``_apply(update)`` — absorb one unit move into
  the cheap state (maintained safeties, cell bounds). Applications of
  several updates commute: bounds stay sound no matter when the access
  phase runs, which is what makes burst processing exact;
* the **access phase** ``_refresh()`` — do whatever storage accesses are
  needed to restore the scheme's result invariant ("no bound below SK"),
  after which ``top_k()`` / ``sk()`` are current.

``process()`` runs both phases per update. The engine layers
(:mod:`repro.core.batch`, :mod:`repro.engine`) instead call the public
``apply_update()`` / ``refresh()`` pair to defer the access phase to the
end of a burst — for *any* scheme, without touching its internals.
"""

from __future__ import annotations

import abc
import time
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.control.events import ControlEvent, EpochReport
    from repro.obs.spec import Observability

from repro.core.config import CTUPConfig
from repro.core.metrics import InitReport, MonitorCounters, UpdateReport
from repro.core.topk import fresh_version
from repro.core.units import UnitIndex, UnitKernelStats
from repro.grid.partition import GridPartition
from repro.model import CoalescedMove, LocationUpdate, Place, SafetyRecord, Unit
from repro.storage.iostats import IoStats
from repro.storage.placestore import PlaceStore

#: version of the per-monitor ``export_state()`` payload (bumped when a
#: scheme's encoded state shape changes incompatibly). Version 2 adds
#: OptCTUP's ``ap_cache``; version 3 drops its ``delta`` (Δ is
#: ``config.delta``).
STATE_VERSION = 3


def collect_declared_fields(cls: type, attribute: str) -> tuple[str, ...]:
    """Union of a class-body tuple declaration over the whole MRO.

    Walks ``cls.__mro__`` base-first so a scheme's declaration extends —
    never replaces — its ancestors'.
    """
    out: list[str] = []
    for klass in reversed(cls.__mro__):
        for name in klass.__dict__.get(attribute, ()):
            if name not in out:
                out.append(name)
    return tuple(out)


class _RemovedInConfig:
    """A retired monitor attribute that now lives on ``config``: reading
    or assigning it on a monitor raises ``AttributeError`` (a data
    descriptor, so an assignment cannot land in the instance dict)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def _error(self) -> AttributeError:
        return AttributeError(
            f"monitor.{self.name} was removed in 3.0: read config.{self.name}, "
            f"and build a new monitor (or CTUPConfig.replace) to change it"
        )

    def __get__(self, monitor: object, owner: type | None = None) -> Any:
        if monitor is None:
            return self
        raise self._error()

    def __set__(self, monitor: object, value: object) -> None:
        raise self._error()


class CTUPMonitor(abc.ABC):
    """Base class: state assembly plus the monitoring contract."""

    #: short scheme name used in benchmark tables.
    name: str = "abstract"

    #: Δ is ``config.delta``; the 2.x runtime knob fails loudly.
    delta = _RemovedInConfig()

    #: fields whose content survives a checkpoint round-trip. Subclasses
    #: extend (never replace) the declaration; ``state_fields()`` collects
    #: the union over the MRO. Reprolint rule RPL008 enforces that every
    #: field a scheme mutates outside ``__init__`` appears here or in
    #: :attr:`TRANSIENT_FIELDS`.
    STATE_FIELDS: ClassVar[tuple[str, ...]] = ("units", "counters", "epoch")
    #: fields rebuilt (not serialized) on restore. ``config`` / ``grid``
    #: / ``store`` are constructor state: the snapshot *envelope* records
    #: the config, and ``restore_monitor`` rebuilds all three from it —
    #: they only ever change through ``_retune_grid`` (a journaled
    #: control event), so a restored monitor re-derives the same world.
    TRANSIENT_FIELDS: ClassVar[tuple[str, ...]] = (
        "_initialized",
        "obs",
        "config",
        "grid",
        "store",
    )

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        self.config = config
        self.grid = GridPartition(
            config.space, config.granularity, config.granularity
        )
        self.store = PlaceStore(
            self.grid,
            places,
            page_capacity=config.page_capacity,
            buffer_pages=config.buffer_pages,
        )
        self.units = UnitIndex(units)
        # bucket the fleet by grid cell: the AP kernels then gather
        # candidates per cell neighbourhood instead of scanning |U|.
        self.units.attach_grid(self.grid)
        if abs(self.units.protection_range - config.protection_range) > 1e-12:
            raise ValueError(
                "config protection range "
                f"{config.protection_range} does not match the units' "
                f"{self.units.protection_range}"
            )
        self.counters = MonitorCounters()
        #: reconfiguration epoch — bumped once per applied control event
        #: (see :mod:`repro.control`). Epoch 0 is the initial world.
        self.epoch = 0
        #: optional observability bundle; attached from outside via
        #: :func:`repro.obs.attach_observability` (never serialized).
        #: The hot path pays one ``is None`` check when detached.
        self.obs: "Observability | None" = None
        self._initialized = False

    # -- scheme hooks (the phase API) -----------------------------------

    @abc.abstractmethod
    def _build_initial_state(self) -> None:
        """Construct the initial monitoring state (§III-B / §IV-D).

        Runs exactly once, inside the timing scope owned by
        ``initialize()``. Must leave ``top_k()`` / ``sk()`` answerable.
        """

    @abc.abstractmethod
    def _apply(self, update: LocationUpdate) -> None:
        """Maintain phase: absorb one unit move into the cheap state.

        Must commute with other ``_apply`` calls — no storage access, no
        reliance on the result invariant holding mid-burst.
        """

    @abc.abstractmethod
    def _refresh(self) -> int:
        """Access phase: restore the result invariant.

        Returns the number of cells accessed. After it returns,
        ``top_k()`` and ``sk()`` reflect every applied update.
        """

    @abc.abstractmethod
    def top_k(self) -> list[SafetyRecord]:
        """The current k least safe places, least safe first.

        Ties are broken by ascending place id among the candidates a
        scheme tracks. Every scheme reports the same SK and the same
        places strictly below it; which of several places *tied at SK*
        fills the last slot may differ between schemes (Definition 4 is
        ambiguous there, and resolving it deterministically would force
        extra cell accesses for no information gain).
        """

    @abc.abstractmethod
    def sk(self) -> float:
        """The safety of the k-th unsafe place (``+inf`` if |P| < k)."""

    def partial_top_k(self, m: int) -> list[SafetyRecord]:
        """The first ``m`` records of the result order (may be < m).

        A partial-result query used by the shard merger: the returned
        records are the lexicographically smallest ``(safety, place_id)``
        pairs the scheme can answer exactly, and every record it *with-
        holds* is either (a) tracked and lex-greater than the last
        returned pair, or (b) untracked, with safety at least ``sk()``
        (the "every place below SK is maintained" invariant). Schemes
        whose candidate structures can answer for any ``m`` override
        this; the default truncates ``top_k()``, which satisfies the
        contract for every monitor.
        """
        return self.top_k()[:m]

    # -- lifecycle (base owns timing and counters) ----------------------

    def initialize(self) -> InitReport:
        """Build the initial monitoring state (executed only once)."""
        self._require_not_initialized()
        start = time.perf_counter()
        self._build_initial_state()
        elapsed = time.perf_counter() - start
        self.counters.time_init_s = elapsed
        self._initialized = True
        if self.obs is not None:
            self.obs.phase(self.name, "initialize", start, elapsed)
        return self._init_report(elapsed)

    def _init_report(self, elapsed: float) -> InitReport:
        """Assemble the ``InitReport``; schemes whose counters do not
        include initialization work override this."""
        return InitReport(
            seconds=elapsed,
            cells_accessed=self.counters.cells_accessed,
            places_loaded=self.counters.places_loaded,
            sk=self.sk(),
            maintained_places=self.maintained_count(),
        )

    def apply_update(self, update: LocationUpdate) -> None:
        """Run the maintain phase for one update (public phase API).

        The result invariant may be stale afterwards — call ``refresh()``
        before reading ``top_k()`` / ``sk()``. Several ``apply_update``
        calls followed by one ``refresh()`` are exactly equivalent to
        processing each update individually, minus the intermediate
        storage accesses.
        """
        self._require_initialized()
        start = time.perf_counter()
        self._apply(update)
        elapsed = time.perf_counter() - start
        self.counters.updates_processed += 1
        self.counters.time_maintain_s += elapsed
        if self.obs is not None:
            self.obs.phase(self.name, "maintain", start, elapsed)

    def apply_burst(self, moves: Sequence[CoalescedMove]) -> None:
        """Run the maintain phase for one coalesced burst (public phase API).

        ``moves`` is the output of :func:`repro.core.batch.coalesce_burst`
        — at most one chain per unit, in first-appearance order. Exactly
        like ``apply_update``, the result invariant may be stale until
        ``refresh()``. Counters cover every *raw* update the burst
        carried; the work actually skipped by coalescing is reported via
        ``counters.coalesced_updates``.
        """
        self._require_initialized()
        start = time.perf_counter()
        skipped = self._apply_burst(moves)
        elapsed = time.perf_counter() - start
        self.counters.updates_processed += sum(m.raw_count for m in moves)
        self.counters.coalesced_updates += skipped
        self.counters.time_maintain_s += elapsed
        if self.obs is not None:
            self.obs.phase(
                self.name, "maintain_burst", start, elapsed, moves=len(moves)
            )

    def _apply_burst(self, moves: Sequence[CoalescedMove]) -> int:
        """Maintain phase for a coalesced burst; returns updates skipped.

        The default replays every raw update through ``_apply`` — exact
        for any scheme, with zero work skipped. Schemes whose maintain
        phase can exploit chain structure (BasicCTUP, OptCTUP) override
        this with :func:`repro.core.batch.apply_chains`: maintained-safety
        adjustments and position tracking telescope over a chain, so only
        the endpoints are scanned in batched numpy passes, while
        bound/DecHash maintenance replays every chain step through the
        scheme's per-update Table I/II call, which keeps it bit-identical
        by construction. That call is scalar because numpy's per-call
        cost dominates on the few cells one step classifies (see
        ``docs/architecture.md``, "Burst execution").
        """
        # every chain head is checked before the first raw applies, so a
        # stale or unknown head leaves the whole burst unapplied.
        self.units.check_chain_heads(moves)
        for move in moves:
            for raw in move.raws:
                self._apply(raw)
        return 0

    def refresh(self) -> int:
        """Run the access phase (public phase API); returns cells accessed."""
        self._require_initialized()
        start = time.perf_counter()
        accessed = self._refresh()
        elapsed = time.perf_counter() - start
        self.counters.time_access_s += elapsed
        self.counters.maintained_peak = max(
            self.counters.maintained_peak, self.maintained_count()
        )
        if self.obs is not None:
            self.obs.phase(self.name, "access", start, elapsed, accessed=accessed)
        return accessed

    def process(self, update: LocationUpdate) -> UpdateReport:
        """Absorb one location update, keeping the top-k result current."""
        self._require_initialized()
        maintain_before = self.counters.time_maintain_s
        access_before = self.counters.time_access_s
        self.apply_update(update)
        accessed = self.refresh()
        return UpdateReport(
            unit_id=update.unit_id,
            sk=self.sk(),
            cells_accessed=accessed,
            maintain_seconds=self.counters.time_maintain_s - maintain_before,
            access_seconds=self.counters.time_access_s - access_before,
        )

    # -- checkpointable state (repro.state) -----------------------------

    def state_fields(self) -> tuple[str, ...]:
        """All checkpointed fields declared along the scheme's MRO."""
        return collect_declared_fields(type(self), "STATE_FIELDS")

    def transient_fields(self) -> tuple[str, ...]:
        """All restore-rebuilt fields declared along the scheme's MRO."""
        return collect_declared_fields(type(self), "TRANSIENT_FIELDS")

    def export_state(self) -> dict[str, Any]:
        """The monitor's full mutable state as a JSON-codable document.

        Captures everything a bit-identical resume needs: tracked unit
        positions, the scheme's own structures, the storage-level cache
        picture and every work counter. The export never performs an
        *accounted* storage access, so checkpointing a live monitor does
        not perturb the run being checkpointed.
        """
        self._require_initialized()
        io = self.store.io_stats
        stats = self.units.stats
        return {
            "state_version": STATE_VERSION,
            "scheme": self.name,
            "units": self.units.export_positions(),
            "unit_stats": {
                "queries": stats.queries,
                "candidate_units": stats.candidate_units,
                "reachable_units": stats.reachable_units,
                "coalesced_updates": stats.coalesced_updates,
            },
            "io": {
                "page_reads": io.page_reads,
                "buffered_reads": io.buffered_reads,
                "page_writes": io.page_writes,
                "array_hits": io.array_hits,
            },
            "store_cache": self.store.export_cache_state(),
            "counters": self.counters.as_dict(),
            "epoch": self.epoch,
            "scheme_state": self._export_scheme_state(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt a state document on a freshly constructed monitor.

        The monitor must have been built with the same config, place set
        and fleet, and must not be initialized. Restore order matters:
        structural state first (whose rebuilding may read the store),
        then :meth:`restore_counter_state`, which overwrites every
        counter and cache last so the rebuild's accounting noise is
        erased and the resumed monitor is bit-identical to the
        snapshotted one.
        """
        self._require_not_initialized()
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported monitor state version {version!r} "
                f"(this build reads version {STATE_VERSION})"
            )
        scheme = state.get("scheme")
        if scheme != self.name:
            raise ValueError(
                f"state document is for scheme {scheme!r}, "
                f"not {self.name!r}"
            )
        self.units.restore_positions(state["units"])
        self._restore_scheme_state(state["scheme_state"])
        self.restore_counter_state(state)
        self.epoch = int(state.get("epoch", 0))
        self._initialized = True

    def restore_counter_state(self, state: Mapping[str, Any]) -> None:
        """Overwrite caches and counters from a state document.

        Also called *again* after a resumed session primes its change
        tracker: the priming read may touch storage (schemes fetch place
        records lazily), and re-pinning the counters afterwards keeps
        the resumed run's accounting identical to an uninterrupted one.
        """
        self.store.restore_cache_state(state["store_cache"])
        self.store.io_stats.restore(IoStats(**state["io"]))
        self.units.stats.restore(UnitKernelStats(**state["unit_stats"]))
        self.counters.restore(MonitorCounters.from_dict(state["counters"]))

    def _export_scheme_state(self) -> dict[str, Any]:
        """Scheme hook: the concrete scheme's own structures, JSON-codable."""
        raise NotImplementedError(
            f"{type(self).__name__} does not export scheme state"
        )

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        """Scheme hook: inverse of :meth:`_export_scheme_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not restore scheme state"
        )

    # -- reconfiguration (the control plane, repro.control) ---------------

    def apply_control(self, event: "ControlEvent") -> "EpochReport":
        """Apply one control event (see :mod:`repro.control`).

        Returns the :class:`~repro.control.events.EpochReport` receipt.
        The scheme's ``_control_*`` hook patches its derived state, or
        declines and the state is rebuilt over the patched world. Nothing
        is journaled here: a durable session applies events through
        :meth:`repro.engine.MonitorSession.apply_control`.
        """
        # local import: repro.control sits above repro.core in the layering.
        from repro.control.apply import apply_control

        return apply_control(self, event)

    def _control_work_snapshot(self) -> dict[str, Any]:
        """Freeze every work ledger before a control application.

        Control work is billed to the :class:`EpochReport`, not to the
        monitor's counters — reconfiguring must not perturb the run
        being measured. The token is consumed by
        :meth:`_control_work_restore`.
        """
        return {
            "counters": self.counters.snapshot(),
            "io": self.store.io_stats.snapshot(),
            "units": self.units.stats.snapshot(),
        }

    def _control_work_restore(self, token: Mapping[str, Any]) -> None:
        """Re-pin every work ledger to its pre-control values.

        Reads the *current* ``self.store`` — a grid retune swaps the
        store object, and the fresh store's ledger is the one that must
        carry the pre-control totals forward.
        """
        self.counters.restore(token["counters"])
        self.store.io_stats.restore(token["io"])
        self.units.stats.restore(token["units"])

    def _reset_scheme_state(self) -> None:
        """Scheme hook: drop all derived structures so that
        ``_build_initial_state`` can run again (the rebuild fallback).

        Must return every scheme-owned field to its post-``__init__``
        value; the world state (store, units, config) is left alone.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support control rebuilds"
        )

    def _rebuild_in_place(self) -> None:
        """The documented fallback: rebuild derived state from scratch.

        Equivalent to constructing a fresh monitor over the current
        world and initializing it — but in place, preserving identity,
        unit positions, and (via the control wrapper) the work ledgers.
        """
        self._reset_scheme_state()
        self._build_initial_state()

    def _retune_grid(self, granularity: int) -> None:
        """World patch for ``grid_retuned``: swap grid and store.

        Every cell boundary and page assignment moves at once, so the
        caller always follows with :meth:`_rebuild_in_place`.
        """
        self.config = self.config.replace(granularity=granularity)
        self.grid = GridPartition(self.config.space, granularity, granularity)
        self.store = PlaceStore(
            self.grid,
            self.store.peek_all_places(),
            page_capacity=self.config.page_capacity,
            buffer_pages=self.config.buffer_pages,
        )
        self.units.attach_grid(self.grid)

    # incremental patch hooks: return True when the scheme absorbed the
    # (already world-patched) event incrementally, False to request the
    # rebuild fallback. The base class declines everything except a k
    # change, which any scheme absorbs by re-establishing its result
    # invariant against the new SK.

    def _control_place_added(self, place: Place, cell: Any) -> bool:
        return False

    def _control_place_removed(self, place: Place, cell: Any) -> bool:
        return False

    def _control_place_reweighted(self, old: Place, new: Place, cell: Any) -> bool:
        return False

    def _control_k_changed(self) -> bool:
        self._refresh()
        return True

    # -- shared helpers --------------------------------------------------

    @property
    def initialized(self) -> bool:
        """Whether ``initialize()`` has completed (or state was restored)."""
        return self._initialized

    def maintained_count(self) -> int:
        """Places currently held with exact safeties (0 if the scheme
        keeps none in memory)."""
        maintained = getattr(self, "maintained", None)
        return len(maintained) if maintained is not None else 0

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise RuntimeError(
                f"{self.name}: initialize() must be called before processing"
            )

    def _require_not_initialized(self) -> None:
        if self._initialized:
            raise RuntimeError(f"{self.name}: initialize() may run only once")

    def topk_ids(self) -> list[int]:
        """Place ids of ``top_k()``, in order.

        Change tracking diffs these ids, with ``sk()``, whenever
        :meth:`result_version` moved. Schemes that can answer without
        building the records override this; the override must agree
        with ``top_k()``.
        """
        return [record.place_id for record in self.top_k()]

    def result_version(self) -> int:
        """A version that stays equal while ``sk()`` and the ids of
        ``top_k()`` cannot have changed.

        The default hands out a new version on every call, so a caller
        diffs the full result each time. Schemes that answer from a
        :class:`~repro.core.topk.MaintainedPlaces` forward its
        result version, which moves only when a mutation touched a row
        at or below SK.
        """
        return fresh_version()
