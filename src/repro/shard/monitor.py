"""Sharded CTUP execution behind the ordinary monitor contract.

:class:`ShardedMonitor` splits the place set into S disjoint shards (by
grid cell, via a :class:`~repro.shard.plan.ShardPlan`), gives each shard
its own full monitor of any scheme, and recombines per-shard partial
top-k lists into the exact global answer with
:class:`~repro.shard.merge.GlobalTopK`. It implements the same
maintain/access phase API as every other scheme, so ``MonitorSession``,
``BatchProcessor``, observability, audits and the bench timeline run on
top of it unchanged.

**Why this is exact.** A shard owns whole grid cells. For one unit move,
any cell outside the union of the old and new disks' candidate blocks
keeps the ``N`` relation to both disks: no place in it changes safety,
and no Table I/II bound action applies. The
:class:`~repro.shard.router.ShardRouter` therefore delivers the update
*fully* (maintain + access phases) only to shards owning a block cell;
every other shard receives a cheap **unit-position sync** so its
server-side unit tracking stays consistent (`UnitIndex.apply` validates
each update against the tracked old location, so every shard must see
every update — the question is only how much work it does). Deliveries
are queued per shard in arrival order and drained, in shard-id order,
at the next access phase: shards share no mutable state, so results
*and* merged work counters are deterministic.

Shard-local SK never undershoots global SK (a shard's k-th smallest over
a subset of the places is at least the global k-th smallest), which is
what makes the merger's floor bounds sound — see :mod:`repro.shard.merge`
for the refill rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.config import CTUPConfig
from repro.core.metrics import InitReport, MonitorCounters
from repro.core.monitor import STATE_VERSION, CTUPMonitor
from repro.core.units import UnitKernelStats
from repro.model import (
    CoalescedMove,
    LocationUpdate,
    Place,
    SafetyRecord,
    Unit,
)
from repro.shard.merge import GlobalTopK, MergeStats
from repro.shard.plan import ShardPlan, plan_for
from repro.shard.router import ShardRouter
from repro.storage.iostats import IoStats


@dataclass
class _Shard:
    """One shard: its monitor plus the pending-delivery queue."""

    shard_id: int
    monitor: CTUPMonitor
    #: ``(delivery, full)`` pairs awaiting the next access phase — a
    #: single update or a whole coalesced chain; ``full=False`` means
    #: only the unit-position sync is needed.
    queue: list[tuple[LocationUpdate | CoalescedMove, bool]] = field(
        default_factory=list
    )


class ShardedMonitor(CTUPMonitor):
    """S shard monitors + router + global merger, one monitor contract."""

    name = "sharded"

    STATE_FIELDS = (
        "full_deliveries",
        "sync_deliveries",
        "plan",
        "scheme_name",
        "_retired_counters",
        "_retired_io",
        "_retired_units",
    )
    TRANSIENT_FIELDS = (
        "_merge_cache",
        "_init_reports",
        "_factory",
        "_strategy",
        "_shards",
        "router",
        "merger",
    )

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
        *,
        shards: int | Sequence[int] | ShardPlan = 4,
        scheme: str | Callable = "opt",
        strategy: str = "striped",
    ) -> None:
        """``shards`` is a shard count, an explicit :class:`ShardPlan`,
        or a per-linear-cell shard-id sequence; ``scheme`` names the
        per-shard monitor (any ``repro.api.SCHEMES`` key) or is a
        factory ``(config, places, units) -> CTUPMonitor``."""
        # the top-level grid/store/units are the *global* view: routing,
        # audits and oracles read it; per-shard state lives below.
        super().__init__(config, places, units)
        self.plan = plan_for(self.grid, shards, strategy)
        self.router = ShardRouter(self.plan, config.protection_range)
        self.merger = GlobalTopK(config.k)
        factory = scheme if callable(scheme) else self._resolve_scheme(scheme)
        self.scheme_name = getattr(
            factory, "name", getattr(factory, "__name__", "custom")
        )
        #: kept for reconfiguration: resharding and rebuilds construct
        #: fresh shard monitors through the same factory/placement.
        self._factory = factory
        self._strategy = strategy
        #: ledgers of shard monitors that no longer exist (replaced by a
        #: reshard or a control rebuild). Folding them into ``merged_*``
        #: keeps the merged work totals monotone across reconfigurations;
        #: the control wrapper may drive individual fields negative to
        #: keep the merged totals exactly neutral, which is fine — they
        #: are correction terms, not counters anyone reads directly.
        self._retired_counters = MonitorCounters()
        self._retired_io = IoStats()
        self._retired_units = UnitKernelStats()
        fleet = list(self.units)
        self._shards = tuple(
            _Shard(s, factory(config, shard_places, fleet))
            for s, shard_places in enumerate(self.plan.split_places(places))
        )
        #: routing outcome counters (full = maintain+access delivery).
        self.full_deliveries = 0
        self.sync_deliveries = 0
        self._init_reports: list[InitReport] = []
        self._merge_cache: list[SafetyRecord] | None = None

    @staticmethod
    def _resolve_scheme(scheme: str) -> Callable:
        from repro.api import SCHEMES

        try:
            return SCHEMES[scheme]
        except KeyError:
            raise ValueError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}"
            ) from None

    # -- the phase API ----------------------------------------------------

    def _build_initial_state(self) -> None:
        self._init_reports = [
            sh.monitor.initialize() for sh in self._shards
        ]

    def _init_report(self, elapsed: float) -> InitReport:
        return InitReport(
            seconds=elapsed,
            cells_accessed=sum(r.cells_accessed for r in self._init_reports),
            places_loaded=sum(r.places_loaded for r in self._init_reports),
            sk=self.sk(),
            maintained_places=self.maintained_count(),
        )

    def _apply(self, update: LocationUpdate) -> None:
        old = self.units.apply(update)
        targets = set(self.router.route(old, update.new_location))
        for sh in self._shards:
            sh.queue.append((update, sh.shard_id in targets))
        self.full_deliveries += len(targets)
        self.sync_deliveries += len(self._shards) - len(targets)
        self._merge_cache = None

    def _apply_burst(self, moves: Sequence[CoalescedMove]) -> int:
        """Route each chain once, on the *union* of its per-step targets.

        A shard outside every step's route keeps all its cells at ``N``
        across every waypoint transition of the chain — no safety
        change, no Table I/II action — so delivering the whole chain as
        one unit-position sync is exact. A shard inside the union gets
        the chain as one full delivery; its own burst maintain phase
        only ever emits actions for cells inside some step's candidate
        block (cells outside are ``N → N``, which no fold emits), so
        the per-shard state is bit-identical to per-update routing.
        Each step is still routed individually, keeping the router's
        fanout statistics on raw-update granularity;
        :attr:`full_deliveries` / :attr:`sync_deliveries`, by contrast,
        count *deliveries made*, which coalescing genuinely reduces.
        """
        skipped = 0
        # every chain head is checked before any unit moves or any shard
        # queues a delivery: a stale head leaves the burst unapplied.
        for move, step_old in zip(moves, self.units.apply_moves(moves)):
            targets: set[int] = set()
            for raw in move.raws:
                targets.update(self.router.route(step_old, raw.new_location))
                step_old = raw.new_location
            for sh in self._shards:
                sh.queue.append((move, sh.shard_id in targets))
            self.full_deliveries += len(targets)
            self.sync_deliveries += len(self._shards) - len(targets)
            skipped += move.raw_count - 1
        self._merge_cache = None
        return skipped

    def _refresh(self) -> int:
        accessed = sum(self._drain(sh) for sh in self._shards if sh.queue)
        self._merge_cache = None
        return accessed

    def _drain(self, shard: _Shard) -> int:
        """Drain one shard, wrapped in an observability span when a
        bundle is attached."""
        obs = self.obs
        if obs is None:
            return self._drain_queue(shard)
        with obs.tracer.span(
            "shard.drain",
            cat="shard",
            shard=shard.shard_id,
            queued=len(shard.queue),
        ):
            return self._drain_queue(shard)

    def _drain_queue(self, shard: _Shard) -> int:
        """Deliver a shard's queued deliveries (in arrival order) and
        run its access phase if any delivery was full.

        *Full* chain deliveries are re-batched into one ``apply_burst``
        call on the shard monitor, so each shard's ``apply_chains`` sees
        the widest burst the queue allows. Maintain work commutes
        across different units, so the batch is flushed only before a
        delivery (full or sync, chain or plain update) for a unit already
        in it — possible when several top-level bursts are queued before
        one access phase. Each unit therefore sees its own deliveries in
        arrival order, which is all exactness needs.
        """
        dirty = False
        burst: list[CoalescedMove] = []
        burst_units: set[int] = set()

        def flush() -> None:
            if burst:
                shard.monitor.apply_burst(burst)
                burst.clear()
                burst_units.clear()

        for delivery, full in shard.queue:
            is_chain = isinstance(delivery, CoalescedMove)
            if delivery.unit_id in burst_units:
                flush()
            if not full:
                shard.monitor.units.apply_chain(
                    delivery.raws if is_chain else (delivery,)
                )
                continue
            dirty = True
            if is_chain:
                burst.append(delivery)
                burst_units.add(delivery.unit_id)
            else:
                shard.monitor.apply_update(delivery)
        flush()
        shard.queue.clear()
        return shard.monitor.refresh() if dirty else 0

    # -- results ----------------------------------------------------------

    def _merged(self) -> list[SafetyRecord]:
        if self._merge_cache is None:
            obs = self.obs
            if obs is None:
                self._merge_cache = self.merger.merge(
                    [sh.monitor for sh in self._shards]
                )
            else:
                with obs.tracer.span(
                    "topk.merge", cat="shard", shards=len(self._shards)
                ):
                    self._merge_cache = self.merger.merge(
                        [sh.monitor for sh in self._shards]
                    )
        return self._merge_cache

    def top_k(self) -> list[SafetyRecord]:
        return list(self._merged())

    def sk(self) -> float:
        if self.config.k <= 0:
            return -math.inf
        merged = self._merged()
        if len(merged) < self.config.k:
            return math.inf
        return merged[-1].safety

    def maintained_count(self) -> int:
        return sum(sh.monitor.maintained_count() for sh in self._shards)

    # -- aggregation across shards ---------------------------------------

    @property
    def shards(self) -> tuple[_Shard, ...]:
        """The shards (id, monitor, pending queue), ascending id."""
        return self._shards

    def merged_counters(self) -> MonitorCounters:
        """Work counters summed over all shard monitors.

        The top-level :attr:`counters` only track the stream totals the
        base class records (updates processed, wall-time split); the
        actual monitoring work — cell accesses, bound adjustments,
        distance rows — happens inside the shard monitors and is
        aggregated here.
        """
        return self._child_counters() + self._retired_counters

    def merged_io(self) -> IoStats:
        """Page-level I/O summed over all shard stores."""
        return self._child_io() + self._retired_io

    def merged_unit_stats(self) -> UnitKernelStats:
        """Reachability-prefilter work summed over all shard indexes."""
        return self._child_units() + self._retired_units

    def _child_counters(self) -> MonitorCounters:
        total = MonitorCounters()
        for sh in self._shards:
            total = total + sh.monitor.counters
        return total

    def _child_io(self) -> IoStats:
        total = IoStats()
        for sh in self._shards:
            total = total + sh.monitor.store.io_stats
        return total

    def _child_units(self) -> UnitKernelStats:
        total = UnitKernelStats()
        for sh in self._shards:
            total = total + sh.monitor.units.stats
        return total

    # -- checkpointing ----------------------------------------------------
    #
    # A sharded snapshot is a *consistent cut*: it is only legal at a
    # batch boundary, when every shard's delivery queue has been drained
    # — so the per-shard child snapshots and the global routing counters
    # all describe the same prefix of the update stream.

    def _export_scheme_state(self) -> dict[str, Any]:
        if any(sh.queue for sh in self._shards):
            raise ValueError(
                "cannot snapshot with pending shard deliveries; "
                "flush the batch first (consistent-cut rule)"
            )
        return {
            "plan": self.plan.assignment_list(),
            "scheme_name": self.scheme_name,
            "full_deliveries": self.full_deliveries,
            "sync_deliveries": self.sync_deliveries,
            "merge_stats": {
                "merges": self.merger.stats.merges,
                "shards_queried": self.merger.stats.shards_queried,
                "refills": self.merger.stats.refills,
                "records_pulled": self.merger.stats.records_pulled,
            },
            "retired": {
                "counters": self._retired_counters.as_dict(),
                "io": {
                    "page_reads": self._retired_io.page_reads,
                    "buffered_reads": self._retired_io.buffered_reads,
                    "page_writes": self._retired_io.page_writes,
                    "array_hits": self._retired_io.array_hits,
                },
                "units": {
                    "queries": self._retired_units.queries,
                    "candidate_units": self._retired_units.candidate_units,
                    "reachable_units": self._retired_units.reachable_units,
                    "coalesced_updates": self._retired_units.coalesced_updates,
                },
            },
            "shards": [sh.monitor.export_state() for sh in self._shards],
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        if [int(s) for s in fields["plan"]] != self.plan.assignment_list():
            raise ValueError(
                "snapshot shard plan does not match the constructed monitor"
            )
        if fields["scheme_name"] != self.scheme_name:
            raise ValueError(
                "snapshot per-shard scheme does not match the constructed "
                "monitor"
            )
        children = fields["shards"]
        if len(children) != len(self._shards):
            raise ValueError("snapshot shard count mismatch")
        for sh, child_state in zip(self._shards, children):
            sh.monitor.restore_state(child_state)
            sh.queue.clear()
        self.full_deliveries = int(fields["full_deliveries"])
        self.sync_deliveries = int(fields["sync_deliveries"])
        self.merger.stats.restore(MergeStats(**fields["merge_stats"]))
        self._restore_retired(fields)
        self._merge_cache = None

    def _restore_retired(self, fields: Mapping[str, Any]) -> None:
        # snapshots from before the control plane carry no retired
        # ledgers; zeros are exactly right for them.
        retired = fields.get("retired")
        if retired is None:
            self._retired_counters = MonitorCounters()
            self._retired_io = IoStats()
            self._retired_units = UnitKernelStats()
        else:
            self._retired_counters = MonitorCounters.from_dict(
                retired["counters"]
            )
            self._retired_io = IoStats(**retired["io"])
            self._retired_units = UnitKernelStats(**retired["units"])

    def restore_counter_state(self, state: Mapping[str, Any]) -> None:
        # the priming read after a resume re-runs the global merge, which
        # queries shard monitors (their lazy place fetches touch shard
        # storage) and bumps the merger's counters — re-pin those too.
        fields = state["scheme_state"]
        for sh, child_state in zip(self._shards, fields["shards"]):
            sh.monitor.restore_counter_state(child_state)
        self.merger.stats.restore(MergeStats(**fields["merge_stats"]))
        self._restore_retired(fields)
        super().restore_counter_state(state)

    # -- reconfiguration (repro.control) ----------------------------------

    def _control_work_snapshot(self) -> dict[str, Any]:
        token = super()._control_work_snapshot()
        token["merged_counters"] = self.merged_counters()
        token["merged_io"] = self.merged_io()
        token["merged_units"] = self.merged_unit_stats()
        token["merge_stats"] = MergeStats(
            self.merger.stats.merges,
            self.merger.stats.shards_queried,
            self.merger.stats.refills,
            self.merger.stats.records_pulled,
        )
        return token

    def _control_work_restore(self, token: Mapping[str, Any]) -> None:
        super()._control_work_restore(token)
        # make the *merged* ledgers exactly neutral, whatever happened to
        # the children (incremental patches, rebuilds, a full reshard):
        # retired = saved merged totals - what the current children hold.
        self._retired_counters = token["merged_counters"] - self._child_counters()
        self._retired_io = token["merged_io"] - self._child_io()
        self._retired_units = token["merged_units"] - self._child_units()
        self.merger.stats.restore(token["merge_stats"])

    def _reset_scheme_state(self) -> None:
        """Rebuild fallback: fresh shard monitors over the current world.

        The plan is recomputed when the grid changed under it (a grid
        retune); otherwise the current plan is kept — resharding swaps
        the plan *before* requesting a rebuild.
        """
        if self.plan.grid is not self.grid:
            self.plan = plan_for(self.grid, self.plan.n_shards, self._strategy)
        self.router = ShardRouter(self.plan, self.config.protection_range)
        merger = GlobalTopK(self.config.k, self.merger.initial_request)
        merger.stats.restore(self.merger.stats)
        self.merger = merger
        fleet = list(self.units)
        places = self.store.peek_all_places()
        self._shards = tuple(
            _Shard(s, self._factory(self.config, shard_places, fleet))
            for s, shard_places in enumerate(self.plan.split_places(places))
        )
        self._init_reports = []
        self._merge_cache = None

    def _route_place_event(self, event: Any, cell: Any) -> bool:
        """Deliver an (already globally applied) place event to the one
        shard monitor owning the place's cell."""
        # local import: repro.control sits above repro.shard.
        from repro.control.apply import apply_control

        shard = self.plan.shard_of_cell(cell)
        apply_control(self._shards[shard].monitor, event)
        self._merge_cache = None
        return True

    def _control_place_added(self, place: Place, cell: Any) -> bool:
        from repro.control.events import PlaceAdded

        return self._route_place_event(PlaceAdded(place), cell)

    def _control_place_removed(self, place: Place, cell: Any) -> bool:
        from repro.control.events import PlaceRemoved

        return self._route_place_event(PlaceRemoved(place.place_id), cell)

    def _control_place_reweighted(
        self, old: Place, new: Place, cell: Any
    ) -> bool:
        from repro.control.events import PlaceReweighted

        return self._route_place_event(
            PlaceReweighted(new.place_id, new.required_protection), cell
        )

    def _control_k_changed(self) -> bool:
        from repro.control.apply import apply_control
        from repro.control.events import KChanged

        for sh in self._shards:
            apply_control(sh.monitor, KChanged(self.config.k))
        merger = GlobalTopK(self.config.k, self.merger.initial_request)
        merger.stats.restore(self.merger.stats)
        self.merger = merger
        self._merge_cache = None
        return True

    def _control_reshard(self, shards: int, strategy: str) -> bool:
        """Online resharding: swap the plan, migrate per-cell state.

        For the grid-bound schemes (basic/opt) the per-shard state is
        keyed by cell, so moving a cell between shards means moving its
        ``CellState`` row and its maintained-place rows verbatim — the
        migration below does exactly that through the snapshot codecs,
        then restores fresh shard monitors from the synthesized
        documents. DecHash pairs are *not* migrated: an empty DecHash
        only re-arms one decrease per (unit, cell), which keeps bounds
        sound and matches what a from-scratch rebuild produces. Nor are
        OptCTUP's cached AP columns: each cell recounts at its next
        access. Each new shard then runs its access phase against its
        own SK. Other schemes fall back to fresh shard monitors
        initialized over the new plan.
        """
        if any(sh.queue for sh in self._shards):
            raise ValueError(
                "cannot reshard with pending shard deliveries; "
                "flush the batch first (consistent-cut rule)"
            )
        new_plan = plan_for(self.grid, shards, strategy)
        self._strategy = strategy
        if self.scheme_name not in ("basic", "opt"):
            self.plan = new_plan
            return False
        old_docs = [sh.monitor.export_state() for sh in self._shards]
        units_rows = old_docs[0]["units"]
        cell_rows: list[list[Any]] = [[] for _ in range(new_plan.n_shards)]
        maint_rows: list[list[Any]] = [[] for _ in range(new_plan.n_shards)]
        for doc in old_docs:
            scheme_state = doc["scheme_state"]
            for row in scheme_state["cell_states"]:
                cell = self.grid.from_linear(int(row[0]))
                cell_rows[new_plan.shard_of_cell(cell)].append(row)
            for row in scheme_state["maintained"]:
                cell = self.grid.from_linear(int(row[2]))
                maint_rows[new_plan.shard_of_cell(cell)].append(row)
        docs = []
        for s in range(new_plan.n_shards):
            scheme_state: dict[str, Any] = {
                "cell_states": cell_rows[s],
                "maintained": maint_rows[s],
            }
            if self.scheme_name == "opt":
                scheme_state["dechash"] = []
                scheme_state["ap_cache"] = []
            docs.append(
                {
                    "state_version": STATE_VERSION,
                    "scheme": self.scheme_name,
                    "units": units_rows,
                    "unit_stats": {
                        "queries": 0,
                        "candidate_units": 0,
                        "reachable_units": 0,
                        "coalesced_updates": 0,
                    },
                    "io": {
                        "page_reads": 0,
                        "buffered_reads": 0,
                        "page_writes": 0,
                        "array_hits": 0,
                    },
                    "store_cache": {
                        "arrays": [],
                        "frames": [],
                        "buffer_hits": 0,
                        "buffer_misses": 0,
                    },
                    "counters": MonitorCounters().as_dict(),
                    "epoch": 0,
                    "scheme_state": scheme_state,
                }
            )
        fleet = list(self.units)
        places = self.store.peek_all_places()
        children = [
            self._factory(self.config, shard_places, fleet)
            for shard_places in new_plan.split_places(places)
        ]
        for child, doc in zip(children, docs):
            child.restore_state(doc)
            # the rows were valid against the old shard's SK; a shard of
            # fewer places has a higher one, so dark cells below it load.
            child._refresh()
        self.plan = new_plan
        self.router = ShardRouter(new_plan, self.config.protection_range)
        self._shards = tuple(
            _Shard(s, child) for s, child in enumerate(children)
        )
        self._merge_cache = None
        return True
