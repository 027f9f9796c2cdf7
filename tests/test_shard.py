"""Sharded execution: plan/router/merge units plus equivalence suites.

The equivalence tests are the heart of the sharding correctness story:
for every scheme and every shard count the sharded monitor must report
the *same* top-k list as the unsharded monitor (the ``(safety, id)``
tie-break makes the answer unique), and with one shard the whole
execution — including the shard monitor's work counters — must be
bit-identical to running the plain scheme.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BasicCTUP, CTUPConfig, NaiveCTUP, OptCTUP
from repro.core.audit import audit_monitor
from repro.core.batch import coalesce_burst
from repro.core.incremental import IncrementalNaiveCTUP
from repro.engine.session import MonitorSession
from repro.geometry import Point, Rect
from repro.grid.partition import GridPartition
from repro.model import Place, SafetyRecord
from repro.shard import (
    GlobalTopK,
    ShardPlan,
    ShardRouter,
    ShardedMonitor,
    plan_for,
)
from repro.shard.plan import plan_for as plan_for_direct
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)
from tests.conftest import result_pairs

SCHEMES = [NaiveCTUP, BasicCTUP, OptCTUP, IncrementalNaiveCTUP]
SHARD_COUNTS = [1, 2, 4, 7]


def _grid(n: int = 8) -> GridPartition:
    return GridPartition(Rect(0.0, 0.0, 1.0, 1.0), n, n)


def _replay(monitor, stream):
    monitor.initialize()
    for update in stream:
        monitor.process(update)
    return monitor


def _assert_same_answer(sharded, plain) -> None:
    """The equivalence the schemes guarantee: identical SK, identical
    safety sequence, and an identical strictly-below-SK set.

    The reported *ids* of places tied exactly at SK may differ between
    executions (paper Definition 4: any tied place is a valid k-th), so
    full list identity is only asserted for the full-recompute schemes
    — see ``test_topk_identical_for_full_recompute_schemes``.
    """
    assert sharded.sk() == plain.sk()
    s_pairs, p_pairs = result_pairs(sharded), result_pairs(plain)
    assert [s for _, s in s_pairs] == [s for _, s in p_pairs]
    sk = plain.sk()
    assert sorted(p for p in s_pairs if p[1] < sk) == sorted(
        p for p in p_pairs if p[1] < sk
    )


# -- the shard plan ---------------------------------------------------------


class TestShardPlan:
    def test_striped_covers_every_cell(self):
        grid = _grid()
        plan = ShardPlan.striped(grid, 4)
        assert plan.n_shards == 4
        assert sum(plan.cell_counts()) == grid.cell_count
        assert all(count > 0 for count in plan.cell_counts())

    def test_interleaved_and_hashed_cover_every_cell(self):
        grid = _grid()
        for plan in (
            ShardPlan.interleaved(grid, 3),
            ShardPlan.hashed(grid, 3, seed=5),
        ):
            assert plan.n_shards == 3
            assert sum(plan.cell_counts()) == grid.cell_count

    def test_build_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ShardPlan.build(_grid(), 2, strategy="roulette")

    def test_rejects_nonpositive_and_oversized_shard_counts(self):
        grid = _grid(2)  # 4 cells
        with pytest.raises(ValueError):
            ShardPlan.striped(grid, 0)
        with pytest.raises(ValueError):
            ShardPlan.striped(grid, 5)

    def test_from_mapping_roundtrip_and_padding(self):
        grid = _grid(2)
        mapping = {
            (i, j): (i * 2 + j) % 2 for i in range(2) for j in range(2)
        }
        plan = ShardPlan.from_mapping(grid, mapping, n_shards=3)
        assert plan.n_shards == 3  # padded with one empty shard
        assert plan.cell_counts() == [2, 2, 0]
        for cell, shard in mapping.items():
            assert plan.shard_of_cell(cell) == shard

    def test_from_mapping_rejects_missing_cells(self):
        grid = _grid(2)
        with pytest.raises(ValueError, match="unassigned"):
            ShardPlan.from_mapping(grid, {(0, 0): 0})

    def test_from_mapping_rejects_too_small_n_shards(self):
        grid = _grid(2)
        mapping = {(i, j): i for i in range(2) for j in range(2)}
        with pytest.raises(ValueError, match="shard id"):
            ShardPlan.from_mapping(grid, mapping, n_shards=1)

    def test_shards_in_block_empty_block(self):
        plan = ShardPlan.striped(_grid(), 4)
        assert plan.shards_in_block((3, 2, 0, 1)) == frozenset()

    def test_split_places_partitions_and_keeps_order(self):
        grid = _grid(4)
        plan = ShardPlan.striped(grid, 2)
        places = generate_places(50, seed=3)
        split = plan.split_places(places)
        assert sum(len(part) for part in split) == len(places)
        for shard, part in enumerate(split):
            for place in part:
                assert plan.shard_of_place(place) == shard
        flat_ids = sorted(p.place_id for part in split for p in part)
        assert flat_ids == sorted(p.place_id for p in places)

    def test_plan_for_coercions(self):
        grid = _grid(2)
        plan = ShardPlan.striped(grid, 2)
        assert plan_for(grid, plan) is plan
        assert plan_for(grid, 2).n_shards == 2
        by_sequence = plan_for(grid, [0, 0, 1, 1])
        assert by_sequence.n_shards == 2

    def test_plan_for_rejects_wrong_length_sequence(self):
        with pytest.raises(ValueError, match="entries"):
            plan_for(_grid(2), [0, 1])

    def test_plan_for_rejects_foreign_grid_plan(self):
        plan = ShardPlan.striped(_grid(4), 2)
        with pytest.raises(ValueError, match="different grid"):
            plan_for(_grid(8), plan)

    def test_plan_for_reexported(self):
        assert plan_for is plan_for_direct


# -- the router -------------------------------------------------------------


class TestShardRouter:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ShardRouter(ShardPlan.striped(_grid(), 2), -0.1)

    def test_route_is_sorted_and_counts_fanout(self):
        plan = ShardPlan.striped(_grid(), 4)
        router = ShardRouter(plan, 0.1)
        targets = router.route(Point(0.05, 0.5), Point(0.95, 0.5))
        assert list(targets) == sorted(targets)
        # a move across the whole space touches both edge shards.
        assert 0 in targets and 3 in targets
        assert router.updates_routed == 1
        assert router.fanout_total == len(targets)

    def test_small_move_stays_local(self):
        plan = ShardPlan.striped(_grid(), 4)
        router = ShardRouter(plan, 0.05)
        targets = router.route(Point(0.06, 0.5), Point(0.07, 0.5))
        assert targets == (0,)

    def test_route_covers_owning_shards_of_disk_cells(self):
        grid = _grid()
        plan = ShardPlan.hashed(grid, 5, seed=1)
        router = ShardRouter(plan, 0.1)
        old, new = Point(0.31, 0.42), Point(0.55, 0.61)
        targets = set(router.route(old, new))
        # every cell whose centre lies in either disk belongs to a
        # routed shard (conservative block routing must cover them).
        for i in range(grid.nx):
            for j in range(grid.ny):
                centre = grid.cell_rect((i, j)).center()
                if (
                    centre.distance_to(old) <= 0.1
                    or centre.distance_to(new) <= 0.1
                ):
                    assert plan.shard_of_cell((i, j)) in targets


# -- the merger -------------------------------------------------------------


def _record(pid: int, safety: float) -> SafetyRecord:
    return SafetyRecord(Place(pid, Point(0.5, 0.5), 1), safety)


class _FakeShard:
    """A minimal monitor satisfying the partial_top_k contract: it
    tracks every place it owns exactly."""

    class _Store:
        def __init__(self, n):
            self.place_count = n

    def __init__(self, records, k):
        self._records = sorted(records, key=lambda r: (r.safety, r.place_id))
        self._k = k
        self.store = self._Store(len(self._records))
        self.queries: list[int] = []

    def partial_top_k(self, m):
        self.queries.append(m)
        return self._records[:m]

    def sk(self):
        if len(self._records) < self._k:
            return math.inf
        return self._records[self._k - 1].safety


class TestGlobalTopK:
    def test_rejects_bad_k_and_zero_shards(self):
        with pytest.raises(ValueError):
            GlobalTopK(-1)  # k == 0 is legal (KChanged(0) suspends)
        with pytest.raises(ValueError):
            GlobalTopK(3).merge([])

    def test_single_shard_passthrough(self):
        shard = _FakeShard([_record(i, float(i)) for i in range(10)], k=4)
        merged = GlobalTopK(4).merge([shard])
        assert [(r.place_id, r.safety) for r in merged] == [
            (0, 0.0),
            (1, 1.0),
            (2, 2.0),
            (3, 3.0),
        ]

    def test_merge_matches_brute_force(self):
        rng = np.random.default_rng(4)
        k = 6
        shards = []
        everything = []
        for s in range(4):
            records = [
                _record(100 * s + i, float(rng.integers(-5, 5)))
                for i in range(int(rng.integers(0, 12)))
            ]
            everything.extend(records)
            shards.append(_FakeShard(records, k))
        merged = GlobalTopK(k).merge(shards)
        expected = sorted(everything, key=lambda r: (r.safety, r.place_id))
        assert [(r.place_id, r.safety) for r in merged] == [
            (r.place_id, r.safety) for r in expected[:k]
        ]

    def test_fewer_places_than_k_returns_everything(self):
        shards = [
            _FakeShard([_record(1, -2.0)], k=5),
            _FakeShard([_record(2, 3.0)], k=5),
        ]
        merged = GlobalTopK(5).merge(shards)
        assert [r.place_id for r in merged] == [1, 2]

    def test_refill_pulls_only_from_needy_shards(self):
        # shard A holds the whole answer; shard B's floor is far above
        # the global k-th, so it must never be re-queried.
        a = _FakeShard([_record(i, float(i)) for i in range(10)], k=3)
        b = _FakeShard([_record(100 + i, 50.0 + i) for i in range(10)], k=3)
        merger = GlobalTopK(3, initial_request=2)
        merged = merger.merge([a, b])
        assert [r.place_id for r in merged] == [0, 1, 2]
        assert merger.stats.refills > 0
        assert len(b.queries) == 1  # the initial pull only

    def test_requests_never_exceed_k(self):
        shard = _FakeShard([_record(i, 0.0) for i in range(40)], k=8)
        GlobalTopK(8, initial_request=1).merge([shard])
        assert max(shard.queries) <= 8

    def test_stats_accumulate(self):
        shard = _FakeShard([_record(i, float(i)) for i in range(5)], k=2)
        merger = GlobalTopK(2)
        merger.merge([shard])
        merger.merge([shard])
        assert merger.stats.merges == 2
        assert merger.stats.shards_queried >= 2
        assert merger.stats.records_pulled >= 4


# -- end-to-end equivalence -------------------------------------------------


@pytest.fixture(params=SCHEMES, ids=lambda cls: cls.name)
def scheme(request):
    return request.param


class TestShardEquivalence:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_topk_identical_to_unsharded(
        self,
        scheme,
        n_shards,
        small_config,
        small_places,
        small_units,
        small_stream,
        small_oracle,
    ):
        plain = _replay(
            scheme(small_config, small_places, small_units), small_stream
        )
        sharded = _replay(
            ShardedMonitor(
                small_config,
                small_places,
                small_units,
                shards=n_shards,
                scheme=scheme,
            ),
            small_stream,
        )
        _assert_same_answer(sharded, plain)
        if scheme in (NaiveCTUP, IncrementalNaiveCTUP):
            # full recompute tie-breaks over *all* places, so the list
            # is unique and must match exactly, ties included.
            assert result_pairs(sharded) == result_pairs(plain)
        for update in small_stream:
            small_oracle.apply(update)
        verdict = small_oracle.validate(
            sharded.top_k(), small_config.k
        )
        assert verdict.ok, verdict.problems

    def test_single_shard_is_bit_identical_work(
        self, scheme, small_config, small_places, small_units, small_stream
    ):
        plain = _replay(
            scheme(small_config, small_places, small_units), small_stream
        )
        sharded = _replay(
            ShardedMonitor(
                small_config,
                small_places,
                small_units,
                shards=1,
                scheme=scheme,
            ),
            small_stream,
        )
        assert result_pairs(sharded) == result_pairs(plain)
        # with one shard every update is a full delivery, so the inner
        # monitor performs exactly the unsharded work.
        assert sharded.sync_deliveries == 0
        assert sharded.full_deliveries == len(small_stream)
        assert sharded.merged_counters() == plain.counters

    def test_intermediate_results_track_unsharded(
        self, small_config, small_places, small_units, small_stream
    ):
        plain = OptCTUP(small_config, small_places, small_units)
        sharded = ShardedMonitor(
            small_config, small_places, small_units, shards=4, scheme=OptCTUP
        )
        plain.initialize()
        sharded.initialize()
        for i, update in enumerate(small_stream.prefix(40)):
            plain.process(update)
            sharded.process(update)
            if i % 10 == 0:
                _assert_same_answer(sharded, plain)

    @pytest.mark.parametrize("strategy", ShardPlan.STRATEGIES)
    def test_all_strategies_agree(
        self, strategy, small_config, small_places, small_units, small_stream
    ):
        plain = _replay(
            OptCTUP(small_config, small_places, small_units), small_stream
        )
        sharded = _replay(
            ShardedMonitor(
                small_config,
                small_places,
                small_units,
                shards=3,
                scheme=OptCTUP,
                strategy=strategy,
            ),
            small_stream,
        )
        _assert_same_answer(sharded, plain)

    def test_audit_passes_on_sharded_state(
        self, small_config, small_places, small_units, small_stream
    ):
        sharded = _replay(
            ShardedMonitor(
                small_config, small_places, small_units, shards=3
            ),
            small_stream.prefix(60),
        )
        assert audit_monitor(sharded) == []

    def test_session_drives_sharded_monitor(
        self, small_config, small_places, small_units, small_stream
    ):
        plain = _replay(
            OptCTUP(small_config, small_places, small_units), small_stream
        )
        sharded = ShardedMonitor(
            small_config, small_places, small_units, shards=4
        )
        session = MonitorSession(sharded, batch_size=16)
        session.start()
        assert session.run(small_stream) == len(small_stream)
        _assert_same_answer(sharded, plain)

    def test_init_report_aggregates_shards(
        self, small_config, small_places, small_units, small_oracle
    ):
        sharded = ShardedMonitor(
            small_config, small_places, small_units, shards=4
        )
        report = sharded.initialize()
        # every place is loaded at least once (schemes may re-read cells).
        assert report.places_loaded >= len(small_places)
        assert report.sk == small_oracle.sk(small_config.k)
        assert report.maintained_places == sharded.maintained_count()

    def test_sync_deliveries_outnumber_full_on_local_moves(
        self, small_config, small_places, small_units, small_stream
    ):
        sharded = _replay(
            ShardedMonitor(
                small_config, small_places, small_units, shards=7
            ),
            small_stream,
        )
        total = sharded.full_deliveries + sharded.sync_deliveries
        assert total == len(small_stream) * 7
        # random-walk moves are local: most shards only need the sync.
        assert sharded.sync_deliveries > sharded.full_deliveries

    def test_unknown_scheme_rejected(
        self, small_config, small_places, small_units
    ):
        with pytest.raises(ValueError, match="unknown scheme"):
            ShardedMonitor(
                small_config,
                small_places,
                small_units,
                shards=2,
                scheme="quantum",
            )


# -- the drain batches every shard's chains into one kernel call -------------


def _record_child_bursts(sharded) -> list[list[list[int]]]:
    """Wrap each shard monitor's ``apply_burst``; per shard, the unit ids
    of every call, in call order."""
    calls: list[list[list[int]]] = []
    for sh in sharded.shards:
        log: list[list[int]] = []
        calls.append(log)
        inner = sh.monitor.apply_burst

        def wrapped(moves, _inner=inner, _log=log):
            _log.append([m.unit_id for m in moves])
            return _inner(moves)

        sh.monitor.apply_burst = wrapped
    return calls


def _first_moves(stream, nth: int) -> dict:
    """Each unit's ``nth`` update (0-based), by unit id, in stream order."""
    seen: dict[int, list] = {}
    for update in stream:
        seen.setdefault(update.unit_id, []).append(update)
    return {uid: ups[nth] for uid, ups in seen.items() if len(ups) > nth}


def _shard_states(sharded) -> list:
    """Positions plus cell, maintained and DecHash state of every shard."""
    docs = [sh.monitor.export_state() for sh in sharded.shards]
    return [(doc["units"], doc["scheme_state"]) for doc in docs]


class TestDrainBatching:
    def _pair(self, config, places, units):
        """Two initialized 4-shard monitors: the one under test and the
        per-update reference."""
        pair = [
            ShardedMonitor(config, places, units, shards=4, scheme=OptCTUP)
            for _ in range(2)
        ]
        for monitor in pair:
            monitor.initialize()
        return pair

    def test_distinct_units_make_one_call_per_shard(
        self, small_config, small_places, small_units, small_stream
    ):
        burst = list(_first_moves(small_stream, 0).values())
        sharded, reference = self._pair(small_config, small_places, small_units)
        calls = _record_child_bursts(sharded)
        sharded.apply_burst(coalesce_burst(burst))
        sharded.refresh()
        # sync deliveries interleave the full ones in every shard queue,
        # yet no unit repeats: one flush, at most one call per shard.
        assert sharded.sync_deliveries > 0
        assert all(len(log) <= 1 for log in calls), calls
        assert sum(len(log) for log in calls) >= 1
        for update in burst:
            reference.apply_update(update)
        reference.refresh()
        assert result_pairs(sharded) == result_pairs(reference)
        assert _shard_states(sharded) == _shard_states(reference)

    def test_repeated_unit_across_queued_bursts_flushes_again(
        self, small_config, small_places, small_units, small_stream
    ):
        first, second = _first_moves(small_stream, 0), _first_moves(
            small_stream, 1
        )
        sharded, reference = self._pair(small_config, small_places, small_units)
        router = ShardRouter(sharded.plan, small_config.protection_range)

        def targets(update):
            return set(router.route(update.old_location, update.new_location))

        # a unit whose first and second moves are both full on one shard.
        uid, shard_id = next(
            (uid, sid)
            for uid in second
            for sid in sorted(targets(first[uid]) & targets(second[uid]))
        )
        burst1, burst2 = list(first.values()), [second[uid]]
        calls = _record_child_bursts(sharded)
        sharded.apply_burst(coalesce_burst(burst1))
        sharded.apply_burst(coalesce_burst(burst2))
        sharded.refresh()
        # the second chain for the unit opens a second call on its shard.
        assert calls[shard_id][-1] == [uid]
        assert len(calls[shard_id]) == 2
        for log in calls:
            assert len(log) <= 2
            assert all(len(set(ids)) == len(ids) for ids in log)
        for update in burst1 + burst2:
            reference.apply_update(update)
        reference.refresh()
        assert result_pairs(sharded) == result_pairs(reference)
        assert _shard_states(sharded) == _shard_states(reference)

    def test_plain_updates_between_queued_bursts_stay_exact(
        self, small_config, small_places, small_units, small_stream
    ):
        first, second = _first_moves(small_stream, 0), _first_moves(
            small_stream, 1
        )
        # plain updates for units outside the pending batch, then a
        # burst that repeats the batch's units.
        batched, plain = sorted(second)[1::2], sorted(second)[::2]
        order = (
            [("burst", [first[uid] for uid in batched])]
            + [("update", first[uid]) for uid in plain]
            + [("burst", [second[uid] for uid in batched])]
        )
        sharded, reference = self._pair(small_config, small_places, small_units)
        for kind, item in order:
            if kind == "burst":
                sharded.apply_burst(coalesce_burst(item))
                for update in item:
                    reference.apply_update(update)
            else:
                sharded.apply_update(item)
                reference.apply_update(item)
        sharded.refresh()
        reference.refresh()
        assert result_pairs(sharded) == result_pairs(reference)
        assert _shard_states(sharded) == _shard_states(reference)


# -- property: any cell assignment yields the same answer -------------------


_PROP_CONFIG = CTUPConfig(k=4, delta=2, protection_range=0.1, granularity=5)
_PROP_PLACES = generate_places(250, seed=21)
_PROP_UNITS = generate_units(12, _PROP_CONFIG.protection_range, seed=22)
_PROP_STREAM = record_stream(
    RandomWalkMobility(
        generate_units(12, _PROP_CONFIG.protection_range, seed=22),
        step=0.04,
        seed=23,
    ),
    40,
)
_PROP_BASELINE = _replay(
    OptCTUP(_PROP_CONFIG, _PROP_PLACES, _PROP_UNITS), _PROP_STREAM
)


@settings(max_examples=12, deadline=None)
@given(
    assignment=st.lists(
        st.integers(0, 2), min_size=25, max_size=25
    )
)
def test_any_shard_assignment_is_exact(assignment):
    """Whatever the cell -> shard map, the answer equals the baseline."""
    sharded = _replay(
        ShardedMonitor(
            _PROP_CONFIG,
            _PROP_PLACES,
            _PROP_UNITS,
            shards=assignment,
            scheme=OptCTUP,
        ),
        _PROP_STREAM,
    )
    _assert_same_answer(sharded, _PROP_BASELINE)
