"""Result-change tracking."""

import pytest

from repro.core import ChangeTracker, CTUPConfig, OptCTUP
from repro.geometry import Point
from repro.model import LocationUpdate, Place, Unit


@pytest.fixture
def tracker(small_config, small_places, small_units):
    tracker = ChangeTracker(OptCTUP(small_config, small_places, small_units))
    tracker.initialize()
    return tracker


#: the two-update world's places: a pair near (0.25, 0.2) and a pair
#: near (0.85, 0.8), all with RP 2. Ids are chosen so that a set of
#: either pair does not iterate in sorted order.
WEST, EAST = (9, 2), (11, 4)


@pytest.fixture
def two_moves():
    """A k=2 world and two updates that drive a tracker through both
    kinds of change.

    At the start unit 0 covers the west pair (safety -1 each) and the
    east pair is bare (-2 each): the top-k is the east pair, SK -2.
    ``swap`` moves unit 0 east: the west pair drops to -2 and enters the
    top-k together while the east pair leaves, and SK stays -2.
    ``lift`` then moves the idle unit 1 onto the west pair: every place
    is at -1, so SK rises to -1.
    """
    config = CTUPConfig(k=2, protection_range=0.1, granularity=4)
    places = [
        Place(WEST[0], Point(0.2, 0.2), 2),
        Place(WEST[1], Point(0.3, 0.2), 2),
        Place(EAST[0], Point(0.8, 0.8), 2),
        Place(EAST[1], Point(0.9, 0.8), 2),
    ]
    units = [Unit(0, Point(0.25, 0.2), 0.1), Unit(1, Point(0.5, 0.5), 0.1)]
    tracker = ChangeTracker(OptCTUP(config, places, units))
    tracker.initialize()
    swap = LocationUpdate(0, Point(0.25, 0.2), Point(0.85, 0.8), 1.0)
    lift = LocationUpdate(1, Point(0.5, 0.5), Point(0.25, 0.2), 2.0)
    return tracker, swap, lift


class TestChangeTracker:
    def test_no_change_returns_none_or_change(self, tracker, small_stream):
        outcomes = [tracker.process(u) for u in small_stream.prefix(50)]
        # most updates do not move the result.
        assert any(c is None for c in outcomes)

    def test_changes_reflect_truth(
        self, tracker, small_oracle, small_stream, small_config
    ):
        last_ids = {r.place_id for r in tracker.monitor.top_k()}
        for update in small_stream:
            small_oracle.apply(update)
            change = tracker.process(update)
            ids = {r.place_id for r in tracker.monitor.top_k()}
            if change is not None:
                entered = {r.place_id for r in change.entered}
                left = {r.place_id for r in change.left}
                assert entered == ids - last_ids
                assert left == last_ids - ids
            else:
                assert ids == last_ids
            last_ids = ids

    def test_subscribers_invoked(self, tracker, small_stream):
        seen = []
        tracker.subscribe(seen.append)
        for update in small_stream:
            tracker.process(update)
        assert len(seen) == tracker.changes_seen
        assert seen, "a 150-update stream should move the result at least once"

    def test_sk_changed_flag(self, two_moves):
        tracker, swap, lift = two_moves
        assert tracker.monitor.sk() == -2.0
        change = tracker.process(swap)
        assert change is not None and not change.sk_changed
        change = tracker.process(lift)
        assert change is not None
        assert (change.sk_before, change.sk_after) == (-2.0, -1.0)
        assert change.sk_changed

    def test_entered_and_left_sorted(self, two_moves):
        tracker, swap, _ = two_moves
        assert set(tracker.monitor.topk_ids()) == set(EAST)
        change = tracker.process(swap)
        assert change is not None
        assert [r.place_id for r in change.entered] == sorted(WEST)
        assert [r.place_id for r in change.left] == sorted(EAST)
        assert [r.safety for r in change.entered] == [-2.0, -2.0]
