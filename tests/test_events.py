"""Result-change tracking."""

import pytest

from repro.core import ChangeTracker, OptCTUP
from repro.ext import ThresholdCTUP
from repro.validate import Oracle


@pytest.fixture
def tracker(small_config, small_places, small_units):
    tracker = ChangeTracker(OptCTUP(small_config, small_places, small_units))
    tracker.initialize()
    return tracker


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

    def test_sk_changed_flag(self, tracker, small_stream):
        for update in small_stream:
            change = tracker.process(update)
            if change is not None and change.sk_before != change.sk_after:
                assert change.sk_changed
                return
        pytest.skip("stream never moved SK")

    def test_entered_and_left_sorted(self, tracker, small_stream):
        for update in small_stream:
            change = tracker.process(update)
            if change is not None and len(change.entered) > 1:
                ids = [r.place_id for r in change.entered]
                assert ids == sorted(ids)


class TestThresholdTracking:
    def test_changes_follow_the_unsafe_set(
        self, small_config, small_places, small_units, small_stream
    ):
        # the threshold result is every place below tau, not OptCTUP's
        # maintained top-k: the tracker must diff the set top_k() returns.
        tracker = ChangeTracker(
            ThresholdCTUP(small_config, small_places, small_units, tau=-1.0)
        )
        tracker.initialize()
        last = {r.place_id for r in tracker.monitor.top_k()}
        assert len(last) != small_config.k
        for update in small_stream:
            change = tracker.process(update)
            ids = {r.place_id for r in tracker.monitor.top_k()}
            if ids == last:
                assert change is None
            else:
                assert {r.place_id for r in change.entered} == ids - last
                assert {r.place_id for r in change.left} == last - ids
            last = ids
