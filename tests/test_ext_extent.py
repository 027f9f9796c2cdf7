"""Places with extent (§VII)."""

import random

import pytest

from repro.ext import ExtentCTUP, ExtentPlace
from repro.geometry import Point, Rect
from repro.workloads import RandomWalkMobility, generate_units, record_stream


def random_extent_places(n, seed, max_half=0.01):
    rng = random.Random(seed)
    places = []
    for i in range(n):
        cx, cy = rng.random(), rng.random()
        hw, hh = rng.uniform(0, max_half), rng.uniform(0, max_half)
        places.append(
            ExtentPlace(
                i,
                Rect(
                    max(0.0, cx - hw),
                    max(0.0, cy - hh),
                    min(1.0, cx + hw),
                    min(1.0, cy + hh),
                ),
                rng.choice([0, 0, 1, 1, 2, 5, 9]),
            )
        )
    return places


def brute_force(places, positions, radius):
    def ap(rect):
        count = 0
        for p in positions.values():
            dx = max(rect.xmin - p.x, 0.0, p.x - rect.xmax)
            dy = max(rect.ymin - p.y, 0.0, p.y - rect.ymax)
            if dx * dx + dy * dy <= radius * radius:
                count += 1
        return count

    return {p.place_id: float(ap(p.extent) - p.required_protection) for p in places}


@pytest.fixture
def extent_world(small_config):
    places = random_extent_places(500, seed=8)
    units = generate_units(25, small_config.protection_range, seed=9)
    stream = record_stream(RandomWalkMobility(units, step=0.03, seed=10), 100)
    return places, units, stream


class TestExtentPlace:
    def test_anchor_is_center(self):
        p = ExtentPlace(0, Rect(0.1, 0.1, 0.3, 0.5), 1)
        assert p.anchor() == Point(0.2, 0.3)

    def test_negative_rp_rejected(self):
        with pytest.raises(ValueError):
            ExtentPlace(0, Rect(0, 0, 1, 1), -1)


class TestExtentMonitor:
    def check_valid(self, monitor, places, positions, radius, k):
        truth = brute_force(places, positions, radius)
        values = sorted(truth.values())
        true_sk = values[k - 1]
        result = monitor.top_k()
        assert len(result) == k
        for record in result:
            assert truth[record.place_id] == record.safety
        assert max(r.safety for r in result) == true_sk
        must = {pid for pid, s in truth.items() if s < true_sk}
        assert must <= {r.place_id for r in result}

    def test_initial_result(self, small_config, extent_world):
        places, units, _ = extent_world
        monitor = ExtentCTUP(small_config, places, units)
        monitor.initialize()
        positions = {u.unit_id: u.location for u in units}
        self.check_valid(
            monitor, places, positions, small_config.protection_range,
            small_config.k,
        )

    def test_tracks_stream(self, small_config, extent_world):
        places, units, stream = extent_world
        monitor = ExtentCTUP(small_config, places, units)
        monitor.initialize()
        positions = {u.unit_id: u.location for u in units}
        for i, update in enumerate(stream):
            monitor.process(update)
            positions[update.unit_id] = update.new_location
            if i % 25 == 24:
                self.check_valid(
                    monitor,
                    places,
                    positions,
                    small_config.protection_range,
                    small_config.k,
                )
        # ExtentCTUP runs its own update loop, so it charges its own
        # counters: once per update, every phase timed.
        counters = monitor.counters
        assert counters.updates_processed == len(stream)
        assert counters.time_init_s > 0
        assert counters.time_maintain_s > 0
        assert counters.time_access_s > 0
        assert counters.maintained_peak >= len(monitor._maintained)

    def test_point_extents_match_core(self, small_config, small_places, small_units, small_stream, small_oracle):
        """Zero-extent rectangles reproduce the point-place semantics."""
        eplaces = [
            ExtentPlace(
                p.place_id,
                Rect(p.location.x, p.location.y, p.location.x, p.location.y),
                p.required_protection,
            )
            for p in small_places
        ]
        monitor = ExtentCTUP(small_config, eplaces, small_units)
        monitor.initialize()
        for update in small_stream.prefix(60):
            small_oracle.apply(update)
            monitor.process(update)
        truth = small_oracle.safeties()
        for record in monitor.top_k():
            assert truth[record.place_id] == record.safety
        assert monitor.sk() == small_oracle.sk(small_config.k)

    def test_duplicate_ids_rejected(self, small_config, small_units):
        p = ExtentPlace(0, Rect(0.1, 0.1, 0.2, 0.2), 1)
        with pytest.raises(ValueError):
            ExtentCTUP(small_config, [p, p], small_units)

    def test_empty_places_rejected(self, small_config, small_units):
        with pytest.raises(ValueError):
            ExtentCTUP(small_config, [], small_units)

    def test_lifecycle_guards(self, small_config, extent_world):
        places, units, stream = extent_world
        monitor = ExtentCTUP(small_config, places, units)
        with pytest.raises(RuntimeError):
            monitor.process(stream[0])
        monitor.initialize()
        with pytest.raises(RuntimeError):
            monitor.initialize()

    def test_unknown_semantics_rejected(self, small_config, small_units):
        places = random_extent_places(10, seed=1)
        with pytest.raises(ValueError):
            ExtentCTUP(small_config, places, small_units, semantics="touches")

    def test_covers_semantics_tracks_truth(self, small_config, extent_world):
        """The 'covers' reading: a disk must contain the whole extent."""
        places, units, stream = extent_world
        monitor = ExtentCTUP(small_config, places, units, semantics="covers")
        monitor.initialize()
        positions = {u.unit_id: u.location for u in units}
        for update in stream:
            monitor.process(update)
            positions[update.unit_id] = update.new_location
        radius = small_config.protection_range

        def ap(rect):
            count = 0
            for p in positions.values():
                dx = max(p.x - rect.xmin, rect.xmax - p.x)
                dy = max(p.y - rect.ymin, rect.ymax - p.y)
                if dx * dx + dy * dy <= radius * radius:
                    count += 1
            return count

        truth = {
            p.place_id: float(ap(p.extent) - p.required_protection)
            for p in places
        }
        values = sorted(truth.values())
        true_sk = values[small_config.k - 1]
        result = monitor.top_k()
        for record in result:
            assert truth[record.place_id] == record.safety
        assert max(r.safety for r in result) == true_sk

    def test_covers_never_exceeds_intersects(self, small_config, extent_world):
        """Coverage is the stricter predicate: safeties can only drop."""
        places, units, _ = extent_world
        generous = ExtentCTUP(small_config, places, units, semantics="intersects")
        strict = ExtentCTUP(small_config, places, units, semantics="covers")
        generous.initialize()
        strict.initialize()
        assert strict.sk() <= generous.sk()

    def test_large_extents_still_valid(self, small_config, small_units):
        """Extents comparable to a cell stress the inflated classification."""
        places = random_extent_places(200, seed=3, max_half=0.08)
        stream = record_stream(
            RandomWalkMobility(small_units, step=0.04, seed=4), 60
        )
        monitor = ExtentCTUP(small_config, places, small_units)
        monitor.initialize()
        positions = {u.unit_id: u.location for u in small_units}
        for update in stream:
            monitor.process(update)
            positions[update.unit_id] = update.new_location
        self.check_valid(
            monitor, places, positions, small_config.protection_range,
            small_config.k,
        )
