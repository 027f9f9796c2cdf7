"""Workload generation: places, units, streams."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.workloads import (
    RandomWalkMobility,
    RequiredProtectionModel,
    clustered_points,
    generate_places,
    generate_units,
    record_stream,
    uniform_points,
)
from repro.workloads.stream import UpdateStream, _reflect


class TestRequiredProtectionModel:
    def test_default_samples_in_range(self):
        model = RequiredProtectionModel()
        rng = random.Random(0)
        values = {model.sample(rng)[0] for _ in range(500)}
        allowed = {rp for rp, _, _ in model.tiers}
        assert values <= allowed
        assert 1 in values  # residences dominate

    def test_constant_model(self):
        model = RequiredProtectionModel.constant(4, label="bank")
        assert model.sample(random.Random(0)) == (4, "bank")

    def test_uniform_model(self):
        model = RequiredProtectionModel.uniform(2, 4)
        values = {model.sample(random.Random(i))[0] for i in range(50)}
        assert values <= {2, 3, 4}

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            RequiredProtectionModel.uniform(4, 2)

    def test_empty_tiers_rejected(self):
        with pytest.raises(ValueError):
            RequiredProtectionModel(tiers=())

    def test_negative_rp_rejected(self):
        with pytest.raises(ValueError):
            RequiredProtectionModel(tiers=((-1, 1.0, "x"),))


class TestPlaceGeneration:
    def test_count_and_ids(self):
        places = generate_places(100, seed=1)
        assert len(places) == 100
        assert [p.place_id for p in places] == list(range(100))

    def test_deterministic(self):
        assert generate_places(50, seed=7) == generate_places(50, seed=7)

    def test_different_seeds_differ(self):
        assert generate_places(50, seed=1) != generate_places(50, seed=2)

    def test_all_inside_space(self):
        space = Rect(0.0, 0.0, 2.0, 1.0)
        for p in generate_places(200, seed=3, space=space):
            assert space.contains_point(p.location)

    def test_clustered_placement(self):
        places = generate_places(300, seed=4, placement="clustered")
        assert len(places) == 300
        space = Rect(0.0, 0.0, 1.0, 1.0)
        assert all(space.contains_point(p.location) for p in places)

    def test_unknown_placement(self):
        with pytest.raises(ValueError):
            generate_places(10, placement="spiral")

    def test_id_offset(self):
        places = generate_places(5, seed=0, id_offset=100)
        assert [p.place_id for p in places] == [100, 101, 102, 103, 104]

    def test_negative_count(self):
        with pytest.raises(ValueError):
            generate_places(-1)

    def test_kinds_follow_model(self):
        model = RequiredProtectionModel.constant(6, label="bank")
        places = generate_places(10, seed=0, protection_model=model)
        assert all(p.kind == "bank" for p in places)
        assert all(p.required_protection == 6 for p in places)


class TestPointClouds:
    def test_uniform_points_in_space(self):
        space = Rect(-1.0, -1.0, 1.0, 1.0)
        pts = uniform_points(100, random.Random(0), space)
        assert all(space.contains_point(p) for p in pts)

    def test_clustered_requires_clusters(self):
        with pytest.raises(ValueError):
            clustered_points(10, random.Random(0), Rect(0, 0, 1, 1), clusters=0)


class TestUnitGeneration:
    def test_count_and_range(self):
        units = generate_units(20, 0.15, seed=1)
        assert len(units) == 20
        assert all(u.protection_range == 0.15 for u in units)

    def test_zero_units_rejected(self):
        with pytest.raises(ValueError):
            generate_units(0, 0.1)

    def test_deterministic(self):
        a = generate_units(10, 0.1, seed=5)
        b = generate_units(10, 0.1, seed=5)
        assert [u.location for u in a] == [u.location for u in b]


class TestReflect:
    @given(st.floats(-10, 10, allow_nan=False))
    def test_reflect_stays_in_bounds(self, value):
        reflected = _reflect(value, 0.0, 1.0)
        assert 0.0 <= reflected <= 1.0

    def test_reflect_identity_inside(self):
        assert _reflect(0.4, 0.0, 1.0) == pytest.approx(0.4)

    def test_reflect_bounces(self):
        assert _reflect(1.2, 0.0, 1.0) == pytest.approx(0.8)
        assert _reflect(-0.3, 0.0, 1.0) == pytest.approx(0.3)

    def test_reflect_empty_interval(self):
        with pytest.raises(ValueError):
            _reflect(0.5, 1.0, 1.0)


class TestRandomWalk:
    def test_updates_consistent_chain(self, small_units):
        mobility = RandomWalkMobility(small_units, step=0.05, seed=3)
        last = {u.unit_id: u.location for u in small_units}
        for update in mobility.updates(200):
            assert update.old_location == last[update.unit_id]
            last[update.unit_id] = update.new_location

    def test_updates_stay_in_space(self, small_units):
        mobility = RandomWalkMobility(small_units, step=0.3, seed=3)
        space = Rect(0.0, 0.0, 1.0, 1.0)
        for update in mobility.updates(300):
            assert space.contains_point(update.new_location)

    def test_bad_step_rejected(self, small_units):
        with pytest.raises(ValueError):
            RandomWalkMobility(small_units, step=0.0)


class TestUpdateStream:
    def test_record_and_replay(self, small_units):
        mobility = RandomWalkMobility(small_units, step=0.02, seed=9)
        stream = record_stream(mobility, 50)
        assert len(stream) == 50
        assert list(stream) == list(stream.updates)

    def test_prefix(self, small_units):
        stream = record_stream(
            RandomWalkMobility(small_units, step=0.02, seed=9), 50
        )
        assert len(stream.prefix(10)) == 10
        assert stream.prefix(10)[9] == stream[9]

    def test_jsonl_roundtrip(self, small_units):
        stream = record_stream(
            RandomWalkMobility(small_units, step=0.02, seed=9), 25
        )
        text = stream.to_jsonl()
        back = UpdateStream.from_jsonl(text)
        assert back == stream

    def test_from_jsonl_skips_blank_lines(self):
        stream = UpdateStream.from_jsonl("\n\n")
        assert len(stream) == 0

    def test_indexing(self, small_units):
        stream = record_stream(
            RandomWalkMobility(small_units, step=0.02, seed=9), 5
        )
        assert stream[0].timestamp <= stream[4].timestamp


class TestStreamFiles:
    def test_save_and_load_roundtrip(self, tmp_path, small_units):
        stream = record_stream(
            RandomWalkMobility(small_units, step=0.05, seed=9), 30
        )
        path = tmp_path / "stream.jsonl"
        stream.save(path)
        assert path.exists()
        assert UpdateStream.load(path) == stream

    def test_save_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        UpdateStream().save(path)
        assert UpdateStream.load(path) == UpdateStream()
