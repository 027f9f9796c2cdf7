"""The oracle must catch every kind of wrong answer."""

import pytest

from repro.geometry import Point
from repro.model import LocationUpdate, Place, SafetyRecord, Unit
from repro.validate import Oracle


@pytest.fixture
def world():
    places = [
        Place(0, Point(0.1, 0.1), 2),  # protected by unit 0 -> safety -1
        Place(1, Point(0.5, 0.5), 0),  # unprotected -> safety 0
        Place(2, Point(0.9, 0.9), 5),  # unprotected -> safety -5
    ]
    units = [Unit(0, Point(0.12, 0.1), 0.1)]
    return places, units


class TestSafeties:
    def test_exact_values(self, world):
        places, units = world
        oracle = Oracle(places, units)
        assert oracle.safeties() == {0: -1.0, 1: 0.0, 2: -5.0}

    def test_apply_moves_unit(self, world):
        places, units = world
        oracle = Oracle(places, units)
        oracle.apply(LocationUpdate(0, Point(0.12, 0.1), Point(0.9, 0.88)))
        assert oracle.safeties() == {0: -2.0, 1: 0.0, 2: -4.0}

    def test_apply_unknown_unit(self, world):
        oracle = Oracle(*world)
        with pytest.raises(KeyError):
            oracle.apply(LocationUpdate(9, Point(0, 0), Point(1, 1)))

    def test_sk_and_topk(self, world):
        places, units = world
        oracle = Oracle(places, units)
        assert oracle.sk(2) == -1.0
        assert [r.place_id for r in oracle.top_k(2)] == [2, 0]

    def test_sk_more_than_places(self, world):
        oracle = Oracle(*world)
        assert oracle.sk(10) == float("inf")

    def test_sk_of_k_zero_is_minus_infinity(self, world):
        """As every monitor reports it; not the largest safety, and no
        IndexError over an empty catalog."""
        places, units = world
        assert Oracle(places, units).sk(0) == float("-inf")
        assert Oracle([], units).sk(0) == float("-inf")


class TestValidate:
    def correct(self, oracle):
        return oracle.top_k(2)

    def test_accepts_correct_result(self, world):
        oracle = Oracle(*world)
        assert oracle.validate(self.correct(oracle), 2).ok

    def test_rejects_wrong_size(self, world):
        oracle = Oracle(*world)
        verdict = oracle.validate(self.correct(oracle)[:1], 2)
        assert not verdict.ok

    def test_rejects_wrong_safety(self, world):
        places, units = world
        oracle = Oracle(places, units)
        bad = [SafetyRecord(places[2], -99.0), SafetyRecord(places[0], -1.0)]
        verdict = oracle.validate(bad, 2)
        assert not verdict.ok
        assert any("safety" in p for p in verdict.problems)

    def test_rejects_missing_mandatory_place(self, world):
        places, units = world
        oracle = Oracle(places, units)
        # place 2 (safety -5 < SK=-1) must be reported.
        bad = [SafetyRecord(places[0], -1.0), SafetyRecord(places[1], 0.0)]
        verdict = oracle.validate(bad, 2)
        assert not verdict.ok

    def test_rejects_duplicates(self, world):
        places, units = world
        oracle = Oracle(places, units)
        bad = [SafetyRecord(places[2], -5.0), SafetyRecord(places[2], -5.0)]
        assert not oracle.validate(bad, 2).ok

    def test_rejects_unknown_place(self, world):
        places, units = world
        oracle = Oracle(places, units)
        ghost = Place(99, Point(0.3, 0.3), 0)
        bad = [SafetyRecord(places[2], -5.0), SafetyRecord(ghost, -1.0)]
        assert not oracle.validate(bad, 2).ok


class TestConstruction:
    def test_duplicate_place_ids_rejected(self):
        p = Place(0, Point(0.5, 0.5), 0)
        with pytest.raises(ValueError):
            Oracle([p, p], [Unit(0, Point(0.5, 0.5), 0.1)])

    def test_mixed_ranges_rejected(self):
        places = [Place(0, Point(0.5, 0.5), 0)]
        units = [
            Unit(0, Point(0.1, 0.1), 0.1),
            Unit(1, Point(0.2, 0.2), 0.2),
        ]
        with pytest.raises(ValueError):
            Oracle(places, units)
