"""The partition-granularity heuristic."""

import pytest

from repro.core.tuning import suggest_granularity
from repro.geometry import Rect


class TestSuggestGranularity:
    def test_table3_neighbourhood(self):
        # the paper's setting: 15k places, range 0.1 -> granularity 10.
        assert suggest_granularity(15_000, 0.1) == 10

    def test_range_dominates_for_dense_sets(self):
        # even millions of places should not shrink cells below the disk.
        assert suggest_granularity(1_000_000, 0.1) == 10

    def test_population_caps_sparse_sets(self):
        # 500 places cannot usefully fill a 10x10 grid.
        value = suggest_granularity(500, 0.1)
        assert value < 10

    def test_minimum_of_two(self):
        assert suggest_granularity(5, 0.5) >= 2

    def test_larger_range_coarser_grid(self):
        fine = suggest_granularity(15_000, 0.05)
        coarse = suggest_granularity(15_000, 0.25)
        assert coarse < fine

    def test_respects_space_extent(self):
        wide = suggest_granularity(
            15_000, 0.1, space=Rect(0.0, 0.0, 2.0, 2.0)
        )
        assert wide >= suggest_granularity(15_000, 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            suggest_granularity(0, 0.1)
        with pytest.raises(ValueError):
            suggest_granularity(100, 0.0)
