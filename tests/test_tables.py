"""Tables I and II, checked entry by entry against the paper."""

import pytest

from repro.core.tables import (
    ACT_INSERT,
    ACT_NONE,
    ACT_REMOVE,
    HASH_INSERT,
    HASH_NONE,
    HASH_REMOVE,
    TABLE1,
    TABLE1_PACKED,
    TABLE2_PACKED,
    table1_delta,
    table2_action,
)
from repro.geometry.relations import CellRelation
from repro.grid.partition import F_CODE, N_CODE, P_CODE

N, P, F = (
    CellRelation.NO_INTERSECT,
    CellRelation.PARTIAL,
    CellRelation.FULL,
)

#: the stencil's relation codes and the packed tables' action codes.
CODE = {N: N_CODE, P: P_CODE, F: F_CODE}
ACTION = {ACT_NONE: HASH_NONE, ACT_INSERT: HASH_INSERT, ACT_REMOVE: HASH_REMOVE}


def table2(old, new, in_hash):
    """``table2_action``, after checking that the packed integer row the
    hot path reads agrees with it."""
    entry = table2_action(old, new, in_hash)
    delta, action = TABLE2_PACKED[in_hash][CODE[old] * 3 + CODE[new]]
    assert (delta, ACTION[action]) == entry
    return entry


class TestTable1:
    """Table I: lower-bound maintenance in BasicCTUP."""

    @pytest.mark.parametrize(
        "old,new,delta",
        [
            (N, N, 0),  # N -> N/P: 0
            (N, P, 0),
            (N, F, +1),  # N -> F: +
            (P, N, -1),  # P -> N/P: -
            (P, P, -1),
            (P, F, 0),  # P -> F: 0
            (F, N, -1),  # F -> N/P: -
            (F, P, -1),
            (F, F, 0),  # F -> F: 0
        ],
    )
    def test_entry(self, old, new, delta):
        assert table1_delta(old, new) == delta
        assert TABLE1_PACKED[CODE[old] * 3 + CODE[new]] == delta

    def test_table_is_total(self):
        assert set(TABLE1) == {(a, b) for a in (N, P, F) for b in (N, P, F)}


class TestTable2:
    """Table II: lower-bound maintenance in OptCTUP (with DecHash)."""

    @pytest.mark.parametrize("in_hash", [True, False])
    @pytest.mark.parametrize(
        "old,new",
        [(N, N), (N, P), (F, F)],
    )
    def test_unchanged_cases(self, old, new, in_hash):
        assert table2(old, new, in_hash) == (0, HASH_NONE)

    @pytest.mark.parametrize("in_hash", [True, False])
    def test_n_to_f_increases_and_removes(self, in_hash):
        # "N -> F: +, h-"
        assert table2(N, F, in_hash) == (+1, HASH_REMOVE)

    @pytest.mark.parametrize("in_hash", [True, False])
    @pytest.mark.parametrize("new", [N, P])
    def test_f_to_np_decreases_and_inserts(self, new, in_hash):
        # "F -> N/P: -, h+"
        assert table2(F, new, in_hash) == (-1, HASH_INSERT)

    @pytest.mark.parametrize("new", [N, P])
    def test_p_to_np_without_pair_decreases(self, new):
        # "P -> N/P: -, h+ (otherwise)"
        assert table2(P, new, False) == (-1, HASH_INSERT)

    @pytest.mark.parametrize("new", [N, P])
    def test_p_to_np_with_pair_is_suppressed(self, new):
        # "P -> N/P: 0 (if in hash)" — the heart of DOO.
        assert table2(P, new, True) == (0, HASH_NONE)

    def test_p_to_f_with_pair_increases_and_removes(self):
        # "P -> F: +, h- (if in hash)"
        assert table2(P, F, True) == (+1, HASH_REMOVE)

    def test_p_to_f_without_pair_unchanged(self):
        # "P -> F: 0 (otherwise)"
        assert table2(P, F, False) == (0, HASH_NONE)

    def test_every_combination_defined(self):
        for old in (N, P, F):
            for new in (N, P, F):
                for in_hash in (True, False):
                    delta, action = table2(old, new, in_hash)
                    assert delta in (-1, 0, +1)
                    assert action in (HASH_NONE, HASH_INSERT, HASH_REMOVE)

    def test_table2_never_decreases_more_than_table1(self):
        """DOO only suppresses decreases, it never adds new ones."""
        for old in (N, P, F):
            for new in (N, P, F):
                for in_hash in (True, False):
                    delta2, _ = table2_action(old, new, in_hash)
                    delta1 = table1_delta(old, new)
                    assert delta2 >= delta1
