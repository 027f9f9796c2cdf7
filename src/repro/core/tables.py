"""Tables I and II of the paper, transcribed as data.

Keeping the lower-bound transition tables as explicit mappings (rather
than burying the cases in monitor control flow) lets the unit tests
check them entry by entry against the paper, and lets both monitors
share one implementation.

The hot path reads the same tables in a packed integer form derived
below from the enum-keyed transcription: rows are indexed by
``old * 3 + new`` over the stencil's relation codes
(:data:`repro.grid.partition.N_CODE` and friends), so no enum is hashed
per cell.
"""

from __future__ import annotations

from repro.geometry.relations import CellRelation
from repro.grid.partition import F_CODE, N_CODE, P_CODE

_N = CellRelation.NO_INTERSECT
_P = CellRelation.PARTIAL
_F = CellRelation.FULL

#: Table I: (old relation, new relation) -> lower-bound delta.
#: "N → N/P: 0", "N → F: +", "P → N/P: −", "P → F: 0",
#: "F → N/P: −", "F → F: 0".
TABLE1: dict[tuple[CellRelation, CellRelation], int] = {
    (_N, _N): 0,
    (_N, _P): 0,
    (_N, _F): +1,
    (_P, _N): -1,
    (_P, _P): -1,
    (_P, _F): 0,
    (_F, _N): -1,
    (_F, _P): -1,
    (_F, _F): 0,
}


def table1_delta(rel_old: CellRelation, rel_new: CellRelation) -> int:
    """BasicCTUP's bound adjustment for one unit move over one cell."""
    return TABLE1[(rel_old, rel_new)]


# Table II is conditional on DecHash membership, so it maps to small
# action descriptors instead of bare integers.

#: hash actions: insert the pair, remove it, or leave it alone.
HASH_NONE = "none"
HASH_INSERT = "h+"
HASH_REMOVE = "h-"

#: Table II rows that do not depend on DecHash membership:
#: (old, new) -> (delta, hash action)
TABLE2_UNCONDITIONAL: dict[tuple[CellRelation, CellRelation], tuple[int, str]] = {
    (_N, _N): (0, HASH_NONE),
    (_N, _P): (0, HASH_NONE),
    (_N, _F): (+1, HASH_REMOVE),
    (_F, _N): (-1, HASH_INSERT),
    (_F, _P): (-1, HASH_INSERT),
    (_F, _F): (0, HASH_NONE),
}

#: Table II rows conditional on (unit, cell) ∈ DecHash:
#: (old, new) -> {True/False (pair present) -> (delta, hash action)}
TABLE2_CONDITIONAL: dict[
    tuple[CellRelation, CellRelation], dict[bool, tuple[int, str]]
] = {
    (_P, _N): {True: (0, HASH_NONE), False: (-1, HASH_INSERT)},
    (_P, _P): {True: (0, HASH_NONE), False: (-1, HASH_INSERT)},
    (_P, _F): {True: (+1, HASH_REMOVE), False: (0, HASH_NONE)},
}


def table2_action(
    rel_old: CellRelation, rel_new: CellRelation, pair_in_hash: bool
) -> tuple[int, str]:
    """OptCTUP's (bound delta, hash action) for one unit move over one cell."""
    key = (rel_old, rel_new)
    unconditional = TABLE2_UNCONDITIONAL.get(key)
    if unconditional is not None:
        return unconditional
    return TABLE2_CONDITIONAL[key][pair_in_hash]


# -- packed integer form (the maintain hot path) -------------------------

#: relation of each stencil code.
_RELATION_OF_CODE = {N_CODE: _N, P_CODE: _P, F_CODE: _F}
_PACKED_RELATIONS = [
    (_RELATION_OF_CODE[code // 3], _RELATION_OF_CODE[code % 3])
    for code in range(9)
]

#: hash actions as integers.
ACT_NONE, ACT_INSERT, ACT_REMOVE = 0, 1, 2
_ACTION_CODE = {HASH_NONE: ACT_NONE, HASH_INSERT: ACT_INSERT, HASH_REMOVE: ACT_REMOVE}

#: Table I delta per packed code ``code_old * 3 + code_new``.
TABLE1_PACKED: tuple[int, ...] = tuple(
    table1_delta(old, new) for old, new in _PACKED_RELATIONS
)

#: Table II ``(delta, action)`` per ``[pair_in_hash][packed code]``,
#: ``action`` being one of ``ACT_NONE``/``ACT_INSERT``/``ACT_REMOVE``.
TABLE2_PACKED: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        (delta, _ACTION_CODE[action])
        for delta, action in (
            table2_action(old, new, in_hash) for old, new in _PACKED_RELATIONS
        )
    )
    for in_hash in (False, True)
)
