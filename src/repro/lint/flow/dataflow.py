"""Worklist dataflow solving over :mod:`repro.lint.flow.cfg` graphs.

A forward worklist solver plus :class:`FlagLattice`, the small
"possible abstract values" lattice the path-aware rules use for
*resource written / flushed / synced*, *lock held* and *mutator bound*
facts. A state maps a key to the frozenset of values it may hold along
some path into the block, so "definitely X" is ``state[key] == {"X"}``
and "may be Y" is ``"Y" in state[key]`` — must- and may-questions over
one lattice.

Exception edges carry the *pre*-state of the raising statement (the
statement may not have completed), which is what makes "the handler
sees the state from before the mutation" detectable at all.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping, Sequence

from repro.lint.flow.cfg import EDGE_EXCEPTION, CFG, Block


class _Bottom:
    """Unreachable-state sentinel (identity element for every join)."""

    def __repr__(self) -> str:
        return "BOTTOM"


#: the unique unreachable-state marker; solvers start every non-entry
#: block here and rules treat it as "no path reaches this block".
BOTTOM = _Bottom()

#: one abstract state: key -> set of values the key may hold.
FlagState = Mapping[str, frozenset[str]]

_Transfer = Callable[[Block, FlagState], FlagState]


class FlagLattice:
    """Pointwise may-union lattice over :data:`FlagState` maps."""

    def __init__(self, default: str) -> None:
        self.default = default

    def initial(self, keys: Iterable[str] = ()) -> FlagState:
        return {key: frozenset({self.default}) for key in keys}

    def read(self, state: FlagState, key: str) -> frozenset[str]:
        return state.get(key, frozenset({self.default}))

    def write(self, state: FlagState, key: str, value: str) -> FlagState:
        updated = dict(state)
        updated[key] = frozenset({value})
        return updated

    def join(self, states: Sequence[FlagState]) -> FlagState:
        merged: dict[str, frozenset[str]] = {}
        seen: set[str] = set()
        for state in states:
            seen.update(state)
        for key in seen:
            merged[key] = frozenset().union(
                *(self.read(state, key) for state in states)
            )
        return merged

    def definitely(self, state: FlagState, key: str, value: str) -> bool:
        return self.read(state, key) == frozenset({value})

    def may(self, state: FlagState, key: str, value: str) -> bool:
        return value in self.read(state, key)


def solve_forward(
    cfg: CFG,
    init: FlagState,
    transfer: _Transfer,
    join: Callable[[Sequence[FlagState]], FlagState],
    *,
    exception_transfer: _Transfer | None = None,
) -> dict[int, FlagState | _Bottom]:
    """In-states of every block under a forward monotone analysis.

    ``transfer`` produces the normal out-state of a block from its
    in-state; ``exception_transfer`` (default: identity, i.e. the
    pre-state) produces the state carried along ``exception`` edges.
    Unreachable blocks keep :data:`BOTTOM`.
    """
    in_states: dict[int, FlagState | _Bottom] = {
        block_id: BOTTOM for block_id in cfg.blocks
    }
    in_states[cfg.entry] = init
    worklist: deque[int] = deque([cfg.entry])
    queued: set[int] = {cfg.entry}
    while worklist:
        block_id = worklist.popleft()
        queued.discard(block_id)
        state_in = in_states[block_id]
        if isinstance(state_in, _Bottom):
            continue
        block = cfg.blocks[block_id]
        out_normal = transfer(block, state_in)
        for edge in cfg.successors(block_id):
            if edge.kind == EDGE_EXCEPTION:
                carried = (
                    exception_transfer(block, state_in)
                    if exception_transfer is not None
                    else state_in
                )
            else:
                carried = out_normal
            previous = in_states[edge.dst]
            if isinstance(previous, _Bottom):
                merged: FlagState = carried
            else:
                merged = join([previous, carried])
            if merged != previous:
                in_states[edge.dst] = merged
                if edge.dst not in queued:
                    worklist.append(edge.dst)
                    queued.add(edge.dst)
    return in_states
