"""Flow-sensitive analysis: CFGs, dataflow solving, the call graph.

The syntactic rules (RPL001–RPL010) match AST shapes; the path-aware
rules (RPL011, RPL012, RPL014, RPL015) need to reason about *orderings*
— "is the fsync reached on every path before the rename", "is the lock
definitely held at this read", "can an access-phase helper reach a
maintain mutator".
This subpackage supplies the machinery:

* :mod:`repro.lint.flow.cfg` — intraprocedural control-flow graphs
  built from ``ast`` function bodies: basic blocks, branch/loop edges,
  exception edges out of ``try`` bodies into their handlers, and
  ``finally`` continuations;
* :mod:`repro.lint.flow.dataflow` — a forward worklist solver over
  those CFGs plus the small abstract-state lattice the safety rules use
  ("resource written/flushed/synced", "lock held", "mutator bound");
* :mod:`repro.lint.flow.callgraph` — the project-wide call graph,
  layered on the :class:`~repro.lint.engine.ProjectIndex` function
  summaries.

The package is analysed by reprolint itself (the self-check in
``tests/test_lint_flow.py``) — the engine is not exempt from its rules.
"""

from __future__ import annotations

from repro.lint.flow.callgraph import CallGraph, CallSite, FunctionSummary
from repro.lint.flow.cfg import CFG, Block, Edge, build_cfg, function_cfgs
from repro.lint.flow.dataflow import (
    BOTTOM,
    FlagLattice,
    FlagState,
    solve_forward,
)

__all__ = [
    "BOTTOM",
    "CFG",
    "Block",
    "CallGraph",
    "CallSite",
    "Edge",
    "FlagLattice",
    "FlagState",
    "FunctionSummary",
    "build_cfg",
    "function_cfgs",
    "solve_forward",
]
