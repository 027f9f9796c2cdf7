"""reprolint — repo-aware static analysis for the CTUP reproduction.

The monitors rest on conventions that ordinary linters cannot see:
every scheme must speak the phase-split monitor API (and leave the
timing/counter bookkeeping to the base class), every storage touch must
be charged through :class:`~repro.storage.iostats.IoStats`, and the
sharded execution layer must stay deterministic so the global top-k
merge and the equivalence suite remain provable. ``repro.lint`` encodes
those invariants as AST rules over the source tree:

========  ==============================================================
RPL000    suppression hygiene — every ``# reprolint: disable=`` comment
          must name known rules and carry a ``-- reason``.
RPL001    scheme contract — CTUP monitor subclasses define the phase
          API and never override the base class's timing/counter
          ownership; everything in ``repro.api.SCHEMES`` is a monitor.
RPL002    counter discipline — ``IoStats`` / ``MonitorCounters`` timing
          fields / ``UnitKernelStats`` / ``MergeStats`` are mutated only
          in their owning modules; no reaching into ``PlaceStore`` page
          internals from outside the storage layer.
RPL003    determinism — no ``random``/wall-clock/unordered-set
          iteration in the ``core``/``shard``/``index``/``grid`` update
          paths; ties go through the documented ``(safety, id)`` key.
RPL011    durability discipline — every checkpoint/journal write path
          reaches flush+fsync before its rename/publish, and no state
          mutation survives a swallowed exception without rollback
          (flow-sensitive, ``repro.lint.flow``).
RPL012    lock discipline — attributes shared with the ``/metrics``
          thread are accessed with the owning lock definitely held (the
          ``GUARDED_FIELDS`` contract).
RPL013    counter conservation — once-per-call ``MonitorCounters``
          charges happen on every normal exit path and never twice.
RPL014    phase protocol — no access-phase helper (reachable from
          ``_refresh``/``top_k``/``sk`` over the project call graph)
          calls a maintain-phase mutator.
RPLT01    typing gate — fully annotated defs in the strict module set
          declared in ``[tool.reprolint]`` (see ``typing_gate``).
========  ==============================================================

RPL011–RPL014 are path-aware: they run a worklist dataflow solver over
per-function CFGs (and, for RPL014, a project-wide call graph) built by
:mod:`repro.lint.flow`.

Violations are suppressed per line with ``# reprolint: disable=RPL003
-- reason`` (the reason is mandatory, enforced by RPL000) or per file
with ``# reprolint: disable-file=RPL003 -- reason``.

Run as ``python -m repro.lint src tests`` or ``ctup lint``;
``--format sarif`` writes a code-scanning upload.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_paths, lint_sources
from repro.lint.registry import RULES, Rule, Violation, rule
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint import rules as _rules  # noqa: F401  (populate registry)

__all__ = [
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_sources",
    "load_config",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
]
