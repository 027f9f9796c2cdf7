"""reprolint — repo-aware static analysis for the CTUP reproduction.

The monitors rest on conventions that ordinary linters cannot see:
every scheme must speak the phase-split monitor API (and leave the
timing/counter bookkeeping to the base class), every storage touch must
be charged through :class:`~repro.storage.iostats.IoStats`, and the
sharded execution layer must stay deterministic so the global top-k
merge and the equivalence suite remain provable. ``repro.lint`` encodes
those invariants as AST rules over the source tree. The path-aware
rules run a worklist dataflow solver over per-function CFGs (and, for
RPL014, a project-wide call graph) built by :mod:`repro.lint.flow`.

``python -m repro.lint --list-rules`` prints the registered rules, and
``docs/architecture.md`` ("Static analysis & invariants") says what each
one guards and why it stays.

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
