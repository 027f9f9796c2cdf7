"""reprolint — repo-aware static analysis for the CTUP reproduction.

The monitors rest on conventions that ordinary linters cannot see:
every storage touch must be charged through
:class:`~repro.storage.iostats.IoStats`, the update paths must stay
deterministic so the global top-k merge and the equivalence suite
remain provable, snapshots must be fsynced before they are published,
and the place catalog changes only through the control plane.
``repro.lint`` encodes those invariants as AST shape rules over the
source tree, one file at a time; each one guards an invariant no test
sees before the code runs. Contracts about the live classes (the
scheme API, declared snapshot fields, observability at burst
boundaries) are checked by the test suite on the classes themselves.

``python -m repro.lint --list-rules`` prints the registered rules, and
``docs/architecture.md`` ("Static analysis & invariants") says what each
one guards and why it stays.

Violations are suppressed per line with an end-of-line ``# reprolint:
disable=RPL003 -- reason`` (the reason is mandatory, enforced by
RPL000) or per file with ``# reprolint: disable-file=RPL003 -- reason``.

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
