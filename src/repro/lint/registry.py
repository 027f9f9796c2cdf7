"""The rule registry: one decorated check function per RPL code.

A rule is a pure function from one parsed source file and the run's
:class:`~repro.lint.config.LintConfig` to an iterable of
:class:`Violation`. Registration is declarative so the engine, the
reporters and the docs all read the same table.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # circular at runtime: engine imports the registry.
    from repro.lint.config import LintConfig
    from repro.lint.engine import SourceFile


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a rule code anchored to a source line."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


CheckFn = Callable[["SourceFile", "LintConfig"], Iterable[Violation]]


@dataclasses.dataclass(frozen=True, slots=True)
class Rule:
    """A registered rule: its code, one-line summary, and check."""

    code: str
    name: str
    summary: str
    check: CheckFn

    def run(self, source: "SourceFile", config: "LintConfig") -> Iterator[Violation]:
        yield from self.check(source, config)


#: every registered rule, keyed by code (populated on import of
#: :mod:`repro.lint.rules`).
RULES: dict[str, Rule] = {}


def rule(code: str, name: str, summary: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` under ``code`` (decorator)."""

    def decorate(check: CheckFn) -> CheckFn:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check

    return decorate


def known_codes() -> frozenset[str]:
    """All registered codes (suppression comments are validated against
    this set)."""
    return frozenset(RULES)
