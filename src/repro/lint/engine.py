"""The lint engine: file loading, suppressions, the rule pass.

Every rule reads one file at a time: no rule needs facts from another
file, so each file is linted as soon as it is parsed. The engine runs
every active rule over it, filters the findings through the end-of-line
suppression comments, and returns one sorted report. A cold run over
``src tests`` takes a few seconds, so every run is cold.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import pathlib
import re
import tokenize
from typing import Iterable, Iterator, Sequence

from repro.lint.config import LintConfig, load_config
from repro.lint.registry import RULES, Violation, known_codes

#: ``# reprolint: disable=RPL002,RPL003 -- reason`` at the end of the
#: line it covers (file-level with ``disable-file``). The reason is
#: mandatory; RPL000 enforces it.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Z0-9,\s]+?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis"}


@dataclasses.dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``reprolint: disable`` comment."""

    codes: tuple[str, ...]
    line: int
    file_level: bool
    reason: str | None


class SourceFile:
    """One parsed source file plus everything rules need from it."""

    def __init__(self, path: str, text: str, module: str | None) -> None:
        self.path = path
        self.text = text
        self.module = module
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.suppressions = list(_parse_suppressions(text))

    def in_packages(self, *prefixes: str) -> bool:
        """Whether this file's module falls under any dotted prefix."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    def suppressed_codes_for_line(self, line: int) -> frozenset[str]:
        return frozenset(
            code
            for sup in self.suppressions
            if sup.file_level or sup.line == line
            for code in sup.codes
        )


def _parse_suppressions(text: str) -> Iterator[Suppression]:
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            yield Suppression(
                codes=codes,
                line=token.start[0],
                file_level=match.group("kind") == "disable-file",
                reason=match.group("reason"),
            )
    except tokenize.TokenError:  # unterminated strings etc.: no comments
        return


# -- file collection ----------------------------------------------------


def module_name_of(path: pathlib.Path) -> str | None:
    """Dotted module name, walking packages up from the file.

    Returns ``None`` for files outside any package (tests, fixtures) —
    package-scoped rules skip those.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    node = path.parent
    while (node / "__init__.py").is_file():
        parts.insert(0, node.name)
        node = node.parent
    return ".".join(parts) if parts else None


def collect_files(paths: Iterable[str | pathlib.Path]) -> list[pathlib.Path]:
    """Every lintable ``.py`` file under ``paths`` (sorted, de-duplicated)."""
    out: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIR_NAMES & set(candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


# -- the run ------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class LintResult:
    """Everything one run produced."""

    violations: list[Violation]
    files_checked: int
    parse_errors: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def all_findings(self) -> list[Violation]:
        return sorted(
            self.parse_errors + self.violations, key=Violation.sort_key
        )


def _lint_source(source: SourceFile, config: LintConfig) -> list[Violation]:
    """Run the active rules over one file, suppressions applied."""
    found: list[Violation] = []
    for code in sorted(config.active_codes(known_codes())):
        for violation in RULES[code].run(source, config):
            if violation.code not in source.suppressed_codes_for_line(
                violation.line
            ):
                found.append(violation)
    return found


def lint_sources(
    sources: Sequence[SourceFile],
    config: LintConfig | None = None,
) -> LintResult:
    """Run every active rule over already-parsed sources."""
    config = config or LintConfig()
    violations = [v for s in sources for v in _lint_source(s, config)]
    violations.sort(key=Violation.sort_key)
    return LintResult(
        violations=violations,
        files_checked=len(sources),
        parse_errors=[],
    )


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    config: LintConfig | None = None,
) -> LintResult:
    """Lint every Python file under ``paths``; an unreadable or
    unparsable file is reported as ``RPLE00``."""
    files = collect_files(paths)
    if config is None:
        anchor = files[0] if files else pathlib.Path.cwd()
        config = load_config(pathlib.Path(anchor))
    result = LintResult(violations=[], files_checked=0, parse_errors=[])
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            source = SourceFile(str(path), text, module_name_of(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.parse_errors.append(
                Violation(
                    code="RPLE00",
                    message=f"could not parse: {exc}",
                    path=str(path),
                    line=int(getattr(exc, "lineno", None) or 1),
                )
            )
            continue
        result.violations.extend(_lint_source(source, config))
        result.files_checked += 1
    result.violations.sort(key=Violation.sort_key)
    return result
