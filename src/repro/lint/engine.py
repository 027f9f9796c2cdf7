"""The lint driver: file loading, suppressions, the project pre-pass.

Linting is two-phase. The pre-pass walks every parsed file once for the
facts the cross-file rules need — class declarations and
scheme-registry entries — and merges them into one
:class:`ProjectIndex` (the class hierarchy). The rule pass then runs
every registered rule over every file against that shared index,
filters the findings through the end-of-line suppression comments, and
returns one sorted report. A cold run over ``src tests`` takes a few
seconds, so every run is cold.
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

#: ``# reprolint: disable=RPL001,RPL002 -- reason`` at the end of the
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


# -- the project-wide pre-pass ------------------------------------------


@dataclasses.dataclass(slots=True)
class ClassInfo:
    """What the pre-pass records about one class definition."""

    name: str
    module: str | None
    path: str
    line: int
    bases: tuple[str, ...]
    #: method name -> definition line.
    methods: dict[str, int]
    #: ``STATE_FIELDS`` tuple literal from the class body (``None`` when
    #: the class doesn't declare one).
    state_fields: tuple[str, ...] | None = None
    #: ``TRANSIENT_FIELDS`` tuple literal, same convention.
    transient_fields: tuple[str, ...] | None = None


def _class_info(source: SourceFile, node: ast.ClassDef) -> ClassInfo:
    methods: dict[str, int] = {}
    field_decls: dict[str, tuple[str, ...]] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.setdefault(item.name, item.lineno)
        else:
            decl = field_tuple_literal(item, ("STATE_FIELDS", "TRANSIENT_FIELDS"))
            if decl is not None:
                field_decls.setdefault(*decl)
    return ClassInfo(
        name=node.name,
        module=source.module,
        path=source.path,
        line=node.lineno,
        bases=tuple(
            base
            for base in (_base_name(b) for b in node.bases)
            if base is not None
        ),
        methods=methods,
        state_fields=field_decls.get("STATE_FIELDS"),
        transient_fields=field_decls.get("TRANSIENT_FIELDS"),
    )


def _scheme_entries(
    node: ast.Assign | ast.AnnAssign,
) -> Iterator[tuple[str, int]]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    if not any(
        isinstance(t, ast.Name) and t.id == "SCHEMES" for t in targets
    ):
        return
    value = node.value
    if (
        isinstance(value, ast.Call)
        and len(value.args) == 1
        and not value.keywords
    ):
        # `SCHEMES = _SchemeRegistry({...})` — a dict subclass whose
        # class docstring documents the entries; index the literal.
        value = value.args[0]
    if not isinstance(value, ast.Dict):
        return
    for entry in value.values:
        if isinstance(entry, ast.Name):
            yield (entry.id, entry.lineno)


class ProjectIndex:
    """Cross-file facts shared by every rule."""

    def __init__(
        self,
        sources: Sequence[SourceFile],
        config: LintConfig | None = None,
    ) -> None:
        self.config = config or LintConfig()
        self.sources = tuple(sources)
        #: simple class name -> info (package classes shadow fixture ones).
        self.classes: dict[str, ClassInfo] = {}
        #: class names registered as values of ``repro.api.SCHEMES``.
        self.scheme_classes: dict[str, tuple[str, int]] = {}
        for source in self.sources:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    info = _class_info(source, node)
                    existing = self.classes.get(info.name)
                    # package classes win over same-named fixture/test
                    # classes.
                    if existing is None or (
                        existing.module is None and info.module
                    ):
                        self.classes[info.name] = info
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for name, line in _scheme_entries(node):
                        self.scheme_classes.setdefault(
                            name, (source.path, line)
                        )

    # -- hierarchy queries ------------------------------------------------

    def declares_state_fields(self, class_name: str) -> bool:
        """Whether the class (or any known ancestor) declares
        ``STATE_FIELDS`` — i.e. participates in the snapshot protocol."""
        infos = [self.classes.get(class_name), *self.ancestors(class_name)]
        return any(i is not None and i.state_fields is not None for i in infos)

    def snapshot_field_union(self, class_name: str) -> frozenset[str]:
        """``STATE_FIELDS`` ∪ ``TRANSIENT_FIELDS`` over the known MRO —
        the attributes a checkpointed class is allowed to mutate after
        construction (mirrors ``collect_declared_fields``)."""
        fields: set[str] = set()
        for info in (self.classes.get(class_name), *self.ancestors(class_name)):
            if info is None:
                continue
            fields.update(info.state_fields or ())
            fields.update(info.transient_fields or ())
        return frozenset(fields)

    def ancestors(self, class_name: str) -> Iterator[ClassInfo]:
        """Known project ancestors of ``class_name``, nearest first."""
        seen: set[str] = set()
        stack = list(self.classes[class_name].bases) if class_name in self.classes else []
        while stack:
            base = stack.pop(0)
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is not None:
                yield info
                stack.extend(info.bases)

    def is_descendant_of(self, class_name: str, root: str) -> bool:
        return any(info.name == root for info in self.ancestors(class_name))


def field_tuple_literal(
    node: ast.stmt, declarations: Sequence[str]
) -> tuple[str, tuple[str, ...]] | None:
    """Parse a ``STATE_FIELDS = ("a", "b")``-style class-body
    declaration of one of the ``declarations`` names."""
    if isinstance(node, ast.AnnAssign):
        targets, value = [node.target], node.value
    elif isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    else:
        return None
    names = {
        t.id
        for t in targets
        if isinstance(t, ast.Name) and t.id in declarations
    }
    if len(names) != 1 or not isinstance(value, (ast.Tuple, ast.List)):
        return None
    fields = []
    for element in value.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        fields.append(element.value)
    return names.pop(), tuple(fields)


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return None


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


def _run_codes(
    source: SourceFile, project: ProjectIndex, codes: Iterable[str]
) -> list[Violation]:
    """Run a rule subset over one file, suppressions applied."""
    found: list[Violation] = []
    for code in sorted(codes):
        for violation in RULES[code].run(source, project):
            if violation.code in source.suppressed_codes_for_line(
                violation.line
            ):
                continue
            found.append(violation)
    return found


def lint_sources(
    sources: Sequence[SourceFile],
    config: LintConfig | None = None,
) -> LintResult:
    """Run every active rule over already-parsed sources."""
    config = config or LintConfig()
    project = ProjectIndex(sources, config)
    active = config.active_codes(known_codes())
    violations: list[Violation] = []
    for source in sources:
        violations.extend(_run_codes(source, project, active))
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
    unparsable file is reported as ``RPLE00`` and left out of the
    project index."""
    files = collect_files(paths)
    if config is None:
        anchor = files[0] if files else pathlib.Path.cwd()
        config = load_config(pathlib.Path(anchor))
    sources: list[SourceFile] = []
    parse_errors: list[Violation] = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            sources.append(SourceFile(str(path), text, module_name_of(path)))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            parse_errors.append(
                Violation(
                    code="RPLE00",
                    message=f"could not parse: {exc}",
                    path=str(path),
                    line=int(getattr(exc, "lineno", None) or 1),
                )
            )
    result = lint_sources(sources, config)
    result.parse_errors = parse_errors
    return result
