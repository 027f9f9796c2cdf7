"""RPLT01 — the strict typing gate.

Every function in the strict module set (``[tool.reprolint]
strict-typed-modules`` in pyproject, the committed allowlist) must
annotate every parameter and its return type — the same contract as
mypy's ``disallow_untyped_defs`` + ``disallow_incomplete_defs``,
checkable with the stdlib alone, so it runs wherever the linter runs.
mypy itself runs as its own CI step, configured by ``[tool.mypy]`` in
pyproject; ``py.typed`` ships the annotations downstream.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

#: decorators under which a def is exempt (their bodies are stubs or
#: their signatures are intentionally dynamic).
_EXEMPT_DECORATORS = frozenset({"overload"})


@rule(
    "RPLT01",
    "typing-gate",
    "functions in the strict-typed module set annotate every parameter "
    "and the return type",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not config.is_strict_typed(source.module):
        return
    for node, owner in _walk_functions(source.tree):
        if _is_exempt(node):
            continue
        missing = _missing_annotations(node, is_method=owner is not None)
        for what, anchor in missing:
            yield Violation(
                code="RPLT01",
                message=(
                    f"{node.name}() {what} — module "
                    f"'{source.module}' is in the strict-typed set "
                    "([tool.reprolint] strict-typed-modules)"
                ),
                path=source.path,
                line=getattr(anchor, "lineno", node.lineno),
                col=getattr(anchor, "col_offset", node.col_offset),
            )


def _walk_functions(
    tree: ast.AST,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Every def with its immediately enclosing class (or ``None``)."""

    def visit(
        node: ast.AST, owner: ast.ClassDef | None
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from visit(child, None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def _is_exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        if name in _EXEMPT_DECORATORS:
            return True
    return False


def _missing_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> list[tuple[str, ast.AST]]:
    missing: list[tuple[str, ast.AST]] = []
    positional = list(node.args.posonlyargs) + list(node.args.args)
    for index, arg in enumerate(positional):
        if (
            is_method
            and index == 0
            and arg.arg in ("self", "cls")
        ):
            continue
        if arg.annotation is None:
            missing.append((f"parameter '{arg.arg}' is unannotated", arg))
    for arg in node.args.kwonlyargs:
        if arg.annotation is None:
            missing.append((f"parameter '{arg.arg}' is unannotated", arg))
    if node.args.vararg is not None and node.args.vararg.annotation is None:
        missing.append(
            (f"parameter '*{node.args.vararg.arg}' is unannotated", node.args.vararg)
        )
    if node.args.kwarg is not None and node.args.kwarg.annotation is None:
        missing.append(
            (f"parameter '**{node.args.kwarg.arg}' is unannotated", node.args.kwarg)
        )
    if node.returns is None:
        missing.append(("is missing a return annotation", node))
    return missing

