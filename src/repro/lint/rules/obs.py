"""RPL010 — observability stays at burst pass boundaries.

A burst's maintain phase is timed and traced once, by
``CTUPMonitor.apply_burst`` around the whole pass (the
``maintain_burst`` span). A ``repro.obs`` import at runtime, or a
span/metric call inside a per-element loop, quietly converts that O(1)
boundary cost into O(moves) — every test keeps passing while the hot
path regresses. This rule polices :mod:`repro.core.batch`, which holds
the burst path (``apply_chains``) and its per-step Table I/II loop
(``replay_chain_steps``):

* runtime ``import repro.obs`` / ``from repro.obs import ...`` is
  flagged (``if TYPE_CHECKING:`` blocks are exempt — annotations are
  free);
* observability calls (``.span``/``.record``/``.phase``/``.observe``/
  ``.inc``/``.dec``/``.set``/``.set_to``/``.labels`` on an
  ``obs``/``tracer``/``registry`` chain) inside a ``for``/``while``
  body are flagged — instrument around the loop, not in it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.registry import Violation, rule

SCOPES = ("repro.core.batch",)

_OBS_METHODS = frozenset(
    {
        "span",
        "record",
        "phase",
        "observe",
        "inc",
        "dec",
        "set",
        "set_to",
        "labels",
    }
)
_OBS_ROOTS = frozenset({"obs", "tracer", "registry"})


@rule(
    "RPL010",
    "obs-pass-boundary",
    "no runtime repro.obs imports and no span/metric calls inside loop "
    "bodies in repro.core.batch — observability "
    "wraps whole passes, never per-element work",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node in _walk_runtime(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_obs_module(alias.name):
                    yield _import_violation(source, node, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and _is_obs_module(node.module):
                yield _import_violation(source, node, node.module)
        elif isinstance(node, (ast.For, ast.While)):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(inner, ast.Call) and _is_obs_call(inner):
                    yield Violation(
                        code="RPL010",
                        message=(
                            "observability call "
                            f"({_call_name(inner)}) inside a loop body in "
                            "the burst path — emit the span/metric "
                            "once around the whole pass, not per element"
                        ),
                        path=source.path,
                        line=inner.lineno,
                        col=inner.col_offset,
                    )


def _walk_runtime(tree: ast.Module) -> Iterator[ast.AST]:
    """Walk the module, skipping ``if TYPE_CHECKING:`` subtrees."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _is_obs_module(name: str) -> bool:
    return name == "repro.obs" or name.startswith("repro.obs.")


def _import_violation(
    source: SourceFile, node: ast.stmt, module: str
) -> Violation:
    return Violation(
        code="RPL010",
        message=(
            f"runtime import of {module} in the burst path — "
            "the monitor carries an already-built Observability handle; "
            "keep repro.obs imports under `if TYPE_CHECKING:`"
        ),
        path=source.path,
        line=node.lineno,
        col=node.col_offset,
    )


def _is_obs_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _OBS_METHODS:
        return False
    return _chain_mentions_obs(func.value)


def _chain_mentions_obs(expr: ast.expr) -> bool:
    while isinstance(expr, ast.Attribute):
        if expr.attr in _OBS_ROOTS:
            return True
        expr = expr.value
    if isinstance(expr, ast.Call):
        # e.g. registry.counter(...).labels(...).inc() — unwrap the call
        return _chain_mentions_obs(expr.func)
    return isinstance(expr, ast.Name) and expr.id in _OBS_ROOTS


def _call_name(call: ast.Call) -> str:
    assert isinstance(call.func, ast.Attribute)
    return f".{call.func.attr}(...)"
