"""RPL003 — determinism of the monitoring update paths.

The equivalence suite proves batched == per-update == sharded results,
and the ``GlobalTopK`` floor/refill merge is only provable because a
shard's partial order is reproducible. That all dies the moment an
update path consults wall-clock time, a random source, or iterates an
unordered set whose order leaks into results. Inside ``repro.core``,
``repro.shard``, ``repro.index`` and ``repro.grid`` this rule flags:

* ``random`` / ``numpy.random`` usage (workload *generation* is seeded
  and lives in ``repro.workloads`` / ``repro.roadnet``, out of scope);
* wall-clock reads (``time.time``, ``datetime.now``) — phase timing
  (``time.perf_counter`` in the ``CTUPMonitor`` lifecycle) feeds only
  an attached observability bundle, never a result or a counter;
* direct iteration over sets (literals, ``set()``/``frozenset()``
  calls, set comprehensions, names or ``self`` attributes annotated as
  sets, and set values pulled out of ``dict[..., set[...]]``
  attributes). Order ties must go through the documented
  ``(safety, id)`` sort key — iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import SourceFile
from repro.lint.registry import Violation, rule

SCOPES = ("repro.core", "repro.shard", "repro.index", "repro.grid")

_SET_ROOTS = frozenset({"set", "frozenset", "Set", "MutableSet", "FrozenSet"})
_DICT_ROOTS = frozenset({"dict", "Dict", "defaultdict", "DefaultDict"})
_WALLCLOCK_TIME = frozenset({"time", "time_ns"})
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
_DICT_VALUE_PULLS = frozenset({"get", "pop", "setdefault"})


@rule(
    "RPL003",
    "determinism",
    "no random/wall-clock/unordered-set iteration in the core, shard, "
    "index or grid update paths; ties go through the (safety, id) key",
)
def check(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    set_names, set_attrs, dict_of_set_names, dict_of_set_attrs = _collect_set_types(
        source.tree
    )
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _check_import(source, node)
        elif isinstance(node, ast.Attribute):
            yield from _check_np_random(source, node)
        elif isinstance(node, ast.Call):
            yield from _check_wallclock(source, node)
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            if _is_set_expression(
                expr, set_names, set_attrs, dict_of_set_names, dict_of_set_attrs
            ):
                yield Violation(
                    code="RPL003",
                    message=(
                        "iteration over an unordered set in a monitoring "
                        "update path — set order is not reproducible across "
                        "processes; iterate sorted(...) (ties via the "
                        "documented (safety, id) key) or a list"
                    ),
                    path=source.path,
                    line=expr.lineno,
                    col=expr.col_offset,
                )


def _check_import(
    source: SourceFile, node: ast.Import | ast.ImportFrom
) -> Iterator[Violation]:
    modules = (
        [alias.name for alias in node.names]
        if isinstance(node, ast.Import)
        else [node.module or ""]
    )
    for module in modules:
        root = module.split(".", 1)[0]
        if root == "random" or module.startswith("numpy.random"):
            yield Violation(
                code="RPL003",
                message=(
                    f"import of '{module}' in a monitoring update path — "
                    "randomness belongs in the (seeded) workload layer, "
                    "never in result-bearing code"
                ),
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
            )


def _check_np_random(
    source: SourceFile, node: ast.Attribute
) -> Iterator[Violation]:
    if node.attr != "random":
        return
    if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
        yield Violation(
            code="RPL003",
            message=(
                "numpy.random used in a monitoring update path — "
                "randomness belongs in the (seeded) workload layer"
            ),
            path=source.path,
            line=node.lineno,
            col=node.col_offset,
        )


def _check_wallclock(source: SourceFile, node: ast.Call) -> Iterator[Violation]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    receiver = func.value
    if (
        func.attr in _WALLCLOCK_TIME
        and isinstance(receiver, ast.Name)
        and receiver.id == "time"
    ) or (
        func.attr in _WALLCLOCK_DATETIME
        and (
            (isinstance(receiver, ast.Name) and receiver.id == "datetime")
            or (isinstance(receiver, ast.Attribute) and receiver.attr == "datetime")
        )
    ):
        yield Violation(
            code="RPL003",
            message=(
                f"wall-clock read '{ast.unparse(func)}' in a monitoring "
                "update path — phase timing (time.perf_counter) feeds "
                "only the observability bundle, and clock values must "
                "never feed results or counters"
            ),
            path=source.path,
            line=node.lineno,
            col=node.col_offset,
        )


# -- set-type inference --------------------------------------------------


def _annotation_root(annotation: ast.expr) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        return _annotation_root(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return _annotation_root(ast.parse(annotation.value, mode="eval").body)
        except SyntaxError:
            return None
    return None


def _dict_value_is_set(annotation: ast.expr) -> bool:
    if not isinstance(annotation, ast.Subscript):
        return False
    if _annotation_root(annotation.value) not in _DICT_ROOTS:
        return False
    inner = annotation.slice
    if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
        return _annotation_root(inner.elts[1]) in _SET_ROOTS
    return False


def _collect_set_types(
    tree: ast.AST,
) -> tuple[set[str], set[str], set[str], set[str]]:
    """Names / ``self`` attributes known to hold sets or dicts-of-sets."""
    set_names: set[str] = set()
    set_attrs: set[str] = set()
    dict_of_set_names: set[str] = set()
    dict_of_set_attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ):
                if arg.annotation is None:
                    continue
                if _annotation_root(arg.annotation) in _SET_ROOTS:
                    set_names.add(arg.arg)
                elif _dict_value_is_set(arg.annotation):
                    dict_of_set_names.add(arg.arg)
        elif isinstance(node, ast.AnnAssign):
            root = _annotation_root(node.annotation)
            target = node.target
            if isinstance(target, ast.Name):
                if root in _SET_ROOTS:
                    set_names.add(target.id)
                elif _dict_value_is_set(node.annotation):
                    dict_of_set_names.add(target.id)
            elif isinstance(target, ast.Attribute) and _is_self(target.value):
                if root in _SET_ROOTS:
                    set_attrs.add(target.attr)
                elif _dict_value_is_set(node.annotation):
                    dict_of_set_attrs.add(target.attr)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            if _is_plain_set_expression(node.value):
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    set_names.add(target.id)
                elif isinstance(target, ast.Attribute) and _is_self(target.value):
                    set_attrs.add(target.attr)
    return set_names, set_attrs, dict_of_set_names, dict_of_set_attrs


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _is_plain_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_expression(
    node: ast.expr,
    set_names: set[str],
    set_attrs: set[str],
    dict_of_set_names: set[str],
    dict_of_set_attrs: set[str],
) -> bool:
    if _is_plain_set_expression(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr in set_attrs
    if isinstance(node, ast.Subscript):
        return _is_dict_of_set(node.value, dict_of_set_names, dict_of_set_attrs)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        receiver = node.func.value
        if node.func.attr in _DICT_VALUE_PULLS:
            return _is_dict_of_set(
                receiver, dict_of_set_names, dict_of_set_attrs
            )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_set_expression(
            node.left, set_names, set_attrs, dict_of_set_names, dict_of_set_attrs
        ) or _is_set_expression(
            node.right, set_names, set_attrs, dict_of_set_names, dict_of_set_attrs
        )
    return False


def _is_dict_of_set(
    node: ast.expr, dict_of_set_names: set[str], dict_of_set_attrs: set[str]
) -> bool:
    if isinstance(node, ast.Name):
        return node.id in dict_of_set_names
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr in dict_of_set_attrs
    return False
