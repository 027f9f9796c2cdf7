"""RPL009 — the burst kernels must stay vectorised.

:mod:`repro.core.kernels` batches the telescoping part of a burst's
maintain phase (unit positions, the maintained-table endpoint scan)
into whole-burst numpy passes; a per-element python loop creeping back
in silently undoes the optimisation while every test keeps passing
(results are bit-identical either way — only the wall time regresses).
This rule flags ``for``/``while`` statements inside the kernels module
whose iterable is a ``range(...)``/``zip(...)``/``enumerate(...)``/
``map(...)`` call — the canonical shapes of element-at-a-time iteration.

Deliberately *not* flagged:

* comprehensions and generator expressions — bounded setup idiom
  (building the waypoint matrices, deriving lookup tables), not a
  maintenance loop;
* loops over plain names, attributes, dict views or slices — group
  dispatch and per-cell dict application have no vectorisable
  equivalent.

The per-step Table I/II replay is scalar by design (numpy's per-call
cost outweighs the work on the few cells one step touches) and lives
outside the module, in :func:`repro.core.batch.replay_chain_steps`. A
loop that must stay inside the module carries
``# reprolint: disable=RPL009`` with a reason, which doubles as
documentation of *why* that loop survives.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.registry import Violation, rule

SCOPES = ("repro.core.kernels",)

_SCALAR_ITERATORS = frozenset({"range", "zip", "enumerate", "map"})


@rule(
    "RPL009",
    "kernels-vectorised",
    "no per-element scalar loops (for/while over range/zip/enumerate/map) "
    "inside repro.core.kernels — batch through numpy or suppress with a "
    "reason",
)
def check(source: SourceFile, project: ProjectIndex) -> Iterator[Violation]:
    if not source.in_packages(*SCOPES):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.For) and _is_scalar_iterator(node.iter):
            yield Violation(
                code="RPL009",
                message=(
                    "per-element scalar loop "
                    f"(for ... in {_iterator_name(node.iter)}(...)) in the "
                    "vectorised kernels module — hoist into a numpy pass, "
                    "or suppress with the reason the loop is irreducible"
                ),
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
            )
        elif isinstance(node, ast.While):
            yield Violation(
                code="RPL009",
                message=(
                    "while loop in the vectorised kernels module — burst "
                    "kernels are single-pass by design; hoist the "
                    "iteration into a numpy pass, or suppress with the "
                    "reason the loop is irreducible"
                ),
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
            )


def _is_scalar_iterator(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _SCALAR_ITERATORS
    )


def _iterator_name(expr: ast.expr) -> str:
    assert isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
    return expr.func.id
