"""The ``python -m repro.lint`` / ``ctup lint`` command line.

Exit code 0 means the tree is clean (including the RPLT01 typing gate
for the strict module set); any violation or unparsable file exits 1.
``--mypy`` additionally shells out to mypy when one is installed —
absence is reported as a skip, not a pass. ``--format sarif`` emits
SARIF 2.1.0 for code-scanning uploads.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.lint import rules as _rules  # noqa: F401  (populate registry)
from repro.lint.config import load_config
from repro.lint.engine import lint_paths
from repro.lint.report import (
    render_json,
    render_rules,
    render_sarif,
    render_text,
)
from repro.lint.typing_gate import run_mypy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "repo-aware static analysis: scheme contracts, counter "
            "discipline, determinism, flow-sensitive safety rules and "
            "the strict typing gate"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule table and exit",
    )
    parser.add_argument(
        "--mypy",
        action="store_true",
        help="additionally run mypy (skipped with a notice if not installed)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    config = load_config(pathlib.Path(args.paths[0]))
    result = lint_paths(args.paths, config)
    if args.output_format == "json":
        print(render_json(result))
    elif args.output_format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    exit_code = 0 if result.ok else 1
    if args.mypy:
        mypy_code, output = run_mypy([str(p) for p in args.paths])
        if mypy_code is None:
            print(output, file=sys.stderr)
        else:
            if output.strip():
                print(output)
            exit_code = exit_code or (0 if mypy_code == 0 else 1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
