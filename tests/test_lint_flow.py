"""The path-aware reprolint rules (RPL011 durability, RPL012 lock
discipline, RPL015 catalog discipline): their registration, suppression
edge cases that involve more than one rule, and the lint package linting
itself clean. The rules' bad and good fixtures live in test_lint.py."""

import pathlib
import sys
import textwrap

import pytest

from repro.lint import RULES, LintConfig, lint_paths, lint_sources, render_text
from repro.lint.engine import SourceFile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def src(text, module="repro.core.fixture", path="fixture.py"):
    return SourceFile(path, textwrap.dedent(text), module)


def run_rules(sources, *select):
    config = LintConfig(select=tuple(select))
    return lint_sources(sources, config)


def codes_of(result):
    return [v.code for v in result.violations]


# -- rule registration metadata ------------------------------------------


class TestFlowRuleRegistry:
    def test_flow_rules_registered(self):
        for code in ("RPL011", "RPL012", "RPL015"):
            assert code in RULES, code
        # the phase-protocol rule is retired; the runtime phase guard of
        # the session model test covers it.
        assert "RPL014" not in RULES


# -- suppression edge cases ----------------------------------------------


class TestSuppressionEdgeCases:
    def test_one_code_suppressed_the_other_still_fires(self):
        fixture = src(
            "import time\n"
            "def f(stats):\n"
            "    stats.page_reads += time.time()"
            "  # reprolint: disable=RPL003 -- only the clock read is waived\n"
        )
        result = run_rules([fixture], "RPL002", "RPL003")
        assert codes_of(result) == ["RPL002"]

    def test_unknown_code_fires_rpl000_and_does_not_suppress(self):
        fixture = src(
            "import random  # reprolint: disable=RPL999 -- no such rule\n"
        )
        result = run_rules([fixture], "RPL000", "RPL003")
        assert sorted(codes_of(result)) == ["RPL000", "RPL003"]


# -- the self-check ------------------------------------------------------


class TestFlowSelfCheck:
    def test_whole_lint_package_lints_clean(self):
        result = lint_paths([REPO_ROOT / "src" / "repro" / "lint"])
        assert result.ok, render_text(result)
        assert result.files_checked >= 4


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
