"""reprolint: every rule fires on a bad fixture, stays quiet on a good
one, suppressions and the reporters behave, and — the self-check — the
shipped tree lints clean."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    RULES,
    LintConfig,
    lint_paths,
    lint_sources,
    render_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    SourceFile,
    collect_files,
    module_name_of,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def src(text, module="repro.core.fixture", path="fixture.py"):
    return SourceFile(path, textwrap.dedent(text), module)


def run_rules(sources, *select):
    config = LintConfig(select=tuple(select))
    return lint_sources(sources, config)


def codes_of(result):
    return [v.code for v in result.violations]


#: a stub of the real base class so ProjectIndex can resolve the
#: hierarchy without parsing the whole package. Lives in the owning
#: module name, so its lifecycle defs are legal.
MONITOR_BASE = src(
    """
    class CTUPMonitor:
        def initialize(self): ...
        def apply_update(self, update): ...
        def refresh(self): ...
        def process(self, update): ...
        def _build_initial_state(self): ...
        def _apply(self, update): ...
        def _refresh(self): ...
        def top_k(self): ...
        def sk(self): ...
        def partial_top_k(self, m): ...
    """,
    module="repro.core.monitor",
    path="monitor_stub.py",
)

GOOD_SCHEME = """
    class GoodScheme(CTUPMonitor):
        def _build_initial_state(self): ...
        def _apply(self, update): ...
        def _refresh(self): ...
        def top_k(self): ...
        def sk(self): ...
        def partial_top_k(self, m): ...
"""


# -- RPL001: scheme contract --------------------------------------------


class TestSchemeContract:
    def test_good_scheme_is_clean(self):
        fixture = src(GOOD_SCHEME, module="repro.core.fixture")
        result = run_rules([MONITOR_BASE, fixture], "RPL001")
        assert codes_of(result) == []

    def test_missing_phase_api_fires(self):
        fixture = src(
            """
            class HollowScheme(CTUPMonitor):
                def top_k(self): ...
            """,
            module="repro.core.fixture",
        )
        result = run_rules([MONITOR_BASE, fixture], "RPL001")
        messages = [v.message for v in result.violations]
        assert len(messages) == 4  # _build_initial_state/_apply/_refresh/sk
        assert any("_build_initial_state" in m for m in messages)
        assert all(v.code == "RPL001" for v in result.violations)

    def test_lifecycle_override_fires(self):
        fixture = src(
            GOOD_SCHEME
            + "        def process(self, update):\n"
            + "            return None\n",
            module="repro.core.fixture",
        )
        result = run_rules([MONITOR_BASE, fixture], "RPL001")
        assert codes_of(result) == ["RPL001"]
        assert "process" in result.violations[0].message

    def test_phase_api_may_come_from_an_intermediate_class(self):
        base = src(GOOD_SCHEME, module="repro.core.fixture", path="a.py")
        leaf = src(
            """
            class LeafScheme(GoodScheme):
                pass
            """,
            module="repro.core.fixture2",
            path="b.py",
        )
        result = run_rules([MONITOR_BASE, base, leaf], "RPL001")
        assert codes_of(result) == []

    def test_partial_top_k_arity_fires(self):
        fixture = src(
            GOOD_SCHEME.replace(
                "def partial_top_k(self, m):",
                "def partial_top_k(self, m, extra):",
            ),
            module="repro.core.fixture",
        )
        result = run_rules([MONITOR_BASE, fixture], "RPL001")
        assert codes_of(result) == ["RPL001"]
        assert "(self, m)" in result.violations[0].message

    def test_schemes_registry_rejects_non_monitor(self):
        api = src(
            """
            class Impostor:
                pass

            SCHEMES = {"impostor": Impostor}
            """,
            module="repro.api",
            path="api_stub.py",
        )
        result = run_rules([MONITOR_BASE, api], "RPL001")
        assert codes_of(result) == ["RPL001"]
        assert "Impostor" in result.violations[0].message


# -- RPL002: counter discipline -----------------------------------------


class TestCounterDiscipline:
    def test_foreign_io_counter_mutation_fires(self):
        fixture = src(
            """
            def sneak(stats):
                stats.page_reads += 1
            """,
            module="repro.core.fixture",
        )
        result = run_rules([fixture], "RPL002")
        assert codes_of(result) == ["RPL002"]
        assert "repro.storage" in result.violations[0].message

    def test_owner_module_may_mutate(self):
        fixture = src(
            """
            def charge(stats):
                stats.page_reads += 1
            """,
            module="repro.storage.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL002")) == []

    def test_same_named_self_attribute_is_exempt(self):
        fixture = src(
            """
            class Driver:
                def bump(self):
                    self.updates_processed += 1
            """,
            module="repro.engine.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL002")) == []

    def test_timing_fields_outside_lifecycle_fire(self):
        fixture = src(
            """
            def fake_timing(monitor):
                monitor.counters.time_access_s += 0.5
            """,
            module="repro.core.fixture",
        )
        result = run_rules([fixture], "RPL002")
        assert codes_of(result) == ["RPL002"]

    def test_placestore_internal_access_fires(self):
        fixture = src(
            """
            def peek(store):
                return store._pages[0]
            """,
            module="repro.core.fixture",
        )
        result = run_rules([fixture], "RPL002")
        assert codes_of(result) == ["RPL002"]
        assert "IoStats" in result.violations[0].message


# -- RPL003: determinism ------------------------------------------------


class TestDeterminism:
    def test_random_import_fires(self):
        fixture = src("import random\n", module="repro.core.fixture")
        assert codes_of(run_rules([fixture], "RPL003")) == ["RPL003"]

    def test_wall_clock_fires(self):
        fixture = src(
            """
            import time

            def stamp():
                return time.time()
            """,
            module="repro.shard.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL003")) == ["RPL003"]

    def test_set_iteration_fires(self):
        fixture = src(
            """
            def walk(cells: set[int]) -> list[int]:
                out = []
                for cell in cells:
                    out.append(cell)
                return out
            """,
            module="repro.index.fixture",
        )
        result = run_rules([fixture], "RPL003")
        assert codes_of(result) == ["RPL003"]

    def test_sorted_set_iteration_is_clean(self):
        fixture = src(
            """
            def walk(cells: set[int]) -> list[int]:
                out = []
                for cell in sorted(cells):
                    out.append(cell)
                return out
            """,
            module="repro.index.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL003")) == []

    def test_rule_is_scoped_to_update_path_packages(self):
        fixture = src("import random\n", module="repro.workloads.fixture")
        assert codes_of(run_rules([fixture], "RPL003")) == []


# -- RPL008: snapshot completeness --------------------------------------


class TestSnapshotCompleteness:
    def test_undeclared_mutation_fires(self):
        fixture = src(
            """
            class Scheme:
                STATE_FIELDS = ("units",)
                def _apply(self, update):
                    self.cache = {}
            """
        )
        result = run_rules([fixture], "RPL008")
        assert codes_of(result) == ["RPL008"]
        assert "self.cache" in result.violations[0].message

    def test_declared_and_transient_are_clean(self):
        fixture = src(
            """
            class Scheme:
                STATE_FIELDS = ("units", "counters")
                TRANSIENT_FIELDS = ("_dirty",)
                def _apply(self, update):
                    self.units[update.unit_id] = update.new_location
                    self.counters += 1
                    self._dirty = True
            """
        )
        assert codes_of(run_rules([fixture], "RPL008")) == []

    def test_init_is_exempt(self):
        fixture = src(
            """
            class Scheme:
                STATE_FIELDS = ("units",)
                def __init__(self):
                    self.cache = {}
            """
        )
        assert codes_of(run_rules([fixture], "RPL008")) == []

    def test_inherited_declaration_puts_subclass_in_scope(self):
        base = src(
            """
            class Base:
                STATE_FIELDS = ("units",)
            """,
            path="base.py",
        )
        leaf = src(
            """
            class Leaf(Base):
                def _apply(self, update):
                    self.sneaky = 1
            """,
            path="leaf.py",
        )
        result = run_rules([base, leaf], "RPL008")
        assert codes_of(result) == ["RPL008"]
        assert result.violations[0].path == "leaf.py"

    def test_subclass_fields_union_with_base(self):
        base = src(
            """
            class Base:
                STATE_FIELDS = ("units",)
            """,
            path="base.py",
        )
        leaf = src(
            """
            class Leaf(Base):
                STATE_FIELDS = ("extra",)
                def _apply(self, update):
                    self.units = 1
                    self.extra = 2
            """,
            path="leaf.py",
        )
        assert codes_of(run_rules([base, leaf], "RPL008")) == []

    def test_nested_targets_root_at_the_field(self):
        fixture = src(
            """
            class Scheme:
                STATE_FIELDS = ("table",)
                def _apply(self, update):
                    self.table[update.unit_id].count += 1
                    self.rogue[update.unit_id] = 1
            """
        )
        result = run_rules([fixture], "RPL008")
        assert codes_of(result) == ["RPL008"]
        assert "self.rogue" in result.violations[0].message

    def test_locals_and_other_receivers_ignored(self):
        fixture = src(
            """
            class Scheme:
                STATE_FIELDS = ("units",)
                def _apply(self, update, other):
                    local = 1
                    other.anything = 2
                    local, other.more = 3, 4
            """
        )
        assert codes_of(run_rules([fixture], "RPL008")) == []

    def test_undeclared_class_is_out_of_scope(self):
        fixture = src(
            """
            class Plain:
                def method(self):
                    self.anything = 1
            """
        )
        assert codes_of(run_rules([fixture], "RPL008")) == []


# -- RPL010: observability at pass boundaries ---------------------------


class TestObsPassBoundary:
    def test_runtime_obs_import_fires(self):
        fixture = src(
            """
            from repro.obs.spec import Observability

            def apply(monitor, moves):
                return monitor
            """,
            module="repro.core.batch",
        )
        result = run_rules([fixture], "RPL010")
        assert codes_of(result) == ["RPL010"]
        assert "TYPE_CHECKING" in result.violations[0].message

    def test_type_checking_import_is_exempt(self):
        fixture = src(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.obs.spec import Observability

            def apply(monitor, moves):
                return monitor
            """,
            module="repro.core.batch",
        )
        assert codes_of(run_rules([fixture], "RPL010")) == []

    def test_span_inside_loop_fires(self):
        fixture = src(
            """
            def apply(monitor, moves):
                for move in moves:
                    with monitor.obs.tracer.span("burst.move"):
                        handle(move)
            """,
            module="repro.core.batch",
        )
        result = run_rules([fixture], "RPL010")
        assert codes_of(result) == ["RPL010"]
        assert "loop body" in result.violations[0].message

    def test_metric_inc_inside_loop_fires(self):
        fixture = src(
            """
            def apply(registry, cells):
                counter = registry.counter("ctup_cells_total")
                while cells:
                    cells.pop()
                    counter.inc()
            """,
            module="repro.core.batch",
        )
        # only `counter.inc()` survives the chain check — the receiver
        # is not obs-rooted, so nothing fires; the registry-rooted form
        # must.
        assert codes_of(run_rules([fixture], "RPL010")) == []
        rooted = src(
            """
            def apply(registry, cells):
                while cells:
                    cells.pop()
                    registry.counter("ctup_cells_total").inc()
            """,
            module="repro.core.batch",
        )
        assert codes_of(run_rules([rooted], "RPL010")) == ["RPL010"]

    def test_span_around_the_loop_is_clean(self):
        fixture = src(
            """
            def apply(monitor, moves):
                obs = monitor.obs
                with obs.tracer.span("burst", moves=len(moves)):
                    for move in moves:
                        handle(move)
            """,
            module="repro.core.batch",
        )
        # the span call sits outside the for statement, so the loop-body
        # walk never reaches it.
        assert codes_of(run_rules([fixture], "RPL010")) == []

    def test_unrelated_set_calls_in_loops_are_clean(self):
        fixture = src(
            """
            def apply(cells):
                for cell in cells:
                    cell.bounds.set(0.0)
                    cell.flags.labels(kind="dark")
            """,
            module="repro.core.batch",
        )
        assert codes_of(run_rules([fixture], "RPL010")) == []

    def test_batch_step_loop_is_in_scope(self):
        # a span per chain step in the per-step Table I/II loop is the
        # per-element cost the rule exists to stop.
        fixture = src(
            """
            def replay_chain_steps(monitor, moves, olds):
                for move, previous in zip(moves, olds):
                    with monitor.obs.tracer.span("burst.step"):
                        handle(move, previous)
            """,
            module="repro.core.batch",
        )
        assert codes_of(run_rules([fixture], "RPL010")) == ["RPL010"]

    def test_other_modules_are_out_of_scope(self):
        fixture = src(
            """
            from repro.obs.spec import Observability

            def run(obs):
                for _ in range(3):
                    obs.tracer.record("x", "cat", 0.0, 1.0)
            """,
            module="repro.engine.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL010")) == []


# -- RPLT01: the typing gate --------------------------------------------


class TestTypingGate:
    def test_unannotated_function_in_strict_module_fires(self):
        fixture = src(
            "def f(x):\n    return x\n", module="repro.core.fixture"
        )
        result = run_rules([fixture], "RPLT01")
        # the parameter and the return annotation are both missing.
        assert codes_of(result) == ["RPLT01", "RPLT01"]

    def test_fully_annotated_function_is_clean(self):
        fixture = src(
            """
            class Box:
                def get(self, key: int, *extra: object) -> int:
                    return key
            """,
            module="repro.core.fixture",
        )
        assert codes_of(run_rules([fixture], "RPLT01")) == []

    def test_non_strict_module_is_exempt(self):
        fixture = src(
            "def f(x):\n    return x\n", module="repro.bench.fixture"
        )
        assert codes_of(run_rules([fixture], "RPLT01")) == []

    def test_allowlist_is_configurable(self):
        fixture = src(
            "def f(x):\n    return x\n", module="repro.bench.fixture"
        )
        config = LintConfig(
            strict_typed_modules=("repro.bench",), select=("RPLT01",)
        )
        result = lint_sources([fixture], config)
        assert codes_of(result) == ["RPLT01", "RPLT01"]


# -- suppressions -------------------------------------------------------


class TestSuppressions:
    def test_trailing_suppression_silences_its_line(self):
        fixture = src("import random  # reprolint: disable=RPL003 -- fixture\n")
        assert codes_of(run_rules([fixture], "RPL000", "RPL003")) == []

    def test_standalone_suppression_covers_the_next_line(self):
        fixture = src(
            "# reprolint: disable=RPL003 -- fixture\n"
            "import random\n"
        )
        assert codes_of(run_rules([fixture], "RPL000", "RPL003")) == []

    def test_file_level_suppression_covers_everything(self):
        fixture = src(
            "# reprolint: disable-file=RPL003 -- fixture file\n"
            "import random\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert codes_of(run_rules([fixture], "RPL000", "RPL003")) == []

    def test_suppression_does_not_leak_to_other_rules(self):
        fixture = src(
            "import time\n"
            "def f(stats):\n"
            "    stats.page_reads += time.time()"
            "  # reprolint: disable=RPL003 -- fixture\n"
        )
        result = run_rules([fixture], "RPL000", "RPL002", "RPL003")
        assert codes_of(result) == ["RPL002"]

    def test_missing_reason_fires_rpl000(self):
        fixture = src("import random  # reprolint: disable=RPL003\n")
        result = run_rules([fixture], "RPL000", "RPL003")
        assert "RPL000" in codes_of(result)

    def test_unknown_code_fires_rpl000(self):
        fixture = src("x = 1  # reprolint: disable=RPL999 -- because\n")
        result = run_rules([fixture], "RPL000")
        assert codes_of(result) == ["RPL000"]


# -- reporters ----------------------------------------------------------


class TestReporters:
    def _result(self):
        fixture = src("import random\n", path="pkg/f.py")
        return run_rules([fixture], "RPL003")

    def test_json_schema(self):
        payload = json.loads(render_json(self._result()))
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (violation,) = payload["violations"]
        assert set(violation) == {"code", "message", "path", "line", "col"}
        assert violation["code"] == "RPL003"
        assert violation["path"] == "pkg/f.py"
        assert violation["line"] == 1

    def test_json_clean_tree(self):
        payload = json.loads(render_json(run_rules([], "RPL003")))
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_text_report(self):
        text = render_text(self._result())
        assert "pkg/f.py:1:" in text
        assert "RPL003" in text
        assert "1 violation(s) in 1 file(s)" in text


# -- the driver ---------------------------------------------------------


class TestDriver:
    def test_every_shipped_rule_is_registered(self):
        expected = {
            "RPL000",
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL011",
            "RPL012",
            "RPL014",
            "RPLT01",
        }
        assert expected <= set(RULES)
        # retired with the shard drain pool and the deprecated surfaces
        # (RPL004/RPL005), as generic hygiene (RPL006/RPL007), and with
        # nothing left to guard: the kernels module (RPL009) and the
        # path-wise counter charges (RPL013, now a runtime check in
        # tests/test_monitor_contract.py).
        retired = {"RPL004", "RPL005", "RPL006", "RPL007", "RPL009", "RPL013"}
        assert not retired & set(RULES)

    def test_module_name_resolution(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "monitor.py"
        assert module_name_of(path) == "repro.core.monitor"

    def test_collect_files_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "keep.py").write_text("x = 1\n")
        files = collect_files([tmp_path])
        assert [f.name for f in files] == ["keep.py"]

    def test_unparsable_file_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad])
        assert not result.ok
        assert result.violations == []
        assert [v.code for v in result.parse_errors] == ["RPLE00"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert lint_main([str(clean)]) == 0
        capsys.readouterr()
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 1  # reprolint: disable=RPL999 -- because\n")
        assert lint_main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "RPL000"

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPLT01" in out


# -- the self-check -----------------------------------------------------


class TestShippedTree:
    def test_src_and_tests_lint_clean(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert result.ok, render_text(result)

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--format", "json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True

    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()

    def test_pyproject_declares_the_strict_set(self):
        import tomllib

        with (REPO_ROOT / "pyproject.toml").open("rb") as handle:
            data = tomllib.load(handle)
        strict = data["tool"]["reprolint"]["strict-typed-modules"]
        assert set(strict) == {
            "repro.api",
            "repro.model",
            "repro.geometry",
            "repro.grid",
            "repro.storage",
            "repro.core",
            "repro.shard",
            "repro.index",
            "repro.lint",
            "repro.obs",
            "repro.state",
            "repro.control",
            "repro.validate",
            "repro.sim",
        }
        (override,) = data["tool"]["mypy"]["overrides"]
        assert [m.removesuffix(".*") for m in override["module"]] == strict
        assert data["project"]["version"] == "9.0.0"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
