"""reprolint: every rule fires on a bad fixture, stays quiet on a good
one, suppressions and the reporters (text, JSON, SARIF) behave, and —
the self-check — the shipped tree lints clean."""

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
    render_sarif,
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

    def test_stream_fields_outside_lifecycle_fire(self):
        fixture = src(
            """
            def fake_peak(monitor):
                monitor.counters.maintained_peak += 1
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


# -- RPL011: durability discipline ---------------------------------------


def state_fixture(text):
    return src(text, module="repro.state.fixture")


class TestDurability:
    def test_write_then_publish_without_flush_fires(self):
        fixture = state_fixture(
            """
            def publish(path, tmp, data):
                tmp.write_text(data)
                tmp.replace(path)
            """
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "flush+fsync" in result.violations[0].message
        assert result.violations[0].line == 4  # the tmp.replace line

    def test_flush_without_fsync_fires_with_fsync_message(self):
        fixture = state_fixture(
            """
            def publish(path, tmp, data):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                tmp.replace(path)
            """
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "os.fsync" in result.violations[0].message

    def test_full_protocol_is_clean(self):
        fixture = state_fixture(
            """
            import os

            def publish(path, tmp, data):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                tmp.replace(path)
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_branch_that_skips_fsync_fires(self):
        # the happy branch syncs, the fast branch does not: a branch
        # body may not run, so the search does not look inside it.
        fixture = state_fixture(
            """
            import os

            def publish(path, tmp, data, fast):
                tmp.write_text(data)
                if not fast:
                    with tmp.open("a") as handle:
                        handle.flush()
                        os.fsync(handle.fileno())
                tmp.replace(path)
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == ["RPL011"]

    def test_fsync_under_an_if_inside_the_with_fires(self):
        fixture = state_fixture(
            """
            import os

            def publish(path, tmp, data, durable):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                    if durable:
                        os.fsync(handle.fileno())
                tmp.replace(path)
            """
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "os.fsync" in result.violations[0].message

    def test_publish_inside_a_branch_sees_the_enclosing_siblings(self):
        fixture = state_fixture(
            """
            import os

            def publish(path, tmp, data, ready):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                if ready:
                    os.replace(tmp, path)
                os.replace(tmp, path)
                tmp.replace(path)
            """
        )
        # the branch may not run, so only the last publish comes after
        # one that used up the sequence.
        result = run_rules([fixture], "RPL011")
        assert [v.line for v in result.violations] == [12]
        assert "write -> flush -> fsync" in result.violations[0].message

    def test_str_replace_is_not_a_publish(self):
        fixture = state_fixture(
            """
            def sanitize(tmp, name):
                tmp.write_text(name)
                return name.replace(" ", "-")
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_os_replace_two_args_is_a_publish(self):
        fixture = state_fixture(
            """
            import os

            def publish(path, tmp, data):
                tmp.write_text(data)
                os.replace(tmp, path)
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == ["RPL011"]

    def test_out_of_scope_module_is_ignored(self):
        fixture = src(
            """
            def publish(path, tmp, data):
                tmp.write_text(data)
                tmp.replace(path)
            """,
            module="repro.bench.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_swallowed_mutation_without_rollback_fires(self):
        fixture = state_fixture(
            """
            class Store:
                def adopt(self, value):
                    old = self.state
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        log("ignored")
            """
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "self.state" in result.violations[0].message

    def test_handler_rollback_is_clean(self):
        fixture = state_fixture(
            """
            class Store:
                def adopt(self, value):
                    old = self.state
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        self.state = old
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_reraising_handler_is_clean(self):
        fixture = state_fixture(
            """
            class Store:
                def adopt(self, value):
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        log("failed")
                        raise
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []


# -- RPL012: lock discipline ---------------------------------------------


def locked_class(method, module="repro.obs.fixture"):
    """A lock-owning class guarding ``_jobs``, plus ``method``."""
    header = """
        import threading

        class Pool:
            GUARDED_FIELDS = ("_jobs",)

            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = []
    """
    body = textwrap.indent(textwrap.dedent(method), "    ")
    return src(textwrap.dedent(header) + body, module=module)


class TestLockDiscipline:
    def test_lock_owner_without_guarded_fields_fires(self):
        fixture = src(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []
            """,
            module="repro.obs.fixture",
        )
        result = run_rules([fixture], "RPL012")
        assert codes_of(result) == ["RPL012"]
        assert "GUARDED_FIELDS" in result.violations[0].message

    def test_unguarded_access_fires(self):
        fixture = locked_class(
            """
            def pending(self):
                return len(self._jobs)
            """
        )
        result = run_rules([fixture], "RPL012")
        assert codes_of(result) == ["RPL012"]
        assert "_jobs" in result.violations[0].message

    def test_with_lock_access_is_clean(self):
        fixture = locked_class(
            """
            def pending(self):
                with self._lock:
                    return len(self._jobs)
            """
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []

    def test_acquire_release_pair_fires(self):
        # only ``with`` counts: its extent is what the reader sees.
        fixture = locked_class(
            """
            def drain(self):
                self._lock.acquire()
                jobs = list(self._jobs)
                self._lock.release()
                return jobs
            """
        )
        assert codes_of(run_rules([fixture], "RPL012")) == ["RPL012"]

    def test_access_after_release_fires(self):
        fixture = locked_class(
            """
            def leak(self):
                with self._lock:
                    pass
                return list(self._jobs)
            """
        )
        assert codes_of(run_rules([fixture], "RPL012")) == ["RPL012"]

    def test_conditionally_held_lock_fires(self):
        fixture = locked_class(
            """
            def maybe(self, fast):
                if not fast:
                    self._lock.acquire()
                self._jobs.append(1)
            """
        )
        assert codes_of(run_rules([fixture], "RPL012")) == ["RPL012"]

    def test_init_is_exempt(self):
        fixture = src(
            """
            import threading

            class Pool:
                GUARDED_FIELDS = ("_jobs",)

                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []
                    self._jobs.append(0)
            """,
            module="repro.obs.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []

    def test_out_of_scope_module_is_ignored(self):
        fixture = locked_class(
            """
            def pending(self):
                return len(self._jobs)
            """,
            module="repro.core.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []


# -- RPL015: catalog & epoch discipline ----------------------------------


class TestCatalogDiscipline:
    def test_direct_mutation_outside_owners_fires(self):
        fixture = src(
            """
            def grow(monitor, place):
                monitor.store.add_place(place)
            """
        )
        result = run_rules([fixture], "RPL015")
        assert codes_of(result) == ["RPL015"]
        assert "journaled control event" in result.violations[0].message

    def test_all_three_mutators_fire(self):
        fixture = src(
            """
            def churn(store, place):
                store.add_place(place)
                store.remove_place(3)
                store.reweight(3, 7)
            """
        )
        assert codes_of(run_rules([fixture], "RPL015")) == ["RPL015"] * 3

    def test_owning_packages_are_exempt(self):
        for module in ("repro.storage.placestore", "repro.control.apply"):
            fixture = src(
                """
                def grow(store, place):
                    store.add_place(place)
                """,
                module=module,
            )
            assert codes_of(run_rules([fixture], "RPL015")) == []

    def test_self_call_is_exempt(self):
        fixture = src(
            """
            class Wrapper:
                def add_place(self, place): ...

                def grow(self, place):
                    self.add_place(place)
            """
        )
        assert codes_of(run_rules([fixture], "RPL015")) == []

    def test_epoch_write_outside_control_fires(self):
        fixture = src(
            """
            def bump(monitor):
                monitor.epoch += 1
            """,
            module="repro.engine.fixture",
        )
        result = run_rules([fixture], "RPL015")
        assert codes_of(result) == ["RPL015"]
        assert "control plane" in result.violations[0].message

    def test_epoch_write_allowed_in_control_and_monitor_self(self):
        control = src(
            """
            def bump(monitor):
                monitor.epoch += 1
            """,
            module="repro.control.apply",
        )
        monitor = src(
            """
            class CTUPMonitor:
                def restore_state(self, state):
                    self.epoch = int(state.get("epoch", 0))
            """,
            module="repro.core.monitor",
        )
        assert codes_of(run_rules([control, monitor], "RPL015")) == []

    def test_epoch_write_on_foreign_monitor_fires_even_in_core(self):
        fixture = src(
            """
            def sync(self, other):
                other.epoch = self.epoch
            """,
            module="repro.core.monitor",
        )
        assert codes_of(run_rules([fixture], "RPL015")) == ["RPL015"]

    def test_aliased_mutator_fires_where_it_is_named(self):
        fixture = src(
            """
            def grow(store, places):
                write = store.add_place
                for place in places:
                    write(place)
            """
        )
        result = run_rules([fixture], "RPL015")
        assert [v.line for v in result.violations] == [3]
        assert "aliased" in result.violations[0].message

    def test_cleared_alias_still_fires(self):
        # naming the mutator is the finding, not the later call.
        fixture = src(
            """
            def grow(store, log, places):
                write = store.add_place
                write = log.append
                for place in places:
                    write(place)
            """
        )
        assert codes_of(run_rules([fixture], "RPL015")) == ["RPL015"]

    def test_alias_bound_on_one_branch_still_fires(self):
        fixture = src(
            """
            def grow(store, log, place, fast):
                if fast:
                    write = store.add_place
                else:
                    write = log.append
                write(place)
            """
        )
        assert codes_of(run_rules([fixture], "RPL015")) == ["RPL015"]

    def test_reasoned_suppression_works(self):
        fixture = src(
            """
            def grow(monitor, place):
                monitor.store.add_place(place)  # reprolint: disable=RPL015 -- fixture exercises the bare-store path
            """
        )
        assert codes_of(run_rules([fixture], "RPL015")) == []


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

    def test_suppression_covers_only_its_own_line(self):
        # a comment alone on its line covers that line, not the next.
        fixture = state_fixture(
            """
            def publish(path, tmp, data):
                # reprolint: disable=RPL011 -- wrong line: covers nothing
                tmp.replace(path)
            """
        )
        assert codes_of(run_rules([fixture], "RPL011")) == ["RPL011"]

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
        fixture = src(
            "import random  # reprolint: disable=RPL999 -- no such rule\n"
        )
        result = run_rules([fixture], "RPL000", "RPL003")
        # the unknown code suppresses nothing.
        assert sorted(codes_of(result)) == ["RPL000", "RPL003"]

    def test_disable_file_is_scoped_to_its_own_file(self):
        waived = src(
            "# reprolint: disable-file=RPL003 -- fixture-wide waiver\n"
            "import random\n",
            path="waived.py",
        )
        other = src("import random\n", path="other.py")
        result = run_rules([waived, other], "RPL003")
        assert [(v.code, v.path) for v in result.violations] == [
            ("RPL003", "other.py")
        ]

    def test_multiple_codes_on_one_line(self):
        fixture = src(
            "import time\n"
            "def f(stats):\n"
            "    stats.page_reads += time.time()"
            "  # reprolint: disable=RPL002,RPL003 -- fixture exercises both\n"
        )
        result = run_rules([fixture], "RPL000", "RPL002", "RPL003")
        assert codes_of(result) == []


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


class TestSarif:
    def _dirty(self):
        fixture = src("import random\n", path="pkg/f.py")
        return run_rules([fixture], "RPL003")

    def test_sarif_2_1_0_shape(self):
        payload = json.loads(render_sarif(self._dirty()))
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        (run,) = payload["runs"]
        assert run["columnKind"] == "utf16CodeUnits"
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        ids = [entry["id"] for entry in driver["rules"]]
        assert ids == sorted(ids)
        assert set(ids) == set(RULES)

    def test_results_reference_the_rule_table(self):
        payload = json.loads(render_sarif(self._dirty()))
        (run,) = payload["runs"]
        ids = [entry["id"] for entry in run["tool"]["driver"]["rules"]]
        (entry,) = run["results"]
        assert entry["ruleId"] == "RPL003"
        assert ids[entry["ruleIndex"]] == "RPL003"
        assert entry["level"] == "error"
        assert entry["message"]["text"]

    def test_locations_are_one_based(self):
        result = self._dirty()
        payload = json.loads(render_sarif(result))
        (entry,) = payload["runs"][0]["results"]
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "pkg/f.py"
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        region = location["region"]
        assert region["startLine"] == result.violations[0].line >= 1
        assert region["startColumn"] == result.violations[0].col + 1 >= 1

    def test_clean_tree_has_empty_results(self):
        payload = json.loads(render_sarif(run_rules([], "RPL003")))
        assert payload["runs"][0]["results"] == []

    def test_cli_emits_parseable_sarif(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 1  # reprolint: disable=RPL999 -- because\n")
        assert lint_main([str(dirty), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"][0]["ruleId"] == "RPL000"


# -- the driver ---------------------------------------------------------


class TestDriver:
    def test_every_shipped_rule_is_registered(self):
        expected = {
            "RPL000",
            "RPL002",
            "RPL003",
            "RPL011",
            "RPL012",
            "RPL015",
            "RPLT01",
        }
        assert expected <= set(RULES)
        # retired with the shard drain pool and the deprecated surfaces
        # (RPL004/RPL005), as generic hygiene (RPL006/RPL007), and with
        # nothing left to guard: the kernels module (RPL009). Checks on
        # the live classes replaced the rest: the scheme contract
        # (RPL001) and the path-wise counter charges (RPL013) in
        # tests/test_monitor_contract.py, the undeclared-field guard
        # (RPL008) and the phase guard (RPL014) in tests/machine.py, and
        # the burst-size-independent obs calls (RPL010) in
        # tests/test_burst.py.
        retired = {
            "RPL001", "RPL004", "RPL005", "RPL006", "RPL007", "RPL008",
            "RPL009", "RPL010", "RPL013", "RPL014",
        }
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
        assert "RPL002" in out and "RPLT01" in out


# -- the self-check -----------------------------------------------------


class TestShippedTree:
    def test_src_and_tests_lint_clean(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert result.ok, render_text(result)
        assert result.files_checked == len(
            collect_files([REPO_ROOT / "src", REPO_ROOT / "tests"])
        )

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
        assert data["project"]["version"] == "10.0.0"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
