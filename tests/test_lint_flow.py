"""The flow-sensitive reprolint layer: CFG construction, the dataflow
solver, the call graph, the path-aware rules RPL011, RPL012, RPL014
and RPL015 (bad and good fixtures each), the SARIF reporter,
suppression edge cases, and — the self-check — reprolint analysing its
own flow package."""

import ast
import json
import pathlib
import sys
import textwrap

import pytest

from repro.lint import LintConfig, lint_paths, lint_sources, render_sarif
from repro.lint.cli import main as lint_main
from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.flow.callgraph import CallGraph, function_summaries
from repro.lint.flow.cfg import (
    EDGE_EXCEPTION,
    EDGE_LOOP,
    EDGE_RAISE,
    EDGE_RETURN,
    build_cfg,
    scan_roots,
)
from repro.lint.flow.dataflow import (
    BOTTOM,
    FlagLattice,
    solve_forward,
)
from repro.lint.registry import RULES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def src(text, module="repro.core.fixture", path="fixture.py"):
    return SourceFile(path, textwrap.dedent(text), module)


def run_rules(sources, *select):
    config = LintConfig(select=tuple(select))
    return lint_sources(sources, config)


def codes_of(result):
    return [v.code for v in result.violations]


def fn_cfg(text):
    """The CFG of the single function in ``text``."""
    tree = ast.parse(textwrap.dedent(text))
    node = tree.body[0]
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(node)


# -- CFG construction ----------------------------------------------------


class TestCfg:
    def test_linear_body_single_fallthrough_exit(self):
        cfg = fn_cfg(
            """
            def f(x):
                y = x + 1
                z = y * 2
            """
        )
        kinds = [edge.kind for edge in cfg.exit_edges()]
        assert kinds == ["fallthrough"]
        assert len(list(cfg.statement_blocks())) == 2

    def test_if_else_true_false_edges(self):
        cfg = fn_cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        tests = [b for b in cfg.blocks.values() if b.label == "test"]
        assert len(tests) == 1
        out_kinds = {e.kind for e in cfg.successors(tests[0].block_id)}
        assert out_kinds == {"true", "false"}
        assert [e.kind for e in cfg.exit_edges()] == [EDGE_RETURN]

    def test_while_loop_back_edge(self):
        cfg = fn_cfg(
            """
            def f(n):
                while n:
                    n -= 1
            """
        )
        assert any(
            edge.kind == EDGE_LOOP
            for edges in [cfg.successors(b) for b in cfg.blocks]
            for edge in edges
        )

    def test_early_return_gives_two_exit_edges(self):
        cfg = fn_cfg(
            """
            def f(x):
                if x:
                    return 1
                x = 2
            """
        )
        kinds = sorted(edge.kind for edge in cfg.exit_edges())
        assert kinds == ["fallthrough", "return"]

    def test_try_body_statements_get_exception_edges(self):
        cfg = fn_cfg(
            """
            def f():
                try:
                    risky()
                    more()
                except ValueError:
                    recover()
            """
        )
        handlers = [
            b.block_id for b in cfg.blocks.values() if b.label == "except"
        ]
        assert len(handlers) == 1
        into_handler = [
            e for e in cfg.predecessors(handlers[0]) if e.kind == EDGE_EXCEPTION
        ]
        # both try-body statements may raise into the handler.
        assert len(into_handler) == 2

    def test_bare_raise_is_a_raise_exit(self):
        cfg = fn_cfg(
            """
            def f():
                raise ValueError("no")
            """
        )
        assert [e.kind for e in cfg.exit_edges()] == [EDGE_RAISE]

    def test_return_in_try_runs_finally(self):
        cfg = fn_cfg(
            """
            def f():
                try:
                    return 1
                finally:
                    cleanup()
            """
        )
        # the return edge must leave from the re-lowered finally body,
        # not from the return statement itself.
        (ret_edge,) = [e for e in cfg.exit_edges() if e.kind == EDGE_RETURN]
        block = cfg.blocks[ret_edge.src]
        assert isinstance(block.node, ast.Expr)  # the cleanup() call

    def test_with_blocks_record_lexical_items(self):
        cfg = fn_cfg(
            """
            def f(self):
                with self._lock:
                    inner()
                outer()
            """
        )
        inner_blocks = [
            b
            for b in cfg.statement_blocks()
            if isinstance(b.node, ast.Expr) and b.withitems
        ]
        assert len(inner_blocks) == 1
        expr = inner_blocks[0].withitems[0].context_expr
        assert isinstance(expr, ast.Attribute) and expr.attr == "_lock"

    def test_unreachable_code_after_return_is_dropped(self):
        cfg = fn_cfg(
            """
            def f():
                return 1
                never()
            """
        )
        stmts = [b.node for b in cfg.statement_blocks()]
        assert all(isinstance(node, ast.Return) for node in stmts)

    def test_scan_roots_for_header_evaluates_only_iter(self):
        tree = ast.parse("for x in items:\n    body()\n")
        (roots,) = [scan_roots(tree.body[0])]
        assert len(roots) == 1
        assert isinstance(roots[0], ast.Name) and roots[0].id == "items"

    def test_scan_roots_with_header_evaluates_context_exprs(self):
        tree = ast.parse("with open(p) as h, lock:\n    body()\n")
        roots = scan_roots(tree.body[0])
        assert len(roots) == 2


# -- the dataflow solver -------------------------------------------------


class TestDataflow:
    def test_flag_lattice_join_and_queries(self):
        lattice = FlagLattice(default="clean")
        a = lattice.write(lattice.initial(["k"]), "k", "written")
        b = lattice.initial(["k"])
        merged = lattice.join([a, b])
        assert merged["k"] == frozenset({"written", "clean"})
        assert lattice.may(merged, "k", "written")
        assert not lattice.definitely(merged, "k", "written")
        assert lattice.definitely(a, "k", "written")

    def test_forward_solver_merges_branches(self):
        cfg = fn_cfg(
            """
            def f(x):
                if x:
                    mark()
                done()
            """
        )
        lattice = FlagLattice(default="no")

        def transfer(block, state):
            node = block.node
            if node is not None and "mark" in ast.dump(node):
                return lattice.write(state, "m", "yes")
            return state

        in_states = solve_forward(
            cfg, lattice.initial(["m"]), transfer, lattice.join
        )
        (done_block,) = [
            b
            for b in cfg.statement_blocks()
            if b.node is not None and "done" in ast.dump(b.node)
        ]
        state = in_states[done_block.block_id]
        assert state["m"] == frozenset({"yes", "no"})

    def test_exception_edges_carry_pre_state(self):
        cfg = fn_cfg(
            """
            def f():
                try:
                    charge()
                except ValueError:
                    handled()
            """
        )
        lattice = FlagLattice(default="0")

        def transfer(block, state):
            node = block.node
            if node is not None and "charge" in ast.dump(node):
                return lattice.write(state, "c", "1")
            return state

        in_states = solve_forward(
            cfg, lattice.initial(["c"]), transfer, lattice.join
        )
        (handler,) = [
            b for b in cfg.blocks.values() if b.label == "except"
        ]
        # the handler sees the state from *before* charge() completed.
        assert in_states[handler.block_id]["c"] == frozenset({"0"})

    def test_unreachable_blocks_stay_bottom(self):
        cfg = fn_cfg(
            """
            def f():
                return 1
                never()
            """
        )
        lattice = FlagLattice(default="x")
        in_states = solve_forward(
            cfg, lattice.initial(["k"]), lambda b, s: s, lattice.join
        )
        reachable = [s for s in in_states.values() if s is not BOTTOM]
        assert reachable  # entry at least


# -- the call graph ------------------------------------------------------


class TestCallGraph:
    def _summaries(self, text, module="repro.core.fixture"):
        tree = ast.parse(textwrap.dedent(text))
        return function_summaries(tree, module, "fixture.py")

    def test_nested_defs_fold_into_enclosing_function(self):
        summaries = self._summaries(
            """
            def outer():
                def closure():
                    inner_call()
                closure()
            """
        )
        (outer,) = summaries
        assert outer.qualname == "outer"
        callees = {site.callee for site in outer.calls}
        assert {"inner_call", "closure"} <= callees

    def test_name_kind_resolves_within_module(self):
        summaries = self._summaries(
            """
            def helper():
                pass

            def caller():
                helper()
            """
        )
        graph = CallGraph(summaries)
        caller = graph.find("repro.core.fixture", "caller")
        (site,) = caller.calls
        (target,) = graph.resolve(caller, site)
        assert target.qualname == "helper"

    def test_self_kind_resolves_through_ancestors(self):
        base = src(
            """
            class Base:
                def helper(self):
                    pass
            """,
            module="repro.core.base",
            path="base.py",
        )
        sub = src(
            """
            class Sub(Base):
                def caller(self):
                    self.helper()
            """,
            module="repro.core.sub",
            path="sub.py",
        )
        project = ProjectIndex([base, sub], LintConfig())
        graph = project.callgraph
        caller = graph.find("repro.core.sub", "Sub.caller")
        (site,) = caller.calls
        targets = {t.qualname for t in graph.resolve(caller, site)}
        assert "Base.helper" in targets

    def test_reachable_from_maps_back_to_roots(self):
        summaries = self._summaries(
            """
            def a():
                b()

            def b():
                c()

            def c():
                pass

            def island():
                pass
            """
        )
        graph = CallGraph(summaries)
        root = graph.find("repro.core.fixture", "a")
        origin = graph.reachable_from([root])
        assert origin[("repro.core.fixture", "c")] == root.key
        assert ("repro.core.fixture", "island") not in origin


# -- RPL011: durability discipline ---------------------------------------


class TestDurability:
    def test_write_then_publish_without_flush_fires(self):
        fixture = src(
            """
            def publish(path, tmp, data):
                tmp.write_text(data)
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "flush+fsync" in result.violations[0].message
        assert result.violations[0].line == 4  # the tmp.replace line

    def test_flush_without_fsync_fires_with_fsync_message(self):
        fixture = src(
            """
            def publish(path, tmp, data):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "os.fsync" in result.violations[0].message

    def test_full_protocol_is_clean(self):
        fixture = src(
            """
            import os

            def publish(path, tmp, data):
                with tmp.open("w") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_branch_that_skips_fsync_fires(self):
        # path-sensitive: the happy branch syncs, the fast branch does
        # not — a syntactic "fsync appears before replace" check passes
        # this function; only the CFG sees the bad path.
        fixture = src(
            """
            import os

            def publish(path, tmp, data, fast):
                tmp.write_text(data)
                if not fast:
                    with tmp.open("a") as handle:
                        handle.flush()
                        os.fsync(handle.fileno())
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]

    def test_str_replace_is_not_a_publish(self):
        fixture = src(
            """
            def sanitize(tmp, name):
                tmp.write_text(name)
                return name.replace(" ", "-")
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_os_replace_two_args_is_a_publish(self):
        fixture = src(
            """
            import os

            def publish(path, tmp, data):
                tmp.write_text(data)
                os.replace(tmp, path)
            """,
            module="repro.state.fixture",
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
        fixture = src(
            """
            class Store:
                def adopt(self, value):
                    old = self.state
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        log("ignored")
            """,
            module="repro.state.fixture",
        )
        result = run_rules([fixture], "RPL011")
        assert codes_of(result) == ["RPL011"]
        assert "self.state" in result.violations[0].message

    def test_handler_rollback_is_clean(self):
        fixture = src(
            """
            class Store:
                def adopt(self, value):
                    old = self.state
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        self.state = old
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_reraising_handler_is_clean(self):
        fixture = src(
            """
            class Store:
                def adopt(self, value):
                    try:
                        self.state = value
                        commit(value)
                    except ValueError:
                        log("failed")
                        raise
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []


# -- RPL012: lock discipline ---------------------------------------------


LOCKED_CLASS_HEADER = """
    import threading

    class Pool:
        GUARDED_FIELDS = ("_jobs",)

        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = []
"""


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
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def pending(self):
            return len(self._jobs)
            """,
            module="repro.obs.fixture",
        )
        result = run_rules([fixture], "RPL012")
        assert codes_of(result) == ["RPL012"]
        assert "_jobs" in result.violations[0].message

    def test_with_lock_access_is_clean(self):
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def pending(self):
            with self._lock:
                return len(self._jobs)
            """,
            module="repro.obs.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []

    def test_acquire_release_dataflow_is_clean(self):
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def drain(self):
            self._lock.acquire()
            jobs = list(self._jobs)
            self._lock.release()
            return jobs
            """,
            module="repro.obs.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []

    def test_access_after_release_fires(self):
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def leak(self):
            self._lock.acquire()
            self._lock.release()
            return list(self._jobs)
            """,
            module="repro.obs.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == ["RPL012"]

    def test_conditionally_held_lock_fires(self):
        # path-sensitive: one branch acquires, the join does not hold
        # the lock *definitely* — only dataflow catches this.
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def maybe(self, fast):
            if not fast:
                self._lock.acquire()
            self._jobs.append(1)
            """,
            module="repro.obs.fixture",
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
        fixture = src(
            LOCKED_CLASS_HEADER
            + """
        def pending(self):
            return len(self._jobs)
            """,
            module="repro.core.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL012")) == []


# -- RPL014: phase protocol over the call graph --------------------------


PHASE_MONITOR = """
    class CTUPMonitor:
        def apply_update(self, update): ...
        def _apply(self, update): ...
        def refresh(self):
            return self._refresh()
        def _refresh(self):
            return rebuild(self)
        def top_k(self): ...
        def sk(self): ...
        def partial_top_k(self, m): ...
        def process(self, update):
            self.apply_update(update)
            return self.refresh()

    def rebuild(monitor):
        monitor.apply_update(None)
        return 0
"""


class TestPhaseProtocol:
    def test_access_reaching_maintain_fires_at_call_site(self):
        fixture = src(
            PHASE_MONITOR, module="repro.core.monitor", path="monitor.py"
        )
        result = run_rules([fixture], "RPL014")
        assert codes_of(result) == ["RPL014"]
        violation = result.violations[0]
        assert "apply_update" in violation.message
        assert "_refresh" in violation.message
        # flagged inside rebuild(), not at the _refresh entry.
        assert violation.line == 17  # the monitor.apply_update(None) line

    def test_maintain_side_calls_are_clean(self):
        clean = """
            class CTUPMonitor:
                def apply_update(self, update): ...
                def _apply(self, update): ...
                def _refresh(self):
                    return score(self)
                def top_k(self): ...
                def sk(self): ...
                def partial_top_k(self, m): ...
                def process(self, update):
                    self.apply_update(update)
                    return self._refresh()

            def score(monitor):
                return 0
        """
        fixture = src(clean, module="repro.core.monitor", path="monitor.py")
        assert codes_of(run_rules([fixture], "RPL014")) == []

    def test_crossing_in_subclass_helper_fires(self):
        base = src(
            """
            class CTUPMonitor:
                def apply_update(self, update): ...
                def _apply(self, update): ...
                def _refresh(self): ...
                def top_k(self): ...
                def sk(self): ...
                def partial_top_k(self, m): ...
            """,
            module="repro.core.monitor",
            path="monitor.py",
        )
        ext = src(
            """
            class EagerScheme(CTUPMonitor):
                def _refresh(self):
                    return self._drain()

                def _drain(self):
                    self.apply_update(None)
            """,
            module="repro.core.eager",
            path="eager.py",
        )
        result = run_rules([base, ext], "RPL014")
        assert codes_of(result) == ["RPL014"]
        assert result.violations[0].path == "eager.py"

    def test_walk_stays_inside_monitor_modules(self):
        base = src(
            """
            class CTUPMonitor:
                def apply_update(self, update): ...
                def _apply(self, update): ...
                def _refresh(self):
                    return self.obs.record(self)
                def top_k(self): ...
                def sk(self): ...
                def partial_top_k(self, m): ...
            """,
            module="repro.core.monitor",
            path="monitor.py",
        )
        harness = src(
            """
            class Timeline:
                def record(self, monitor):
                    monitor.apply_update(None)
            """,
            module="repro.bench.timeline",
            path="timeline.py",
        )
        # Timeline.record is name-resolvable from _refresh but lives
        # outside WALK_SCOPES — the harness layer is not access-phase.
        assert codes_of(run_rules([base, harness], "RPL014")) == []

    def test_suppression_at_the_call_site_works(self):
        suppressed = PHASE_MONITOR.replace(
            "        monitor.apply_update(None)",
            "        # reprolint: disable=RPL014 -- fixture documents a"
            " deliberate refresh-time drain\n"
            "        monitor.apply_update(None)",
        )
        fixture = src(
            suppressed, module="repro.core.monitor", path="monitor.py"
        )
        assert codes_of(run_rules([fixture], "RPL014")) == []


# -- rule registration metadata ------------------------------------------


class TestFlowRuleRegistry:
    def test_flow_rules_registered(self):
        for code in ("RPL011", "RPL012", "RPL014", "RPL015"):
            assert code in RULES, code


# -- SARIF reporter ------------------------------------------------------


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


# -- suppression edge cases ----------------------------------------------


class TestSuppressionEdgeCases:
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

    def test_standalone_comment_suppresses_flow_rule_on_next_line(self):
        fixture = src(
            """
            def publish(path, tmp, data):
                tmp.write_text(data)
                # reprolint: disable=RPL011 -- fixture documents the tradeoff
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == []

    def test_flow_rule_suppression_needs_the_right_line(self):
        fixture = src(
            """
            def publish(path, tmp, data):
                # reprolint: disable=RPL011 -- wrong line: covers the write
                tmp.write_text(data)
                tmp.replace(path)
            """,
            module="repro.state.fixture",
        )
        assert codes_of(run_rules([fixture], "RPL011")) == ["RPL011"]


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

    def test_aliased_mutator_call_is_tracked_through_the_cfg(self):
        fixture = src(
            """
            def grow(store, places):
                write = store.add_place
                for place in places:
                    write(place)
            """
        )
        result = run_rules([fixture], "RPL015")
        assert codes_of(result) == ["RPL015"]
        assert "alias" in result.violations[0].message

    def test_cleared_alias_is_not_flagged(self):
        fixture = src(
            """
            def grow(store, log, places):
                write = store.add_place
                write = log.append
                for place in places:
                    write(place)
            """
        )
        result = run_rules([fixture], "RPL015")
        # the rebinding clears the alias before any call.
        assert codes_of(result) == []

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


def _findings(result):
    return [
        (v.code, v.path, v.line, v.col, v.message)
        for v in result.all_findings()
    ]


# -- the self-check ------------------------------------------------------


class TestFlowSelfCheck:
    def test_flow_package_lints_clean_under_its_own_rules(self):
        flow_dir = REPO_ROOT / "src" / "repro" / "lint" / "flow"
        result = lint_paths([flow_dir])
        assert result.ok, _findings(result)
        assert result.files_checked >= 4  # __init__, cfg, dataflow, callgraph

    def test_whole_lint_package_lints_clean(self):
        result = lint_paths([REPO_ROOT / "src" / "repro" / "lint"])
        assert result.ok, _findings(result)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
