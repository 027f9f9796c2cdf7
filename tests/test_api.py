"""The ``repro.api`` facade: the one supported way in."""

import importlib

import pytest

from repro.api import (
    SCHEMES,
    ShardSpec,
    make_monitor,
    open_session,
    scheme_factory,
)
from repro.core import BasicCTUP, CTUPMonitor, NaiveCTUP, OptCTUP
from repro.core.incremental import IncrementalNaiveCTUP
from repro.engine.session import MonitorSession
from repro.shard import ShardPlan, ShardedMonitor


class TestSchemeRegistry:
    def test_registry_names(self):
        assert set(SCHEMES) == {"naive", "basic", "opt", "incremental"}

    def test_registry_maps_names_to_classes(self):
        assert SCHEMES["naive"] is NaiveCTUP
        assert SCHEMES["basic"] is BasicCTUP
        assert SCHEMES["opt"] is OptCTUP
        assert SCHEMES["incremental"] is IncrementalNaiveCTUP

    def test_scheme_factory_resolves_names_and_rejects_callables(self):
        assert scheme_factory("opt") is OptCTUP
        with pytest.raises(TypeError, match="registered name"):
            scheme_factory(OptCTUP)

    def test_scheme_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_factory("quantum")

    def test_scheme_factory_error_lists_spec_usage(self):
        with pytest.raises(ValueError, match=r"shard=ShardSpec"):
            scheme_factory("quantum")

    def test_sharded_is_first_class(self):
        assert scheme_factory("sharded") is ShardedMonitor
        assert "sharded" in type(SCHEMES).__doc__


class TestMakeMonitor:
    def test_default_is_plain_opt(self, small_config, small_places, small_units):
        monitor = make_monitor(
            places=small_places, units=small_units, config=small_config
        )
        assert isinstance(monitor, OptCTUP)
        assert not monitor.initialized

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_every_scheme_buildable(
        self, name, small_config, small_places, small_units
    ):
        monitor = make_monitor(
            name, places=small_places, units=small_units, config=small_config
        )
        assert isinstance(monitor, SCHEMES[name])

    def test_sharded_when_shards_requested(
        self, small_config, small_places, small_units
    ):
        monitor = make_monitor(
            "basic",
            places=small_places,
            units=small_units,
            config=small_config,
            shard=ShardSpec(shards=3, strategy="interleaved"),
        )
        assert isinstance(monitor, ShardedMonitor)
        assert monitor.plan.n_shards == 3
        assert monitor.scheme_name == "basic"
        assert all(
            isinstance(sh.monitor, BasicCTUP) for sh in monitor.shards
        )

    def test_accepts_explicit_shard_plan(
        self, small_config, small_places, small_units
    ):
        probe = make_monitor(
            places=small_places, units=small_units, config=small_config
        )
        plan = ShardPlan.hashed(probe.grid, 4, seed=2)
        monitor = make_monitor(
            places=small_places,
            units=small_units,
            config=small_config,
            shard=plan,
        )
        assert isinstance(monitor, ShardedMonitor)
        assert monitor.plan is plan

    def test_default_config_when_omitted(self, small_places):
        from repro.workloads import generate_units

        from repro.core import CTUPConfig

        units = generate_units(5, CTUPConfig().protection_range, seed=1)
        monitor = make_monitor("naive", places=small_places, units=units)
        assert monitor.config.k == CTUPConfig().k


class TestOpenSession:
    def test_builds_and_runs(
        self, small_config, small_places, small_units, small_stream, small_oracle
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
        )
        assert isinstance(session, MonitorSession)
        report = session.start()
        assert report is not None and report.places_loaded > 0
        assert session.run(small_stream) == len(small_stream)
        for update in small_stream:
            small_oracle.apply(update)
        verdict = small_oracle.validate(
            session.monitor.top_k(), small_config.k
        )
        assert verdict.ok, verdict.problems

    def test_forwards_session_knobs(
        self, small_config, small_places, small_units
    ):
        session = open_session(
            places=small_places,
            units=small_units,
            config=small_config,
            batch_size=8,
            audit_every=100,
            track_changes=False,
        )
        assert session.batch_size == 8
        assert session.batcher is not None
        assert session.audit_every == 100
        assert session.track_changes is False

    def test_adopts_existing_monitor(
        self, small_config, small_places, small_units
    ):
        monitor = make_monitor(
            "naive", places=small_places, units=small_units, config=small_config
        )
        session = open_session(monitor=monitor)
        assert session.monitor is monitor

    def test_rejects_neither_monitor_nor_world(self):
        with pytest.raises(ValueError, match="either a monitor or places"):
            open_session("opt")

    def test_rejects_both_monitor_and_world(
        self, small_config, small_places, small_units
    ):
        monitor = make_monitor(
            places=small_places, units=small_units, config=small_config
        )
        with pytest.raises(ValueError, match="not both"):
            open_session(monitor=monitor, places=small_places)

    def test_sharded_session_end_to_end(
        self, small_config, small_places, small_units, small_stream
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            shard=ShardSpec(shards=4),
        )
        session.start()
        session.run(small_stream)
        sharded = session.monitor
        assert isinstance(sharded, ShardedMonitor)
        assert len(sharded.top_k()) == small_config.k


def test_surfaces_removed_in_2_0_are_gone(small_config, small_places, small_units):
    world = dict(places=small_places, units=small_units, config=small_config)
    with pytest.raises(TypeError):
        open_session("opt", shards=4, **world)
    with pytest.raises(TypeError):
        make_monitor("opt", parallelism=2, **world)
    with pytest.raises(TypeError):
        ShardSpec(parallelism=2)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.persist")
    assert not hasattr(CTUPMonitor, "run_stream")


def test_surfaces_removed_in_3_0_are_gone(
    small_config, small_places, small_units
):
    import repro.core
    import repro.state

    for module in (
        "repro.ext.extent",
        "repro.ext.predictive",
        "repro.core.multik",
        "repro.core.history",
        "repro.core.adaptive",
        "repro.bench.sweep",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    # Δ is config.delta: the runtime property is gone, and a write fails
    # too instead of landing in the instance dict.
    monitor = OptCTUP(small_config, small_places, small_units)
    with pytest.raises(AttributeError, match="config.delta"):
        monitor.delta
    with pytest.raises(AttributeError, match="config.delta"):
        monitor.delta = 1
    assert "delta" not in vars(monitor)
    assert monitor.config.delta == small_config.delta
    assert len(repro.core.__all__) == 17
    assert not hasattr(repro.state, "Snapshottable")


def test_surfaces_removed_in_5_0_are_gone(
    small_config, small_places, small_units, small_stream
):
    import repro.obs
    from repro.obs import ObsSpec

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.hooks")
    world = dict(places=small_places, units=small_units, config=small_config)
    with pytest.raises(TypeError):
        open_session("opt", hooks=(), **world)
    assert not hasattr(MonitorSession, "add_hook")
    assert not hasattr(repro.obs, "sync_monitor_metrics")
    for batch_size in (0, 8):
        session = open_session(
            "opt", batch_size=batch_size, obs=ObsSpec(metrics=True), **world
        )
        session.run(small_stream)
        text = session.metrics_text()
        assert "ctup_session_updates_total" in text
        assert "ctup_session_batches_total" not in text
        assert "ctup_session_refreshes_total" not in text


def test_perfbench_traced_names_exist():
    # perfbench's tracer wraps each entry point it names by reading
    # ``owner.__dict__[attribute]``; a renamed or inherited-only method
    # would fail only a traced benchmark run.
    from perfbench.layers import Recorder, _targets

    targets = _targets(Recorder())
    assert targets
    for owner, attribute, _, _ in targets:
        assert attribute in owner.__dict__, (owner, attribute)


def test_surfaces_removed_in_8_0_are_gone(
    small_config, small_places, small_units, tmp_path
):
    import inspect

    import repro.bench
    import repro.core
    import repro.index
    from repro.bench import run_monitor
    from repro.sim import Simulation
    from repro.state import RecoveryManager, restore_monitor

    for module in ("repro.ext", "repro.index.rtree", "repro.index.snapshot"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert repro.index.__all__ == ["UnitGridIndex"]
    assert "choose_delta" not in repro.core.__all__
    assert not hasattr(repro.bench, "MONITOR_FACTORIES")
    # a scheme is a registered name: no entry point takes a factory.
    world = dict(places=small_places, units=small_units, config=small_config)
    with pytest.raises(TypeError):
        make_monitor(OptCTUP, **world)
    with pytest.raises(TypeError):
        open_session(OptCTUP, durability=tmp_path / "run", **world)
    assert not (tmp_path / "run").exists()
    for callee, argument in (
        (restore_monitor, "factory"),
        (RecoveryManager, "factory"),
        (run_monitor, "factory"),
        (Simulation.from_scenario, "monitor_factory"),
    ):
        assert argument not in inspect.signature(callee).parameters


def test_surfaces_removed_in_9_0_are_gone():
    from repro.core import MaintainedPlaces

    for name in ("min_safety", "cells_present", "remove_row"):
        assert not hasattr(MaintainedPlaces, name), name
    assert not hasattr(MaintainedPlaces(), "_row_of")
