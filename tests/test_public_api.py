"""The public API surface: exports resolve, are documented, and stay put."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.geometry",
    "repro.grid",
    "repro.storage",
    "repro.workloads",
    "repro.roadnet",
    "repro.bench",
    "repro.index",
    "repro.experiments",
    "repro.validate",
    "repro.shard",
    "repro.api",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if callable(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_top_level_surface_is_stable():
    import repro

    expected = {
        "CTUPConfig",
        "NaiveCTUP",
        "BasicCTUP",
        "OptCTUP",
        "Place",
        "Unit",
        "LocationUpdate",
        "Oracle",
        "generate_places",
        "generate_units",
        "make_monitor",
        "open_session",
        "MonitorSession",
        "ShardedMonitor",
        "ShardPlan",
        "ShardRouter",
        "GlobalTopK",
        "ShardSpec",
        "DurabilitySpec",
        "ObsSpec",
        "Observability",
    }
    assert expected <= set(repro.__all__)


def test_facade_schemes_cover_all_monitor_classes():
    from repro.api import SCHEMES
    from repro.core import BasicCTUP, NaiveCTUP, OptCTUP
    from repro.core.incremental import IncrementalNaiveCTUP

    assert set(SCHEMES.values()) == {
        NaiveCTUP,
        BasicCTUP,
        OptCTUP,
        IncrementalNaiveCTUP,
    }


def test_monitor_classes_share_contract():
    from repro.core import BasicCTUP, CTUPMonitor, NaiveCTUP, OptCTUP
    from repro.core.incremental import IncrementalNaiveCTUP

    for cls in (NaiveCTUP, BasicCTUP, OptCTUP, IncrementalNaiveCTUP):
        assert issubclass(cls, CTUPMonitor)
        assert cls.name != CTUPMonitor.name


def test_version_present():
    import repro

    major, *_ = repro.__version__.split(".")
    assert int(major) >= 1
