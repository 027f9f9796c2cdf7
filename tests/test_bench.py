"""The bench harness: workload assembly, runs, reporting, sweeps."""

import pytest

from repro.bench import (
    MONITOR_FACTORIES,
    build_workload,
    format_table,
    run_monitor,
)
from repro.core import CTUPConfig


@pytest.fixture(scope="module")
def tiny_workload():
    return build_workload(
        n_units=20, n_places=400, stream_length=60, seed=1
    )


@pytest.fixture
def tiny_config():
    return CTUPConfig(k=4, delta=2, protection_range=0.1, granularity=6)


class TestBuildWorkload:
    def test_sizes(self, tiny_workload):
        assert len(tiny_workload.places) == 400
        assert len(tiny_workload.units) == 20
        assert len(tiny_workload.stream) == 60

    def test_deterministic(self):
        a = build_workload(n_units=5, n_places=50, stream_length=20, seed=3)
        b = build_workload(n_units=5, n_places=50, stream_length=20, seed=3)
        assert list(a.stream) == list(b.stream)
        assert a.places == b.places

    def test_network_families(self):
        for network in ("grid", "radial", "random"):
            wl = build_workload(
                n_units=5, n_places=50, stream_length=5, seed=1, network=network
            )
            assert len(wl.stream) == 5

    def test_unknown_network(self):
        with pytest.raises(ValueError):
            build_workload(network="hexagonal")

    def test_prefix(self, tiny_workload):
        assert len(tiny_workload.prefix(10).stream) == 10


class TestRunMonitor:
    @pytest.mark.parametrize("algorithm", sorted(MONITOR_FACTORIES))
    def test_runs_and_validates(self, algorithm, tiny_workload, tiny_config):
        result = run_monitor(algorithm, tiny_config, tiny_workload)
        assert result.validated
        assert result.n_updates == 60
        assert result.wall_seconds > 0
        assert result.init.places_loaded > 0

    def test_unknown_algorithm(self, tiny_workload, tiny_config):
        with pytest.raises(ValueError):
            run_monitor("magic", tiny_config, tiny_workload)

    def test_updates_cap(self, tiny_workload, tiny_config):
        result = run_monitor("opt", tiny_config, tiny_workload, updates=10)
        assert result.n_updates == 10

    def test_update_counters_exclude_init(self, tiny_workload, tiny_config):
        result = run_monitor("opt", tiny_config, tiny_workload)
        assert (
            result.update_counters.places_loaded
            <= result.counters.places_loaded
        )
        assert result.update_counters.updates_processed == 60

    def test_derived_metrics(self, tiny_workload, tiny_config):
        result = run_monitor("opt", tiny_config, tiny_workload)
        assert result.avg_update_ms == pytest.approx(
            result.wall_seconds / 60 * 1e3
        )
        assert result.cells_per_update >= 0

    def test_custom_factory(self, tiny_workload, tiny_config):
        from repro.core import OptCTUP

        result = run_monitor(
            "opt-nodoo",
            tiny_config.replace(use_doo=False),
            tiny_workload,
            factory=OptCTUP,
        )
        assert result.algorithm == "opt-nodoo"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.0], ["long-name", 123456.0]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_values(self):
        from repro.bench.reporting import format_value

        assert format_value(True) == "yes"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "-"
        assert format_value(0.1234) == "0.123"
        assert format_value(1234567.0) == "1,234,567"
        assert format_value(12.345) == "12.3"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
