"""The observability layer: registry, tracing, exposition, wiring.

The contract that matters most is **reconciliation**: after a run, the
bridged registry gauges equal the monitor's own ledgers field for
field, for every scheme, sharded or not. The span taxonomy is the
other: one span per phase, so a burst's maintain phase is traced once,
as ``maintain_burst``.
"""

from __future__ import annotations

import json
import math
import urllib.request
from collections import Counter
from dataclasses import fields

import pytest

from repro.api import SCHEMES, DurabilitySpec, ShardSpec, open_session
from repro.control import KChanged, PlaceRemoved
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    NullRegistry,
    Observability,
    ObsSpec,
    Tracer,
    coerce_observability,
    json_dump,
    parse_prometheus,
    render_prometheus,
    write_chrome_trace,
)


# -- registry primitives -------------------------------------------------


class TestRegistry:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        total = registry.counter("ctup_things_total", "Things.")
        total.inc()
        total.inc(2.5)
        assert registry.value("ctup_things_total") == 3.5
        with pytest.raises(ValueError, match="only go up"):
            total.labels().inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("ctup_level")
        gauge.set(10.0)
        gauge.inc(5)
        gauge.labels().dec(2)
        assert registry.value("ctup_level") == 13.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("ctup_lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        child = hist.labels()
        assert child.cumulative() == [1, 3]  # le=0.1 -> 1, le=1.0 -> 3
        assert child.count == 4  # +Inf picks up the overflow
        assert child.total == pytest.approx(6.05)

    def test_labels_key_children(self):
        registry = MetricsRegistry()
        family = registry.counter("ctup_ops_total", labelnames=("op",))
        family.labels(op="append").inc(3)
        family.labels(op="replay").inc()
        assert registry.value("ctup_ops_total", op="append") == 3.0
        assert registry.value("ctup_ops_total", op="replay") == 1.0
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(kind="append")

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("ctup_x_total")
        assert registry.counter("ctup_x_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("ctup_x_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("2bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ctup_ok", labelnames=("bad-label",))

    def test_null_registry_swallows_everything(self):
        registry = NullRegistry()
        registry.counter("anything").labels(x=1).inc()
        registry.histogram("h").observe(1.0)
        assert registry.families() == []
        assert not registry.enabled


# -- tracing -------------------------------------------------------------


class TestTracer:
    def test_span_times_and_buffers(self):
        tracer = Tracer(capacity=8)
        with tracer.span("work", cat="test", items=3):
            pass
        spans = tracer.spans()
        assert len(spans) == 1
        assert spans[0].name == "work"
        assert spans[0].cat == "test"
        assert spans[0].args["items"] == 3
        assert spans[0].dur_us >= 0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for n in range(5):
            tracer.record(f"s{n}", "test", 0.0, 0.001)
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.emitted == 5

    def test_chrome_trace_schema(self, tmp_path):
        tracer = Tracer()
        tracer.record("maintain", "monitor", 1.0, 0.002, scheme="opt")
        with tracer.span("session.flush", cat="session", updates=7):
            pass
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer.spans(), path)
        assert written == 2
        events = json.loads(path.read_text())
        assert isinstance(events, list) and len(events) == 2
        for event in events:
            assert event["ph"] == "X"  # complete events only
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["pid"] == 1 and "tid" in event
            assert event["name"] and event["cat"]
        assert events[0]["args"] == {"scheme": "opt"}


# -- exposition ----------------------------------------------------------


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("ctup_ops_total", "Ops.", labelnames=("op",)).labels(
            op='we"ird\n'
        ).inc(2)
        registry.gauge("ctup_sk", "SK.").set(math.inf)
        registry.histogram("ctup_lat", "Latency.", buckets=(0.1,)).observe(0.05)
        return registry

    def test_render_parse_round_trip(self):
        registry = self._populated()
        text = render_prometheus(registry)
        samples = parse_prometheus(text)
        assert samples[("ctup_ops_total", (("op", 'we"ird\n'),))] == 2.0
        assert samples[("ctup_sk", ())] == math.inf
        assert samples[("ctup_lat_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("ctup_lat_count", ())] == 1.0

    def test_parser_is_strict(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus("undeclared_metric 1\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE x sideways\nx 1\n")
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("# TYPE x counter\nx one two three\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus("# TYPE x counter\nx 1\nx 2\n")

    def test_json_dump_shape(self):
        doc = json_dump(self._populated())
        assert set(doc["metrics"]) == {"ctup_ops_total", "ctup_sk", "ctup_lat"}
        hist = doc["metrics"]["ctup_lat"]["samples"][0]
        assert hist["count"] == 1 and "buckets" in hist

    def test_server_serves_both_formats(self):
        registry = self._populated()
        synced = []
        with MetricsServer(registry, port=0, sync=lambda: synced.append(1)) as server:
            text = urllib.request.urlopen(server.url).read().decode()
            assert parse_prometheus(text)
            doc = json.loads(
                urllib.request.urlopen(server.url + ".json").read()
            )
            assert "ctup_sk" in doc["metrics"]
        assert synced  # the sync callback ran before each scrape


# -- spec coercion -------------------------------------------------------


class TestObsSpec:
    def test_disabled_spec_coerces_to_none(self):
        assert coerce_observability(None) is None
        assert coerce_observability(ObsSpec(metrics=False)) is None

    def test_enabled_spec_builds_a_bundle(self):
        obs = coerce_observability(ObsSpec(metrics=True, trace=True))
        assert isinstance(obs, Observability)
        assert obs.registry.enabled
        assert isinstance(obs.tracer, Tracer)
        assert coerce_observability(obs) is obs

    def test_serve_port_implies_metrics(self):
        obs = coerce_observability(ObsSpec(metrics=False, serve_port=0))
        assert obs is not None and obs.registry.enabled

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError, match="obs="):
            coerce_observability({"metrics": True})


# -- reconciliation: registry == ledgers, every scheme ------------------


class TestReconciliation:
    @pytest.mark.parametrize("shards", [0, 4])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_bridged_gauges_equal_ledgers(
        self, scheme, shards, small_config, small_places, small_units, small_stream
    ):
        session = open_session(
            scheme,
            places=small_places,
            units=small_units,
            config=small_config,
            shard=ShardSpec(shards=shards),
            obs=ObsSpec(metrics=True),
        )
        session.start()
        session.run(small_stream)
        session.sync_metrics()
        registry = session.observability.registry
        monitor = session.monitor
        if shards:
            counters = monitor.merged_counters()
            io = monitor.merged_io()
            unit_stats = monitor.merged_unit_stats()
        else:
            counters = monitor.counters
            io = monitor.store.io_stats
            unit_stats = monitor.units.stats
        for name, ledger in (
            ("ctup_monitor_counters", counters),
            ("ctup_io_stats", io),
            ("ctup_unit_kernel_stats", unit_stats),
        ):
            for f in fields(ledger):
                assert registry.value(
                    name, scheme=monitor.name, field=f.name
                ) == pytest.approx(float(getattr(ledger, f.name))), (
                    f"{name}.{f.name} out of sync"
                )
        if shards:
            assert registry.value(
                "ctup_shard_deliveries", kind="full"
            ) == float(monitor.full_deliveries)
            assert registry.value(
                "ctup_shard_deliveries", kind="sync"
            ) == float(monitor.sync_deliveries)
            for f in fields(monitor.merger.stats):
                assert registry.value(
                    "ctup_merge_stats", scheme=monitor.name, field=f.name
                ) == pytest.approx(float(getattr(monitor.merger.stats, f.name)))
        # the session's stream metrics agree with the session too.
        assert registry.value("ctup_session_updates_total") == float(
            len(small_stream)
        )
        assert registry.value("ctup_session_sk") == pytest.approx(
            monitor.sk()
        )

    @pytest.mark.parametrize("batch_size", [0, 8])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_stream_counts_match_the_session(
        self,
        scheme,
        batch_size,
        small_config,
        small_places,
        small_units,
        small_stream,
    ):
        """Bursts flushed are the burst-size histogram's count, and the
        access phases run are the ``access`` count of
        ``ctup_phase_seconds``, control events mid-run included. The
        burst a control event flushes is counted off its receipt."""
        session = open_session(
            scheme,
            places=small_places,
            units=small_units,
            config=small_config,
            batch_size=batch_size,
            obs=ObsSpec(metrics=True),
        )
        session.start()
        events = {
            50: PlaceRemoved(small_places[3].place_id),
            100: KChanged(small_config.k + 2),
        }
        refreshes = 0
        for i, update in enumerate(small_stream):
            if i in events:
                refreshes += session.apply_control(events[i]).flushed is not None
            refreshes += session.feed(update) is not None
        refreshes += session.flush() is not None
        bursts = session.batcher.batches_processed if batch_size else 0
        assert refreshes == (bursts if batch_size else len(small_stream))
        samples = parse_prometheus(session.metrics_text())
        assert samples[("ctup_session_batch_size_count", ())] == bursts
        access = (("scheme", session.monitor.name), ("phase", "access"))
        assert samples[("ctup_phase_seconds_count", access)] == refreshes

    def test_prometheus_text_parses_after_a_run(
        self, small_config, small_places, small_units, small_stream
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            obs=ObsSpec(metrics=True),
        )
        session.start()
        session.run(small_stream)
        samples = parse_prometheus(session.metrics_text())
        assert samples[("ctup_session_updates_total", ())] == float(
            len(small_stream)
        )

    def test_metrics_text_requires_observability(
        self, small_config, small_places, small_units
    ):
        session = open_session(
            "opt", places=small_places, units=small_units, config=small_config
        )
        with pytest.raises(RuntimeError, match="no observability"):
            session.metrics_text()


# -- tracing through a real session -------------------------------------


class TestSessionTracing:
    def test_span_taxonomy_covers_the_pipeline(
        self, tmp_path, small_config, small_places, small_units, small_stream
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            shard=ShardSpec(shards=3),
            batch_size=8,
            durability=DurabilitySpec(tmp_path, every=2),
            obs=ObsSpec(metrics=False, trace=True),
        )
        with session:
            session.start()
            session.run(small_stream)
        tracer = session.observability.tracer
        names = {span.name for span in tracer.spans()}
        cats = {span.cat for span in tracer.spans()}
        assert "session.flush" in names
        assert "maintain_burst" in names
        assert not [name for name in names if name.startswith("kernel.")]
        assert "shard.drain" in names
        assert "topk.merge" in names
        assert "journal.append" in names
        assert "checkpoint.write" in names
        assert {"session", "shard", "state"} <= cats
        path = tmp_path / "out.json"
        write_chrome_trace(tracer.spans(), path)
        assert json.loads(path.read_text())  # valid, non-empty


# -- the CLI flags -------------------------------------------------------


class TestCliObsFlags:
    def test_simulate_metrics_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "simulate",
                    "suburbia",
                    "--updates",
                    "60",
                    "--places",
                    "400",
                    "--units",
                    "10",
                    "--metrics",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        start = out.index("# HELP")
        samples = parse_prometheus(out[start:])
        assert samples[("ctup_session_updates_total", ())] == 60.0
        events = json.loads(trace_path.read_text())
        assert events and all(event["ph"] == "X" for event in events)


class TestJournalMetrics:
    @pytest.mark.parametrize("batch_size", [0, 8])
    def test_records_counted_per_op(
        self,
        tmp_path,
        batch_size,
        small_config,
        small_places,
        small_units,
        small_stream,
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            batch_size=batch_size,
            durability=DurabilitySpec(tmp_path, every=4),
            obs=ObsSpec(metrics=True),
        )
        with session:
            session.start()
            session.run(small_stream.prefix(50))
            ops = Counter(record.op for record in session.journal.records())
            registry = session.observability.registry
            counted = {
                op: registry.value("ctup_journal_records_total", op=op)
                for op in "ubfc"
            }
        assert sum(ops.values()) == session.journal.last_seq
        assert counted == {op: float(ops[op]) for op in "ubfc"}
        assert registry.value("ctup_session_updates_total") == 50.0
        if batch_size == 0:
            assert ops["u"] == 50
        else:
            assert ops["b"] == 50 and ops["f"] > 0

    @pytest.mark.parametrize("batch_size", [0, 8])
    def test_every_append_is_one_span_when_tracing(
        self,
        tmp_path,
        batch_size,
        small_config,
        small_places,
        small_units,
        small_stream,
    ):
        session = open_session(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            batch_size=batch_size,
            durability=DurabilitySpec(tmp_path, every=4),
            obs=ObsSpec(metrics=False, trace=True, trace_capacity=100_000),
        )
        with session:
            session.start()
            session.run(small_stream.prefix(50))
            ops = [record.op for record in session.journal.records()]
            spans = [
                span
                for span in session.observability.tracer.spans()
                if span.name == "journal.append"
            ]
        assert [span.args["op"] for span in spans] == ops
        assert all(span.cat == "state" for span in spans)
