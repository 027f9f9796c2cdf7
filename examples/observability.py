"""Observability: metrics, phase tracing, and a live /metrics scrape.

Runs a sharded OptCTUP monitor with the full observability bundle
attached — registry metrics (bridged ledgers + session counters),
span tracing, and the stdlib ``/metrics`` endpoint — then:

* scrapes the live endpoint over HTTP and validates the Prometheus
  text with the strict parser;
* prints the headline metrics and the hottest phases from the
  histogram;
* exports the span ring buffer as a Chrome trace
  (``chrome://tracing`` / Perfetto can open it).

Run:  python examples/observability.py
"""

import tempfile
import urllib.request
from pathlib import Path

from repro import CTUPConfig, ObsSpec, ShardSpec, open_session
from repro.obs import parse_prometheus, write_chrome_trace
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)


def main() -> None:
    config = CTUPConfig(k=10, delta=4, protection_range=0.1, granularity=10)
    places = generate_places(4_000, seed=42)
    units = generate_units(50, config.protection_range, seed=7)
    stream = record_stream(RandomWalkMobility(units, step=0.02, seed=9), 800)

    session = open_session(
        "opt",
        places=places,
        units=units,
        config=config,
        shard=ShardSpec(shards=4),
        batch_size=16,
        obs=ObsSpec(metrics=True, trace=True, serve_port=0),
    )
    with session:
        session.start()
        session.run(stream)

        # -- a real scrape, like Prometheus would do it ------------------
        url = session.metrics_server.url
        body = urllib.request.urlopen(url).read().decode("utf-8")
        samples = parse_prometheus(body)  # strict: raises on bad format
        print(f"scraped {url}: {len(samples)} samples, all valid\n")

        print("headline metrics:")
        for name in (
            "ctup_session_updates_total",
            "ctup_session_topk_changes_total",
            "ctup_session_sk",
        ):
            print(f"  {name:36s} {samples[(name, ())]:g}")
        merged = [
            (labels, value)
            for (name, labels), value in samples.items()
            if name == "ctup_monitor_counters"
        ]
        print(f"  ctup_monitor_counters{'':15s} {len(merged)} bridged fields")

        # -- where the time went, from the phase histogram ---------------
        registry = session.observability.registry
        phase_hist = registry.get("ctup_phase_seconds")
        print("\ntime per phase (from ctup_phase_seconds):")
        for labelvalues, child in phase_hist.children():
            scheme, phase = labelvalues
            if child.count:
                mean_us = child.total / child.count * 1e6
                print(
                    f"  {scheme:8s} {phase:15s} {child.count:5d} spans, "
                    f"mean {mean_us:8.1f} us"
                )

        # -- export the trace for chrome://tracing -----------------------
        tracer = session.observability.tracer
        out = Path(tempfile.gettempdir()) / "ctup-trace.json"
        written = write_chrome_trace(tracer.spans(), out)
        print(
            f"\nwrote {written} spans to {out} "
            f"({tracer.emitted} emitted over the run); "
            "open it in chrome://tracing or Perfetto"
        )

    print("\ncurrent top unsafe places:")
    for rank, record in enumerate(session.monitor.top_k()[:5], start=1):
        print(
            f"  {rank}. place #{record.place_id:<6d} "
            f"safety {record.safety:+.0f}"
        )


if __name__ == "__main__":
    main()
