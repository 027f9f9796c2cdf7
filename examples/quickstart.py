"""Quickstart: monitor the top-k unsafe places of a small city.

Builds a city of 5 000 places protected by 60 patrol cars moving along
a road network, runs the OptCTUP monitor over a thousand location
updates, and prints the continuously maintained answer plus the
monitor's own cost counters.

Run:  python examples/quickstart.py
"""

import time

from repro import CTUPConfig, open_session
from repro.bench.reporting import format_table
from repro.roadnet import NetworkMobility, grid_network
from repro.workloads import generate_places, record_stream


def main() -> None:
    config = CTUPConfig(k=10, delta=4, protection_range=0.1, granularity=10)

    # the city: places with skewed protection requirements, and a fleet
    # patrolling a perturbed Manhattan road network.
    places = generate_places(5_000, seed=42)
    network = grid_network(rows=12, cols=12, seed=7)
    mobility = NetworkMobility(
        network, count=60, speed=0.005, report_distance=0.005, seed=3
    )
    units = mobility.initial_units(config.protection_range)

    session = open_session("opt", places=places, units=units, config=config)
    report = session.start()
    monitor = session.monitor
    print(
        f"initialized in {report.seconds * 1e3:.1f} ms "
        f"(SK = {report.sk:+.0f}, {report.maintained_places} places maintained "
        f"of {len(places)})\n"
    )

    stream = record_stream(mobility, 1_000)
    start = time.perf_counter()
    session.run(stream)
    seconds = time.perf_counter() - start

    print(
        format_table(
            ["rank", "place", "kind", "required", "safety"],
            [
                [
                    rank + 1,
                    record.place_id,
                    record.place.kind,
                    record.place.required_protection,
                    record.safety,
                ]
                for rank, record in enumerate(monitor.top_k())
            ],
            title=f"top-{config.k} unsafe places after {len(stream)} updates",
        )
    )

    counters = monitor.counters
    print(
        f"\nper update: "
        f"{seconds / len(stream) * 1e3:.3f} ms, "
        f"{counters.cells_accessed / len(stream):.2f} cell accesses, "
        f"{len(monitor.maintained)} places maintained "
        f"({len(monitor.maintained) / len(places):.1%} of the city)"
    )


if __name__ == "__main__":
    main()
