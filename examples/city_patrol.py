"""City patrol dispatch: react to top-k changes as they stream in.

A dispatcher does not poll the monitor — it wants a callback the moment
a place becomes one of the k least safe (send a car!) or stops being
one (stand down). This example wires a :class:`ChangeTracker` over
BasicCTUP and OptCTUP simultaneously, logs every alert, and shows that
both schemes fire the same SK trajectory while doing very different
amounts of work.

Run:  python examples/city_patrol.py
"""

import time

from repro import BasicCTUP, ChangeTracker, CTUPConfig, OptCTUP
from repro.roadnet import NetworkMobility, radial_network
from repro.workloads import generate_places, record_stream


def main() -> None:
    config = CTUPConfig(k=8, delta=4, protection_range=0.1, granularity=10)
    places = generate_places(8_000, seed=5)
    network = radial_network(rings=5, spokes=12, seed=2)
    mobility = NetworkMobility(
        network, count=80, speed=0.004, report_distance=0.004, seed=9
    )
    units = mobility.initial_units(config.protection_range)
    stream = record_stream(mobility, 2_000)

    place_by_id = {p.place_id: p for p in places}
    alerts = 0

    def dispatch(change) -> None:
        nonlocal alerts
        for record in change.entered:
            place = place_by_id[record.place_id]
            alerts += 1
            if alerts <= 12:  # keep the demo readable
                print(
                    f"t={change.timestamp:7.1f}  ALERT  {place.kind:12s} "
                    f"#{record.place_id} safety {record.safety:+.0f} "
                    f"(SK {change.sk_after:+.0f})"
                )
        for record in change.left:
            if alerts <= 12:
                print(
                    f"t={change.timestamp:7.1f}  clear  place "
                    f"#{record.place_id}"
                )

    opt = ChangeTracker(OptCTUP(config, places, units))
    basic = ChangeTracker(BasicCTUP(config, places, units))
    opt.subscribe(dispatch)
    opt.initialize()
    basic.initialize()

    seconds = {}
    for name, tracker in (("opt", opt), ("basic", basic)):
        start = time.perf_counter()
        for update in stream:
            tracker.process(update)
        seconds[name] = time.perf_counter() - start

    print(f"\n... {alerts} alerts over {len(stream)} location updates")
    print(f"result changes seen: opt={opt.changes_seen} basic={basic.changes_seen}")
    assert opt.monitor.sk() == basic.monitor.sk()
    for name, tracker in (("opt", opt), ("basic", basic)):
        counters = tracker.monitor.counters
        print(
            f"{name:6s} work: {counters.cells_accessed:5d} cell accesses, "
            f"peak {counters.maintained_peak:5d} maintained places, "
            f"{seconds[name]:6.2f} s processing"
        )


if __name__ == "__main__":
    main()
