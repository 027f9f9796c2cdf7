"""A small "monitoring server" built from the library's server features.

Combines four production concerns on one shared monitor:

* **many consumers** — dispatch (top-5), dashboard (top-20) and an
  analyst (top-60) share one monitor via :class:`MultiQueryCTUP`;
* **bursty ingest** — updates arrive in batches of 32 and are absorbed
  with one access pass per burst by a :class:`MonitorSession`;
* **instrumentation** — a hook counts bursts, cell accesses and result
  changes without touching the ingest loop;
* **restart without re-initialization** — mid-run the server
  checkpoints, "crashes", restores from the checkpoint, and continues;
  the answers after the restore are identical.

Run:  python examples/multi_query_server.py
"""

import json

from repro import CTUPConfig
from repro.core import MultiQueryCTUP
from repro.engine import MonitorHooks, MonitorSession
from repro.roadnet import NetworkMobility, grid_network
from repro.state import restore_monitor, snapshot_monitor
from repro.workloads import generate_places, record_stream

BATCH = 32


class OpsCounters(MonitorHooks):
    """Session instrumentation: bursts, accesses, result changes."""

    def __init__(self) -> None:
        self.bursts = 0
        self.accesses = 0
        self.result_changes = 0

    def on_batch_flush(self, updates, report):
        self.bursts += 1

    def on_refresh(self, accessed):
        self.accesses += accessed

    def on_topk_change(self, change):
        self.result_changes += 1


def main() -> None:
    config = CTUPConfig(k=5, delta=4, protection_range=0.1, granularity=10)
    places = generate_places(8_000, seed=11)
    mobility = NetworkMobility(
        grid_network(seed=2), count=90, speed=0.004, report_distance=0.004,
        seed=13,
    )
    units = mobility.initial_units(config.protection_range)
    stream = record_stream(mobility, 2_000)

    # -- many consumers over one monitor -------------------------------
    server = MultiQueryCTUP(config, places, units)
    server.register("dispatch", 5)
    server.register("dashboard", 20)
    server.register("analyst", 60)
    server.initialize()
    print(
        f"serving {len(server.queries)} queries from one monitor "
        f"(shared K = {server.shared_k})"
    )

    # -- bursty ingest through the engine session -----------------------
    ops = OpsCounters()
    session = MonitorSession(server.monitor, batch_size=BATCH, hooks=[ops])
    session.start()  # adopts the already-initialized shared monitor
    half = len(stream) // 2
    session.run(stream.prefix(half))
    print(
        f"first {half} updates in {ops.bursts} bursts of {BATCH} "
        f"({ops.accesses} cell accesses, {ops.result_changes} result "
        f"changes); dispatch sees "
        f"{[r.place_id for r in server.top_k('dispatch')]}"
    )

    # -- checkpoint, crash, restore ---------------------------------------
    checkpoint = json.dumps(snapshot_monitor(server.monitor))
    print(f"checkpoint taken ({len(checkpoint):,} bytes of JSON)")
    restored = restore_monitor(
        json.loads(checkpoint), places=places, units=units
    )
    assert restored.topk_ids() == server.monitor.topk_ids()
    print("restored monitor agrees with the live one — no re-initialization")

    # -- both servers consume the rest of the stream ------------------------
    rest = stream.updates[half:]
    session.run(rest)
    MonitorSession(restored, batch_size=BATCH).run(rest)
    assert restored.topk_ids() == server.monitor.topk_ids()
    assert restored.sk() == server.monitor.sk()

    print(
        f"\nafter {len(stream)} updates (SK {server.monitor.sk():+.0f}):"
    )
    for query_id in ("dispatch", "dashboard", "analyst"):
        records = server.top_k(query_id)
        print(
            f"  {query_id:9s} k={len(records):2d}  worst "
            f"{records[0].safety:+.0f} .. boundary {records[-1].safety:+.0f}"
        )
    print(
        f"\nshared monitor work: "
        f"{server.monitor.counters.cells_accessed} cell accesses, "
        f"{server.monitor.counters.maintained_peak} maintained peak — "
        f"one monitor instead of three"
    )


if __name__ == "__main__":
    main()
