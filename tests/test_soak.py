"""End-to-end soak: every server feature on one long realistic stream.

One road-network workload drives, simultaneously:

* all three core monitors (cross-validated against each other and the
  oracle at checkpoints),
* a batched OptCTUP,
* a change tracker,

with the invariant auditor run at intervals on the grid schemes. If any
interaction between the features breaks an invariant or a result, this
is where it surfaces.
"""

import pytest

from repro.bench import build_workload
from repro.core import (
    BasicCTUP,
    BatchProcessor,
    ChangeTracker,
    CTUPConfig,
    NaiveCTUP,
    OptCTUP,
    audit_monitor,
)
from repro.validate import Oracle

CHECK_EVERY = 60


@pytest.mark.parametrize("seed", [0, 7])
def test_full_system_soak(seed):
    workload = build_workload(
        n_units=40, n_places=2_000, stream_length=360, seed=seed
    )
    config = CTUPConfig(k=8, delta=4, protection_range=0.1, granularity=8)
    oracle = Oracle(workload.places, workload.units)

    naive = NaiveCTUP(config, workload.places, workload.units)
    basic = BasicCTUP(config, workload.places, workload.units)
    opt = OptCTUP(config, workload.places, workload.units)
    batched = BatchProcessor(
        OptCTUP(config, workload.places, workload.units)
    )
    tracker = ChangeTracker(
        OptCTUP(config, workload.places, workload.units)
    )

    for monitor in (naive, basic, opt):
        monitor.initialize()
    batched.monitor.initialize()
    tracker.initialize()

    pending = []
    for i, update in enumerate(workload.stream):
        oracle.apply(update)
        naive.process(update)
        basic.process(update)
        opt.process(update)
        tracker.process(update)
        pending.append(update)
        if len(pending) == 12:
            batched.process_batch(pending)
            pending = []

        if i % CHECK_EVERY == CHECK_EVERY - 1:
            # results agree with ground truth...
            for monitor in (naive, basic, opt, tracker.monitor):
                verdict = oracle.validate(monitor.top_k(), config.k)
                assert verdict.ok, (i, monitor.name, verdict.problems[:3])
            # ...and the internal invariants hold.
            for monitor in (basic, opt, tracker.monitor):
                problems = audit_monitor(monitor)
                assert not problems, (i, monitor.name, problems[:3])

    if pending:
        batched.process_batch(pending)
    verdict = oracle.validate(batched.monitor.top_k(), config.k)
    assert verdict.ok, ("batched", verdict.problems[:3])

    # every scheme agrees on SK at the end.
    sks = {
        monitor.sk()
        for monitor in (naive, basic, opt, tracker.monitor, batched.monitor)
    }
    assert len(sks) == 1, sks
