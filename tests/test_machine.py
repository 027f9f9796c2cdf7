"""One stateful model test for every scheme, burst mode, shard count and
query.

:class:`tests.machine.SessionModel` runs as a hypothesis state machine
for every registered scheme × batch {0, 8} × shards {0, 4}. Each run
first draws its query over the paper's Table III ranges (``k`` from 0
to past the catalog size, Δ, R, granularity down to one cell) with DOO
on or off, then a rule sequence: uniform jumps, short drifts,
stationary reports, bad input, flushes, checkpoints, control events
(places added on top of others, grid retunes down to one cell), crashes
and damaged journals. Half of the combinations run with cells of about
two pages (``page_capacity=4``): single unsharded mode with a buffer
pool of six pages as well, bursts over four shards without one. A
failure prints the shrunk rule sequence as a program
(``state = SessionModel_opt_b8_s4_p4_f0()``, ``state.draw_world(...)``,
then one call per step); the example database under ``.hypothesis/``
replays it on the next run, and the printed steps replay by hand
through the machine's methods.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.api import SCHEMES
from tests.machine import CONFIG, SessionModel

PAGED = CONFIG.replace(page_capacity=4)


@pytest.mark.parametrize(
    ("batch", "shards", "config"),
    [
        (0, 0, PAGED.replace(buffer_pages=6)),
        (8, 0, CONFIG),
        (0, 4, CONFIG),
        (8, 4, PAGED),
    ],
    ids=["b0-s0", "b8-s0", "b0-s4", "b8-s4"],
)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_session_model(scheme: str, batch: int, shards: int, config) -> None:
    run_state_machine_as_test(
        SessionModel.of(scheme, batch, shards, config),
        settings=settings(
            max_examples=6,
            stateful_step_count=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
