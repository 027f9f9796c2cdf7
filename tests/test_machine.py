"""One stateful model test for every scheme, burst mode and shard count.

:class:`tests.machine.SessionModel` runs as a hypothesis state machine
for every registered scheme × batch {0, 8} × shards {0, 4}. A failure
prints the shrunk rule sequence as a program (``state =
SessionModel_opt_b8_s4()``, then one call per step); the example
database under ``.hypothesis/`` replays it on the next run, and the
printed steps replay by hand through the machine's methods.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.api import SCHEMES
from tests.machine import SessionModel


@pytest.mark.parametrize("shards", [0, 4], ids=["s0", "s4"])
@pytest.mark.parametrize("batch", [0, 8], ids=["b0", "b8"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_session_model(scheme: str, batch: int, shards: int) -> None:
    run_state_machine_as_test(
        SessionModel.of(scheme, batch, shards),
        settings=settings(
            max_examples=4,
            stateful_step_count=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
