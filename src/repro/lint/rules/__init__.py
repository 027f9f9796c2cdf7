"""Rule modules; importing this package populates the registry."""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    catalog,
    contracts,
    counters,
    determinism,
    durability,
    hygiene,
    locks,
    obs,
    phases,
    state,
)
from repro.lint import typing_gate  # noqa: F401  (registers RPLT01)
