"""Rule modules; importing this package populates the registry."""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    catalog,
    counters,
    determinism,
    durability,
    hygiene,
    locks,
)
from repro.lint import typing_gate  # noqa: F401  (registers RPLT01)
