"""The composable monitoring engine.

The schemes in :mod:`repro.core` expose a two-phase update pipeline
(``apply_update`` / ``refresh``); this package layers the production
machinery around that exchangeable core:

* :class:`~repro.engine.session.MonitorSession` — one facade wiring a
  monitor, optional burst batching, result-change tracking, periodic
  invariant audits, durability and observability; it refuses malformed
  updates with :class:`~repro.engine.session.UpdateRejected` before
  journaling them. Result changes reach callers through one path,
  ``session.tracker.subscribe(callback)``.
"""

from repro.engine.session import MonitorSession, UpdateRejected

__all__ = [
    "MonitorSession",
    "UpdateRejected",
]
