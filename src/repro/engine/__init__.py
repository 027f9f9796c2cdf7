"""The composable monitoring engine.

The schemes in :mod:`repro.core` expose a two-phase update pipeline
(``apply_update`` / ``refresh``); this package layers the production
machinery around that exchangeable core:

* :class:`~repro.engine.session.MonitorSession` — one facade wiring a
  monitor, optional burst batching, result-change tracking, periodic
  invariant audits and instrumentation hooks; it refuses malformed
  updates with :class:`~repro.engine.session.UpdateRejected` before
  journaling them;
* :class:`~repro.engine.hooks.MonitorHooks` — the hook protocol
  (``on_update_start/end``, ``on_batch_flush``, ``on_topk_change``,
  ``on_refresh``) for metrics, alerting and timeline collection.

Future scaling work (sharding, async ingest, replication) lands here as
additional layers rather than as wrappers around one concrete scheme.
"""

from repro.engine.hooks import HookList, MonitorHooks
from repro.engine.session import MonitorSession, UpdateRejected

__all__ = [
    "HookList",
    "MonitorHooks",
    "MonitorSession",
    "UpdateRejected",
]
