"""Epoch-based reconfiguration (the control plane).

The data plane — location updates flowing through a monitor — assumes a
fixed world: a fixed place catalog, a fixed ``k``, a fixed grid, a fixed
shard plan. This package is the *only* sanctioned way to change any of
those while a monitor is live. Each change is a **control event**
applied at a batch boundary; applying one bumps the monitor's ``epoch``
counter, and every snapshot and journal record names the epoch it
belongs to, so recovery can replay a mixed stream of updates and
reconfigurations in order.

Layout:

``events``
    The event vocabulary (:class:`PlaceAdded` … :class:`ShardPlanChanged`),
    the JSON codec used by the journal, and :class:`EpochReport` — the
    receipt every application returns.
``apply``
    :func:`check_control` — refuses an event that cannot apply to the
    current world (the session calls it before journaling).
    :func:`apply_control` — patches the world (store / config / grid),
    asks the scheme to patch its derived state incrementally, falls back
    to a documented rebuild-in-place when the scheme declines (and for
    every grid retune), and bumps the epoch. Ledger-neutral: a control
    application never changes the monitor's work counters. A durable
    session applies and journals events only through
    :meth:`repro.engine.MonitorSession.apply_control`.
``replay``
    :func:`fold_places` — folds journaled place events into a place
    list so recovery can rebuild a monitor whose catalog was mutated
    before the snapshot being restored.
"""

from repro.control.apply import apply_control, check_control
from repro.control.events import (
    ControlEvent,
    EpochReport,
    GridRetuned,
    KChanged,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    ShardPlanChanged,
    decode_event,
    encode_event,
    event_kind,
)
from repro.control.replay import fold_places

__all__ = [
    "ControlEvent",
    "EpochReport",
    "GridRetuned",
    "KChanged",
    "PlaceAdded",
    "PlaceRemoved",
    "PlaceReweighted",
    "ShardPlanChanged",
    "apply_control",
    "check_control",
    "decode_event",
    "encode_event",
    "event_kind",
    "fold_places",
]
