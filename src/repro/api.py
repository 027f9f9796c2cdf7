"""The one front door to the reproduction.

Examples, benchmarks and deployments used to hand-wire scheme
constructors, :class:`~repro.engine.session.MonitorSession`,
``run_stream`` loops and ``ChangeTracker`` instances, each slightly
differently. This facade gives them a single stable surface:

>>> from repro.api import ObsSpec, ShardSpec, open_session
>>> session = open_session(
...     "opt",
...     places=places,
...     units=units,
...     config=CTUPConfig(k=10),
...     shard=ShardSpec(shards=4),
...     obs=ObsSpec(metrics=True),
... )
>>> session.start()
>>> for update in stream:
...     session.feed(update)
>>> session.flush()
>>> session.monitor.top_k()

Options group by concern into small spec dataclasses rather than flat
keyword sprawl: :class:`ShardSpec` (how the place set splits across
shard monitors), :class:`DurabilitySpec` (journal + checkpoint
directory, snapshot cadence, resume), and
:class:`~repro.obs.ObsSpec` (metrics, tracing, the ``/metrics``
endpoint).

:func:`make_monitor` builds any registered scheme — including the
sharded wrapper (``"sharded"``, or any scheme plus a ``shard=`` spec) —
and :func:`open_session` wraps the monitor in a configured session, the
one supported way to drive a stream (batching, change tracking, audits
and observability included).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.basic import BasicCTUP
from repro.core.config import CTUPConfig
from repro.core.incremental import IncrementalNaiveCTUP
from repro.core.monitor import CTUPMonitor
from repro.core.naive import NaiveCTUP
from repro.core.opt import OptCTUP
from repro.engine.session import MonitorSession
from repro.model import Place, Unit
from repro.obs.spec import Observability, ObsSpec, coerce_observability
from repro.shard.monitor import ShardedMonitor
from repro.shard.plan import ShardPlan
from repro.state.recovery import (
    CheckpointPolicy,
    CheckpointStore,
    RecoveryManager,
)


class _SchemeRegistry(dict):
    """Registered single-monitor schemes, by benchmark-table name.

    ====================  ==================================================
    ``"naive"``           recompute the result from storage per update
    ``"basic"``           BasicCTUP — dark cells with lower bounds (§III)
    ``"opt"``             OptCTUP — bounds + DecHash/DOO suppression (§IV)
    ``"incremental"``     incremental re-evaluation baseline
    ``"sharded"``         the shard-parallel wrapper
                          (:class:`~repro.shard.monitor.ShardedMonitor`) —
                          a first-class entry path resolved by
                          :func:`scheme_factory` and sized with
                          ``shard=ShardSpec(shards=...)``.
                          It deliberately does not live in the mapping
                          itself: iterating ``SCHEMES`` yields exactly the
                          single-monitor schemes the equivalence suites
                          parametrize over, and the wrapper composes with
                          *any* of them.
    ====================  ==================================================
    """


#: every registered single-monitor scheme, by its benchmark-table name
#: (see ``SCHEMES.__doc__`` for the ``"sharded"`` entry path).
SCHEMES: dict[str, Callable] = _SchemeRegistry(
    {
        NaiveCTUP.name: NaiveCTUP,
        BasicCTUP.name: BasicCTUP,
        OptCTUP.name: OptCTUP,
        IncrementalNaiveCTUP.name: IncrementalNaiveCTUP,
    }
)


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """How the place set splits across shard monitors.

    ``shards`` is 0 (unsharded, the default), a shard count, an explicit
    :class:`~repro.shard.plan.ShardPlan`, or a per-linear-cell shard-id
    sequence. ``strategy`` picks the cell→shard assignment (``striped``
    / ``interleaved`` / ``hashed`` / ``explicit``).
    """

    shards: int | Sequence[int] | ShardPlan = 0
    strategy: str = "striped"

    @property
    def sharded(self) -> bool:
        """Whether this spec asks for the sharded wrapper at all."""
        return not (isinstance(self.shards, int) and self.shards == 0)


@dataclass(frozen=True, slots=True)
class DurabilitySpec:
    """Journal + checkpoint directory attachment for a session.

    Every ingested update is journaled under ``checkpoint_dir`` and
    snapshots are written every ``every`` flush boundaries (plus one on
    ``close()``). ``resume=False`` starts fresh — the run owns the
    directory WAL-style and wipes stale state; ``resume=True`` recovers
    it instead (restore latest snapshot, replay the journal tail,
    return an already-started, bit-identical session).
    """

    checkpoint_dir: str | Path
    every: int = 0
    resume: bool = False


def scheme_factory(scheme: str) -> Callable:
    """Resolve a scheme name to its monitor class.

    A scheme is a :data:`SCHEMES` key or ``"sharded"``, which resolves
    to :class:`~repro.shard.monitor.ShardedMonitor`; size it by
    passing ``shard=ShardSpec(shards=...)`` to
    :func:`make_monitor` / :func:`open_session`.
    """
    if not isinstance(scheme, str):
        raise TypeError(
            f"scheme takes a registered name (got {type(scheme).__name__})"
        )
    if scheme == ShardedMonitor.name:
        return ShardedMonitor
    try:
        return SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}, "
            f"or {ShardedMonitor.name!r} (sized via shard=ShardSpec(shards=...))"
        ) from None


def _coerce_shard(
    shard: "ShardSpec | int | Sequence[int] | ShardPlan | None",
) -> ShardSpec:
    """Normalize ``shard=``: a spec, its bare ``shards`` value, or None."""
    if shard is None:
        return ShardSpec()
    if isinstance(shard, ShardSpec):
        return shard
    return ShardSpec(shards=shard)


def _coerce_durability(
    durability: "DurabilitySpec | str | Path | None",
) -> DurabilitySpec | None:
    """Normalize ``durability=``: a spec, a bare directory, or None."""
    if durability is None or isinstance(durability, DurabilitySpec):
        return durability
    if isinstance(durability, (str, Path)):
        return DurabilitySpec(checkpoint_dir=durability)
    raise TypeError(
        "open_session: durability= takes a DurabilitySpec or a checkpoint "
        f"directory path (got {type(durability).__name__})"
    )


def make_monitor(
    scheme: str = "opt",
    *,
    places: Sequence[Place],
    units: Iterable[Unit],
    config: CTUPConfig | None = None,
    shard: "ShardSpec | int | Sequence[int] | ShardPlan | None" = None,
) -> CTUPMonitor:
    """Build a monitor of any scheme, optionally sharded.

    ``shard=None`` (the default) returns the plain scheme monitor;
    otherwise pass a :class:`ShardSpec` (or, as shorthand, just its
    ``shards`` value — a count, an explicit
    :class:`~repro.shard.plan.ShardPlan`, or a per-cell shard-id
    sequence) to wrap the scheme in a
    :class:`~repro.shard.monitor.ShardedMonitor`. ``scheme="sharded"``
    builds the wrapper directly over its default per-shard scheme. The
    returned monitor is not yet initialized.
    """
    spec = _coerce_shard(shard)
    config = config if config is not None else CTUPConfig()
    factory = scheme_factory(scheme)
    if factory is ShardedMonitor:
        if not spec.sharded:
            return ShardedMonitor(config, places, units, strategy=spec.strategy)
        return ShardedMonitor(
            config, places, units, shards=spec.shards, strategy=spec.strategy
        )
    if not spec.sharded:
        return factory(config, places, units)
    return ShardedMonitor(
        config,
        places,
        units,
        shards=spec.shards,
        scheme=factory,
        strategy=spec.strategy,
    )


def open_session(
    scheme: str = "opt",
    *,
    places: Sequence[Place] | None = None,
    units: Iterable[Unit] | None = None,
    config: CTUPConfig | None = None,
    monitor: CTUPMonitor | None = None,
    shard: "ShardSpec | int | Sequence[int] | ShardPlan | None" = None,
    durability: "DurabilitySpec | str | Path | None" = None,
    obs: "ObsSpec | Observability | None" = None,
    batch_size: int = 0,
    audit_every: int = 0,
    track_changes: bool = True,
) -> MonitorSession:
    """A configured :class:`MonitorSession`, ready to ``start()``.

    Either pass ``places`` + ``units`` (plus ``scheme`` and an optional
    ``shard=`` :class:`ShardSpec`) to build the monitor here, or pass an
    existing ``monitor`` — e.g. one restored from a checkpoint — to
    adopt it. The session knobs (``batch_size``, ``audit_every`` and
    ``track_changes``) are forwarded unchanged; result changes reach
    callers through ``session.tracker.subscribe``.

    ``durability=`` attaches durable state per its
    :class:`DurabilitySpec` (a bare path means "journal here, no
    periodic snapshots"). A fresh (non-resuming) start wipes whatever
    the directory held — the run owns it WAL-style — and refuses an
    adopted ``monitor`` that is already initialized, whose moves so far
    no journal holds. With
    ``DurabilitySpec(..., resume=True)`` the directory is recovered
    instead: the latest snapshot is restored, the journal tail
    replayed, and the returned session is **already started** and
    bit-identical to the uninterrupted run. On resume, the snapshot's
    recorded scheme and config win over the arguments (they describe
    the run being continued); pass the same ``batch_size`` the original
    run used.

    ``obs=`` attaches observability per its
    :class:`~repro.obs.ObsSpec` (or an already-built
    :class:`~repro.obs.Observability` to share a registry across
    sessions): registry metrics bridge the monitor's ledgers, spans
    trace phases / flushes / shard drains / journal I/O, and a serve
    port runs a ``/metrics`` endpoint for the session's lifetime.
    """
    scheme_factory(scheme)  # refuse a non-name before any directory is touched
    shard_spec = _coerce_shard(shard)
    dura = _coerce_durability(durability)
    bundle = coerce_observability(obs)
    if dura is not None and dura.resume:
        if monitor is not None:
            raise ValueError("resume=True builds its own monitor")
        if places is None or units is None:
            raise ValueError("resume needs the original places + units")
        policy = CheckpointPolicy(
            directory=dura.checkpoint_dir, every_batches=dura.every
        )
        manager = RecoveryManager(policy, places=places, units=units)
        return manager.resume_session(
            fresh_monitor=lambda: make_monitor(
                scheme,
                places=places,
                units=units,
                config=config,
                shard=shard_spec,
            ),
            batch_size=batch_size,
            audit_every=audit_every,
            track_changes=track_changes,
            obs=bundle,
        )
    if monitor is None:
        if places is None or units is None:
            raise ValueError(
                "open_session needs either a monitor or places + units"
            )
        monitor = make_monitor(
            scheme,
            places=places,
            units=units,
            config=config,
            shard=shard_spec,
        )
    elif places is not None or units is not None:
        raise ValueError("pass either a monitor or places/units, not both")
    elif dura is not None and monitor.initialized:
        # its moves so far were never journaled: a resume without a
        # snapshot replays the journal from the initial positions.
        raise ValueError("durability= needs a monitor not initialized yet")
    policy_arg: CheckpointPolicy | None = None
    if dura is not None:
        # a fresh run owns the directory: stale snapshots or journal
        # records from an earlier run must not leak into this one.
        CheckpointStore(dura.checkpoint_dir).wipe()
        policy_arg = CheckpointPolicy(
            directory=dura.checkpoint_dir, every_batches=dura.every
        )
    return MonitorSession(
        monitor,
        batch_size=batch_size,
        audit_every=audit_every,
        track_changes=track_changes,
        checkpoint=policy_arg,
        obs=bundle,
    )


__all__ = [
    "SCHEMES",
    "scheme_factory",
    "make_monitor",
    "open_session",
    "ShardSpec",
    "DurabilitySpec",
    "ObsSpec",
    "Observability",
    "CheckpointPolicy",
    "MonitorSession",
    "RecoveryManager",
    "ShardedMonitor",
    "ShardPlan",
    "CTUPConfig",
]
