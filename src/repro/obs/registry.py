"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny — a dict of metric families keyed by
name, each family a dict of children keyed by label values.  Everything
is plain Python floats mutated under the GIL; exposition readers may
race a writer and observe a metric mid-run, which is the normal
contract for scrape-style monitoring.

Two implementations share one surface:

* :class:`MetricsRegistry` — the live registry.
* :class:`NullRegistry` — returned when observability is disabled; every
  operation is a no-op so instrumented code needs no ``if`` guards.

Metric names follow Prometheus conventions (``ctup_`` prefix,
``_total`` suffix on monotonic counters); see docs/architecture.md.
"""

from __future__ import annotations

import re
import threading
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds) spanning the latencies the
#: monitor actually produces: micro-second kernel passes up to
#: multi-second initial builds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount!r})")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Force the counter to ``value`` (bridge use: mirroring a ledger)."""
        self.value = float(value)


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket histogram with cumulative Prometheus semantics."""

    kind = "histogram"
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted: {bounds!r}")
        self.buckets: tuple[float, ...] = bounds
        # one slot per finite bound plus the implicit +Inf overflow slot
        self.counts: list[int] = [0] * (len(bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        idx = 0
        for bound in self.buckets:
            if value <= bound:
                break
            idx += 1
        self.counts[idx] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bound, Prometheus ``le`` style."""
        out: list[int] = []
        running = 0
        for n in self.counts[:-1]:
            running += n
            out.append(running)
        return out

    @property
    def value(self) -> float:
        """The running sum — lets ``registry.value()`` work uniformly."""
        return self.total


_Child = Counter | Gauge | Histogram


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames: tuple[str, ...] = tuple(labelnames)
        self.buckets: tuple[float, ...] = tuple(buckets)
        self._children: dict[tuple[str, ...], _Child] = {}

    def _make_child(self) -> _Child:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, **labels: object) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name!r} takes labels {self.labelnames!r}, got {sorted(labels)!r}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def children(self) -> Iterator[tuple[tuple[str, ...], _Child]]:
        yield from sorted(self._children.items())

    # Label-less convenience passthroughs ------------------------------
    def inc(self, amount: float = 1.0) -> None:
        child = self.labels()
        assert isinstance(child, (Counter, Gauge))
        child.inc(amount)

    def set(self, value: float) -> None:
        child = self.labels()
        assert isinstance(child, Gauge)
        child.set(value)

    def observe(self, value: float) -> None:
        child = self.labels()
        assert isinstance(child, Histogram)
        child.observe(value)


class MetricsRegistry:
    """The live metric registry: named families of labelled children.

    Registration is idempotent — asking for an existing name with the
    same kind/labels returns the existing family, so instrumentation
    sites can re-register on every call without bookkeeping.

    The ``/metrics`` server thread reads the family table concurrently
    with registration on the main loop, so every ``_families`` access
    holds ``_lock`` (``GUARDED_FIELDS`` is the RPL012 contract).
    Family/child objects themselves are append-only and safe to use
    outside the lock once handed out.
    """

    enabled = True
    GUARDED_FIELDS = ("_families",)

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames!r}"
                    )
                return family
            family = MetricFamily(name, kind, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, buckets)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name, for exposition."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: object) -> float:
        """The current value of one child (sum for histograms)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            raise KeyError(name)
        # child lookup happens outside the lock: families are
        # append-only and Lock is not reentrant (labels() may register).
        return family.labels(**labels).value


class _NullChild:
    """Accepts every child operation and does nothing."""

    kind = "null"
    value = 0.0
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_to(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullFamily(_NullChild):
    __slots__ = ()

    def labels(self, **labels: object) -> "_NullFamily":
        return self

    def children(self) -> Iterator[tuple[tuple[str, ...], _Child]]:
        return iter(())


_NULL_FAMILY = _NullFamily()


class NullRegistry:
    """Registry stand-in when metrics are disabled: every op is a no-op."""

    enabled = False

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> _NullFamily:
        return _NULL_FAMILY

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> _NullFamily:
        return _NULL_FAMILY

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> _NullFamily:
        return _NULL_FAMILY

    def families(self) -> list[MetricFamily]:
        return []

    def get(self, name: str) -> MetricFamily | None:
        return None

    def value(self, name: str, **labels: object) -> float:
        raise KeyError(name)


#: Shared null singleton — NullRegistry carries no state.
NULL_REGISTRY = NullRegistry()
