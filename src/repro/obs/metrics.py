"""Process-wide metrics registry.

Every layer of the system keeps its hot-path counters as plain Python
ints/floats on the owning object (an increment must stay a single
``+= 1`` — no locks, no dict lookups through an abstraction).  This
module provides the *aggregation* seam on top of those counters:

- :class:`MetricsRegistry` — a thread-safe registry of metric
  *families* (counter / gauge / histogram, optionally labeled) plus
  weakref-tracked *collectors* that pull samples out of live objects at
  scrape time.
- Prometheus text exposition via :meth:`MetricsRegistry.render` —
  served by ``GET /metrics`` on a serve node.
- :data:`REGISTRY`, the process-global default instance.

Two ways to publish a metric:

1. **Direct instruments** (``registry.counter(...)``,
   ``registry.histogram(...)``) — used for new series that have no
   pre-existing home, e.g. per-route request latency in the serving
   tier.  These are mutated through the family objects and are
   thread-safe.
2. **Collectors** (``registry.register(owner, collect_fn)``) — used to
   surface the existing per-instance counters (engine stats, index
   maintenance counters, WAL appends, ...) without touching their
   mutation sites.  ``collect_fn(owner)`` is called at scrape time and
   yields :class:`Sample` tuples; the owner is held via weakref so
   short-lived objects (the thousands of engines the test-suite
   creates) never leak.  Samples from several live owners that share a
   series name are summed into one series.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "KIND_COUNTER",
    "KIND_GAUGE",
    "KIND_HISTOGRAM",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricError",
    "Sample",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
]

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: Default latency bucket boundaries (seconds). Chosen to resolve both
#: sub-millisecond point lookups and multi-second publish barriers.
DEFAULT_LATENCY_BUCKETS = (
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
    5.0,
    10.0,
)


class MetricError(ValueError):
    """Raised on inconsistent registration (kind/label mismatch)."""


class Sample(NamedTuple):
    """One scraped value of one series.

    ``value`` is a number for counters/gauges.  For histograms it is a
    ``(boundaries, bucket_counts, sum, count)`` quadruple where
    ``bucket_counts`` has one entry per boundary plus a final ``+Inf``
    entry (cumulative counts are computed at render time).
    """

    name: str
    kind: str
    help: str
    labels: tuple  # tuple of (label_name, label_value) pairs
    value: object


def _label_items(
    labelnames: Sequence[str], labelvalues: Sequence[object]
) -> tuple:
    return tuple(
        (str(n), str(v)) for n, v in zip(labelnames, labelvalues)
    )


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram.

    ``boundaries`` are inclusive upper bounds in ascending order; an
    implicit ``+Inf`` bucket is appended.  ``observe`` is O(log n) in
    the number of buckets.
    """

    __slots__ = ("boundaries", "_counts", "_sum", "_count", "_lock")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise MetricError("histogram needs at least one boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(
                "histogram boundaries must be strictly increasing"
            )
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # ``le`` semantics: the bucket for ``value`` is the first
        # boundary >= value; values above every boundary land in +Inf.
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple:
        with self._lock:
            return (
                self.boundaries,
                tuple(self._counts),
                self._sum,
                self._count,
            )

    @property
    def value(self) -> tuple:
        return self.snapshot()


_INSTRUMENTS = {
    KIND_COUNTER: Counter,
    KIND_GAUGE: Gauge,
    KIND_HISTOGRAM: Histogram,
}


class MetricFamily:
    """A named metric with a fixed label set and one child per value
    combination.  A label-less family owns exactly one child and
    proxies the instrument methods (``inc``/``set``/``observe``) to
    it, so ``registry.counter("x").inc()`` just works.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        boundaries: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(str(n) for n in labelnames)
        self._boundaries = tuple(boundaries) if boundaries else None
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == KIND_HISTOGRAM:
            return Histogram(self._boundaries or DEFAULT_LATENCY_BUCKETS)
        return _INSTRUMENTS[self.kind]()

    def labels(self, *values: object):
        if len(values) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames!r}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    # -- proxies for the label-less case ---------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self):
        return self.labels().value

    def samples(self) -> Iterator[Sample]:
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            yield Sample(
                self.name,
                self.kind,
                self.help,
                _label_items(self.labelnames, key),
                child.value,
            )


class MetricsRegistry:
    """Thread-safe registry of metric families and collectors."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}
        # collector id -> (weakref-to-owner, collect_fn)
        self._collectors: dict[int, tuple] = {}
        self._next_collector = 0

    # -- family constructors (idempotent) --------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        boundaries: Sequence[float] | None = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(
                    str(n) for n in labels
                ):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames!r}"
                    )
                return family
            family = MetricFamily(name, kind, help, labels, boundaries)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, KIND_COUNTER, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, KIND_GAUGE, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        if not buckets:
            raise MetricError("histogram needs at least one boundary")
        return self._family(name, KIND_HISTOGRAM, help, labels, buckets)

    # -- collectors ------------------------------------------------------
    def register(self, owner: object, collect: Callable) -> None:
        """Register ``collect(owner) -> Iterable[Sample]`` for a live
        object.  The owner is held by weakref; collection stops (and
        the slot is reclaimed) when it is garbage collected.
        """
        with self._lock:
            key = self._next_collector
            self._next_collector += 1

            def _cleanup(_ref, _self=weakref.ref(self), _key=key):
                registry = _self()
                if registry is not None:
                    with registry._lock:
                        registry._collectors.pop(_key, None)

            self._collectors[key] = (weakref.ref(owner, _cleanup), collect)

    def collect(self) -> list[Sample]:
        """Scrape every family and collector, summing series that share
        a ``(name, labels)`` identity across live owners."""
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors.values())
        samples: list[Sample] = []
        for family in families:
            samples.extend(family.samples())
        for ref, collect in collectors:
            owner = ref()
            if owner is None:
                continue
            try:
                samples.extend(collect(owner))
            except Exception:  # a broken collector must not kill a scrape
                continue
        return _merge(samples)

    # -- output ----------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        by_name: dict[str, list[Sample]] = {}
        order: list[str] = []
        for sample in self.collect():
            if sample.name not in by_name:
                by_name[sample.name] = []
                order.append(sample.name)
            by_name[sample.name].append(sample)
        for name in order:
            group = by_name[name]
            kind = group[0].kind
            help_text = next((s.help for s in group if s.help), "")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in group:
                if kind == KIND_HISTOGRAM:
                    lines.extend(_render_histogram(sample))
                else:
                    lines.append(
                        f"{name}{_render_labels(sample.labels)} "
                        f"{_format_value(sample.value)}"
                    )
        # Labeled families with no children yet still announce their
        # HELP/TYPE header, so scrapers discover every family up front.
        with self._lock:
            families = list(self._families.values())
        for family in families:
            if family.name in by_name:
                continue
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """Flat ``{name: value}`` (or ``{name: {label_repr: value}}``
        for labeled series) view — handy for tests and the CLI."""
        out: dict = {}
        for sample in self.collect():
            if not sample.labels:
                out[sample.name] = sample.value
            else:
                label_repr = ",".join(f"{k}={v}" for k, v in sample.labels)
                out.setdefault(sample.name, {})[label_repr] = sample.value
        return out


def _merge(samples: Iterable[Sample]) -> list[Sample]:
    merged: dict[tuple, Sample] = {}
    order: list[tuple] = []
    for sample in samples:
        key = (sample.name, sample.labels)
        existing = merged.get(key)
        if existing is None:
            merged[key] = sample
            order.append(key)
        elif sample.kind == KIND_HISTOGRAM:
            bounds_a, counts_a, sum_a, count_a = existing.value
            bounds_b, counts_b, sum_b, count_b = sample.value
            if bounds_a == bounds_b:
                merged[key] = existing._replace(
                    value=(
                        bounds_a,
                        tuple(a + b for a, b in zip(counts_a, counts_b)),
                        sum_a + sum_b,
                        count_a + count_b,
                    )
                )
        else:
            merged[key] = existing._replace(
                value=existing.value + sample.value
            )
    return [merged[key] for key in order]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: tuple, extra: tuple = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: object) -> str:
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _render_histogram(sample: Sample) -> Iterator[str]:
    boundaries, counts, total, count = sample.value
    cumulative = 0
    for bound, bucket_count in zip(boundaries, counts):
        cumulative += bucket_count
        yield (
            f"{sample.name}_bucket"
            f"{_render_labels(sample.labels, (('le', _format_value(bound)),))}"
            f" {cumulative}"
        )
    cumulative += counts[-1]
    yield (
        f"{sample.name}_bucket"
        f"{_render_labels(sample.labels, (('le', '+Inf'),))} {cumulative}"
    )
    yield f"{sample.name}_sum{_render_labels(sample.labels)} {_format_value(total)}"
    yield f"{sample.name}_count{_render_labels(sample.labels)} {count}"


#: The process-global default registry.  Layers register collectors
#: here at construction; ``GET /metrics`` renders it.
REGISTRY = MetricsRegistry()
