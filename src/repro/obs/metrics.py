"""Process-wide metrics fabric: counters, gauges, and fixed-bucket histograms.

The registry is the write side of the observability pipeline (the read side —
Prometheus text rendering and the HTTP sidecar — lives in
:mod:`repro.obs.exposition`).  Design constraints, in order:

* **hot-path cheapness** — every instrument child carries a lock drawn from a
  small striped pool keyed by ``(metric, labels)``, so two unrelated counters
  almost never contend and an increment is one dict lookup plus one locked
  float add.  Label lookups cache the child per label-value tuple; steady-state
  request paths resolve their child once and hold it;
* **a true no-op mode** — a registry built with ``enabled=False`` hands out a
  shared :data:`NOOP` instrument whose methods do nothing, so un-instrumented
  benchmarks keep their numbers without ``if metrics:`` branches at call sites
  (``benchmarks/bench_obs.py`` measures the residual overhead);
* **thread safety everywhere** — instruments are written from every
  connection thread at once; reads (scrapes) take each child's
  stripe lock only long enough to copy values.

Histograms use **fixed, log-spaced** upper bounds (latency lives on a log
scale) with a ``+Inf`` overflow bucket and running sum/count, matching the
Prometheus histogram contract: rendered buckets are cumulative and
monotonically non-decreasing, ``+Inf`` equals ``_count``.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Iterator, Sequence

from repro.exceptions import ObsError

#: Stripe pool size: instruments hash their ``(metric, labels)`` identity into
#: one of these locks, so unrelated hot counters almost never contend.
STRIPE_COUNT = 16

#: Metric and label names follow the Prometheus data model.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Positive infinity, named for readability in bucket tables.
INF = float("inf")


def log_spaced_buckets(
    lowest: float = 100e-6, highest: float = 10.0, per_decade: int = 4
) -> tuple[float, ...]:
    """Log-spaced histogram bounds from ``lowest`` to ``highest`` inclusive.

    ``per_decade`` bounds per factor-of-ten; the ``+Inf`` overflow bucket is
    implicit (every histogram gets one).  Defaults span 100 µs to 10 s — the
    useful latency range of the pure-Python wire path.
    """
    if lowest <= 0 or highest <= lowest:
        raise ObsError("bucket range needs 0 < lowest < highest")
    if per_decade < 1:
        raise ObsError("per_decade must be at least 1")
    step = 10.0 ** (1.0 / per_decade)
    bounds: list[float] = []
    bound = lowest
    # Round to 10 significant digits so repeated multiplication noise cannot
    # make two runs render different ``le`` labels for the same bucket.
    while bound < highest * (1.0 + 1e-9):
        bounds.append(float(f"{bound:.10g}"))
        bound *= step
    return tuple(bounds)


#: Default latency bounds (seconds): 100 µs → 10 s, four buckets per decade.
DEFAULT_LATENCY_BUCKETS = log_spaced_buckets()


# ------------------------------------------------------------------ instruments


class Counter:
    """A monotonically increasing value (one label-combination's cell)."""

    __slots__ = ("_lock", "_value")

    kind = "counter"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError("counter increments must be non-negative")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the running total — for *bridge* collectors only.

        Bridged counters mirror a total owned elsewhere (e.g. a shard's WAL
        fsync count); the collector re-states the absolute value at scrape
        time instead of tracking deltas.
        """
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one label-combination's cell)."""

    __slots__ = ("_lock", "_value")

    kind = "gauge"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

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
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with running sum and count.

    Buckets store *per-bucket* counts internally; :meth:`snapshot` returns
    the cumulative view the Prometheus text format wants.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(self, lock: threading.Lock, bounds: Sequence[float]) -> None:
        self._lock = lock
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # trailing cell = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # ``le`` is inclusive: a value equal to a bound lands in that bucket,
        # which is exactly what bisect_left yields.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """``(cumulative_bucket_counts, sum, count)`` — one consistent copy.

        The cumulative list has ``len(bounds) + 1`` entries; the last is the
        ``+Inf`` bucket and always equals ``count``.
        """
        with self._lock:
            counts = list(self._counts)
            total, observed = self._sum, self._count
        running = 0
        cumulative: list[int] = []
        for cell in counts:
            running += cell
            cumulative.append(running)
        return cumulative, total, observed

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _Noop:
    """Shared do-nothing instrument handed out by a disabled registry.

    Answers the full union of the instrument/family surface (``labels``
    returns itself), so call sites never branch on whether metrics are on.
    """

    __slots__ = ()

    kind = "noop"
    name = "noop"
    value = 0.0
    count = 0
    sum = 0.0

    def labels(self, *args, **kwargs) -> "_Noop":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The single no-op instrument (see :class:`_Noop`).
NOOP = _Noop()


# ---------------------------------------------------------------------- family


class MetricFamily:
    """One named metric with its labelled children.

    Families are created through the registry (:meth:`MetricsRegistry.counter`
    and friends).  ``labels(...)`` resolves (creating on first use) the child
    for one label-value combination; a family declared without label names has
    a single default child and the instrument methods are available directly
    on the family (``family.inc()``).
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._create_lock = threading.Lock()
        self._default = self._make_child(()) if not labelnames else None

    def _make_child(self, labelvalues: tuple[str, ...]) -> Counter | Gauge | Histogram:
        lock = self.registry._stripe_for(self.name, labelvalues)
        if self.kind == "counter":
            return Counter(lock)
        if self.kind == "gauge":
            return Gauge(lock)
        return Histogram(lock, self.buckets or DEFAULT_LATENCY_BUCKETS)

    def labels(self, *values, **named) -> Counter | Gauge | Histogram:
        """The child instrument for one label-value combination.

        Accepts positional values in ``labelnames`` order, or keyword values
        by label name (not both).  Values are coerced to ``str``.
        """
        if named:
            if values:
                raise ObsError(f"{self.name}: pass labels positionally or by name, not both")
            try:
                values = tuple(named[label] for label in self.labelnames)
            except KeyError as error:
                raise ObsError(f"{self.name}: missing label {error.args[0]!r}") from None
            if len(named) != len(self.labelnames):
                unknown = set(named) - set(self.labelnames)
                raise ObsError(f"{self.name}: unknown labels {sorted(unknown)}")
        if len(values) != len(self.labelnames):
            raise ObsError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._create_lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(key)
                    self._children[key] = child
        return child

    # Convenience: an unlabelled family *is* its single child.

    def _require_default(self) -> Counter | Gauge | Histogram:
        if self._default is None:
            raise ObsError(f"{self.name} is labelled {self.labelnames}; use .labels(...)")
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def set_total(self, value: float) -> None:
        self._require_default().set_total(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def snapshot(self) -> tuple[list[int], float, int]:
        return self._require_default().snapshot()

    @property
    def value(self) -> float:
        return self._require_default().value

    def items(self) -> list[tuple[tuple[str, ...], Counter | Gauge | Histogram]]:
        """``(labelvalues, child)`` pairs, sorted by label values."""
        if self._default is not None:
            return [((), self._default)]
        with self._create_lock:
            pairs = list(self._children.items())
        return sorted(pairs)


# -------------------------------------------------------------------- registry


class MetricsRegistry:
    """A process-wide, thread-safe collection of metric families.

    ``enabled=False`` turns the whole registry into a no-op: every factory
    returns the shared :data:`NOOP` instrument, collectors are dropped, and
    :meth:`families` is empty — instrumented code pays a dict lookup and a
    no-op method call, nothing more.

    *Collectors* bridge externally-owned state (e.g. a
    :class:`~repro.service.stats.ServiceSnapshot`) into gauges at scrape
    time: :meth:`run_collectors` is called by the exposition renderer before
    reading families, so bridged values are as fresh as the scrape.  A
    raising collector is counted (:attr:`collector_errors`) and skipped —
    a scrape must never fail because one bridge source is mid-shutdown.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(STRIPE_COUNT))
        self._collectors: list[Callable[[], None]] = []
        self.collector_errors = 0
        # Registered eagerly so the family shows up in scrapes (and the docs
        # inventory) even before the first collector failure.
        self._collector_errors_total = self.counter(
            "repro_collector_errors_total",
            "Scrape-time bridge collectors that raised and were skipped.",
        )

    def _stripe_for(self, name: str, labelvalues: tuple[str, ...]) -> threading.Lock:
        return self._stripes[hash((name, labelvalues)) % STRIPE_COUNT]

    # ------------------------------------------------------------- factories

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily | _Noop:
        if not self.enabled:
            return NOOP
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        labels = tuple(labelnames)
        for label in labels:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ObsError(f"invalid label name {label!r} on metric {name!r}")
        bounds = tuple(buckets) if buckets is not None else None
        if bounds is not None:
            if list(bounds) != sorted(set(bounds)):
                raise ObsError(f"{name}: histogram bounds must be strictly increasing")
            bounds = tuple(bound for bound in bounds if bound != INF)
            if not bounds:
                raise ObsError(f"{name}: histogram needs at least one finite bound")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labels:
                    raise ObsError(
                        f"metric {name!r} is already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            family = MetricFamily(self, name, help_text, kind, labels, bounds)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily | _Noop:
        """Register (or fetch) a counter family."""
        return self._family(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily | _Noop:
        """Register (or fetch) a gauge family."""
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily | _Noop:
        """Register (or fetch) a histogram family (default: latency buckets)."""
        return self._family(
            name, help_text, "histogram", labelnames,
            buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------ collection

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Add a scrape-time bridge (ignored when the registry is disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._collectors.append(collector)

    def run_collectors(self) -> None:
        """Run every bridge collector; failures are counted and skipped."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 — a scrape must not fail mid-shutdown
                self.collector_errors += 1
                self._collector_errors_total.inc()

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by metric name."""
        with self._lock:
            return sorted(self._families.values(), key=lambda family: family.name)

    def family_names(self) -> list[str]:
        """Registered metric names, sorted (the docs anti-ghost check's source)."""
        return [family.name for family in self.families()]

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self.families())
