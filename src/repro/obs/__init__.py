"""``repro.obs`` — metrics fabric, Prometheus exposition, overload protection.

The observability layer of the serving stack (ROADMAP item 5): the write
side is a process-wide :class:`MetricsRegistry` of counters, gauges, and
log-spaced-bucket histograms; the read side renders Prometheus text format
0.0.4 over a one-thread HTTP sidecar (``repro serve --metrics-port``) *and*
over the RKV1 ``METRICS`` opcode (``repro client metrics``); the protection
side supplies the token buckets and slow-request log the server enforces its
per-connection limits with.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, :class:`Counter`,
  :class:`Gauge`, :class:`Histogram`; lock-striped children, label support,
  and an ``enabled=False`` no-op mode so un-instrumented benchmarks keep
  their numbers;
* :mod:`repro.obs.exposition` — :func:`render_text` / :func:`parse_text`
  (text format 0.0.4) and the :class:`MetricsHTTPServer` sidecar
  (``GET /metrics`` + ``GET /healthz``);
* :mod:`repro.obs.limits` — :class:`TokenBucket`, :class:`RequestLimits`,
  :class:`SlowRequestLog`; enforcement and the typed
  :class:`~repro.exceptions.RateLimitedError` /
  :class:`~repro.exceptions.LimitExceededError` relays live in
  :mod:`repro.net.server`.

Quick start::

    from repro.obs import MetricsRegistry, render_text

    registry = MetricsRegistry()
    requests = registry.counter("app_requests_total", "Requests.", ("opcode",))
    requests.labels("GET").inc()
    print(render_text(registry))
"""

from repro.obs.exposition import (
    CONTENT_TYPE,
    MetricsHTTPServer,
    format_value,
    parse_text,
    render_text,
)
from repro.obs.limits import RequestLimits, SlowRequestLog, TokenBucket
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NOOP,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    log_spaced_buckets,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NOOP",
    "RequestLimits",
    "SlowRequestLog",
    "TokenBucket",
    "format_value",
    "log_spaced_buckets",
    "parse_text",
    "render_text",
]
