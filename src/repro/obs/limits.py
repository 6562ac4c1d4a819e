"""Server-side overload protection primitives: token buckets and slow logs.

The policy objects live here; the *enforcement* sits in
:class:`repro.net.server.KVServer` (which knows the frame types) and relays
violations to clients as typed ERR frames —
:class:`~repro.exceptions.RateLimitedError` for an over-budget connection,
:class:`~repro.exceptions.LimitExceededError` for an oversized value or
batch.  Rejections never tear down the connection: only the offending
request is refused, and every rejection is visible as a labelled
``repro_rejections_total`` counter.

:class:`SlowRequestLog` is the threshold-gated, *rate-limited* logger for
requests that out-stay ``slow_request_seconds`` — rate-limited with its own
token bucket so a pathological stretch of slow requests cannot turn the log
into a second overload vector.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from repro.exceptions import NetError

#: Logger that slow-request records are emitted on.
SLOW_LOGGER_NAME = "repro.obs.slow"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst`` capacity.

    Thread-safe and driven by a monotonic clock; :meth:`try_acquire` never
    blocks — it answers whether the caller is within budget *now*, which is
    the semantics a request-rejecting server wants (queueing the request
    would re-introduce the unbounded backlog the limiter exists to prevent).
    """

    def __init__(self, rate: float, burst: float | None = None,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise NetError("token bucket rate must be positive")
        if burst is not None and burst < 1:
            raise NetError("token bucket burst must be at least 1")
        self.rate = float(rate)
        self.capacity = float(burst) if burst is not None else max(1.0, self.rate)
        self._clock = clock
        self._tokens = self.capacity
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; ``False`` means over budget."""
        now = self._clock()
        with self._lock:
            elapsed = now - self._updated
            if elapsed > 0:
                self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
                self._updated = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        """Tokens available right now (refilled to the current instant)."""
        now = self._clock()
        with self._lock:
            elapsed = now - self._updated
            if elapsed > 0:
                self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
                self._updated = now
            return self._tokens


@dataclass(frozen=True)
class RequestLimits:
    """Per-connection protection policy enforced by the server.

    Zero disables each limit individually, so the default configuration is
    byte-for-byte the pre-observability behaviour.
    """

    #: largest accepted SET / MSET value in bytes (0 = unlimited).
    max_value_bytes: int = 0
    #: largest accepted MGET / MSET batch item count (0 = unlimited).
    max_batch_items: int = 0
    #: per-connection request budget in requests/second (0 = unlimited).
    rate_limit: float = 0.0
    #: token-bucket capacity (0 = ``max(1, rate_limit)``).
    rate_burst: int = 0

    def __post_init__(self) -> None:
        if self.max_value_bytes < 0 or self.max_batch_items < 0:
            raise NetError("size limits must be >= 0 (0 disables)")
        if self.rate_limit < 0 or self.rate_burst < 0:
            raise NetError("rate limit and burst must be >= 0 (0 disables)")

    @property
    def enforced(self) -> bool:
        """Whether any limit is active."""
        return bool(self.max_value_bytes or self.max_batch_items or self.rate_limit)

    def bucket(self) -> TokenBucket | None:
        """A fresh per-connection bucket, or ``None`` when rate is unlimited."""
        if not self.rate_limit:
            return None
        return TokenBucket(
            self.rate_limit, burst=self.rate_burst if self.rate_burst else None
        )


class SlowRequestLog:
    """Threshold-gated, rate-limited log of slow requests.

    :meth:`record` returns whether the request was slow (so the caller can
    bump its slow-request counter) independently of whether a log line was
    actually emitted — emission is capped at ``per_second`` lines via an
    internal token bucket, with the overflow counted in :attr:`suppressed`.
    """

    def __init__(
        self,
        threshold_seconds: float,
        per_second: float = 1.0,
        logger: logging.Logger | None = None,
    ) -> None:
        if threshold_seconds <= 0:
            raise NetError("slow-request threshold must be positive")
        self.threshold_seconds = threshold_seconds
        self._bucket = TokenBucket(per_second) if per_second > 0 else None
        self.logger = logger if logger is not None else logging.getLogger(SLOW_LOGGER_NAME)
        self.emitted = 0
        self.suppressed = 0
        self._lock = threading.Lock()  # every connection thread records here

    def record(self, opcode: str, key_count: int, seconds: float) -> bool:
        """Consider one finished request; returns whether it was slow."""
        if seconds < self.threshold_seconds:
            return False
        with self._lock:
            if self._bucket is not None and not self._bucket.try_acquire():
                self.suppressed += 1
                return True
            self.emitted += 1
        self.logger.warning(
            "slow request: opcode=%s keys=%d duration_ms=%.2f threshold_ms=%.2f",
            opcode, key_count, seconds * 1e3, self.threshold_seconds * 1e3,
        )
        return True
