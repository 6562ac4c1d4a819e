"""Log sinks: where sequenced :class:`~repro.oplog.record.OpRecord`\\ s go.

A sink receives records strictly in LSN order (the
:class:`~repro.oplog.log.OperationLog` holds its lock across the sequencer
and every attached sink, so no two appends can interleave).  Two sinks ship:

* :class:`~repro.oplog.disk.DiskSink` — the durable one, the refactored WAL;
* :class:`SubscriberSink` (here) — a bounded in-memory ring that fans records
  out to any number of :class:`Subscription` cursors.  This is the
  replication tap: a follower (next PR: a socket) subscribes, polls, and
  applies.

Backpressure and lag: the ring holds at most ``capacity`` records.  When an
append would evict a record some subscriber has not read yet, the append
first **blocks** for up to ``block_seconds`` waiting for the laggard to
drain (the writer-side backpressure knob); if the laggard still has not
caught up, the oldest records are dropped and the subscriber is *overrun* —
its next ``poll`` raises a typed
:class:`~repro.exceptions.SubscriberLagError` telling it how many records it
missed, because silently skipping mutations would desynchronise a replica
forever.  ``max_lag()`` reports the worst subscriber's backlog for the
``repro_oplog_subscriber_lag_records`` gauge.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Sequence

from repro.exceptions import OplogError, SubscriberLagError
from repro.oplog.record import OpRecord


class LogSink(ABC):
    """Destination for sequenced operation records."""

    @abstractmethod
    def append(self, records: Sequence[OpRecord]) -> None:
        """Accept a batch of records, already in LSN order."""

    def flush(self) -> None:
        """Make accepted records visible/durable (sink-specific; often a no-op)."""

    def close(self) -> None:
        """Release the sink's resources; further appends fail."""


class Subscription:
    """One reader's cursor into a :class:`SubscriberSink` ring."""

    def __init__(self, sink: "SubscriberSink", position: int) -> None:
        self._sink = sink
        self._position = position
        self._closed = False

    @property
    def lag(self) -> int:
        """Records appended to the sink that this cursor has not read yet."""
        with self._sink._lock:
            return self._sink._end - self._position

    @property
    def position(self) -> int:
        """Absolute stream position (count of records ever read or skipped)."""
        return self._position

    def poll(
        self, max_records: int | None = None, timeout: float = 0.0
    ) -> list[OpRecord]:
        """Next unread records, oldest first (empty when caught up).

        Blocks up to ``timeout`` seconds waiting for the first record.
        Raises :class:`SubscriberLagError` if the writer overran this cursor
        (records were evicted unread); the cursor is then resynchronised to
        the oldest record still in the ring, so a caller that can tolerate
        the gap — or re-seeds from a snapshot — may keep polling.
        """
        if self._closed:
            raise OplogError("subscription is closed")
        deadline = time.monotonic() + timeout if timeout > 0 else None
        with self._sink._readable:
            if self._position < self._sink._start:
                missed = self._sink._start - self._position
                self._position = self._sink._start
                raise SubscriberLagError(
                    f"subscriber overrun: {missed} record(s) evicted unread "
                    f"(ring capacity {self._sink.capacity}); resync required",
                    missed=missed,
                )
            while self._position >= self._sink._end:
                if self._sink._closed:
                    return []
                if deadline is None:
                    return []
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._sink._readable.wait(remaining)
            first = self._position - self._sink._start
            available = self._sink._end - self._position
            count = available if max_records is None else min(available, max_records)
            ring = self._sink._ring
            records = [ring[first + index] for index in range(count)]
            self._position += count
            self._sink._drained.notify_all()
            return records

    def close(self) -> None:
        """Detach from the sink (the writer stops waiting for this cursor)."""
        if not self._closed:
            self._closed = True
            self._sink._drop_subscription(self)


class SubscriberSink(LogSink):
    """Bounded in-memory ring of records with per-subscriber cursors."""

    def __init__(self, capacity: int = 1024, block_seconds: float = 0.0) -> None:
        if capacity < 1:
            raise OplogError("subscriber ring capacity must be positive")
        if block_seconds < 0:
            raise OplogError("block_seconds must be >= 0")
        self.capacity = capacity
        self.block_seconds = block_seconds
        self._ring: deque[OpRecord] = deque()
        #: absolute position of ``_ring[0]`` / one past the newest record.
        self._start = 0
        self._end = 0
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._subscriptions: list[Subscription] = []
        #: total records ever evicted while some subscriber had not read them.
        self.overrun_records = 0
        self._closed = False

    # ---------------------------------------------------------------- writing

    def append(self, records: Sequence[OpRecord]) -> None:
        if not records:
            return
        with self._readable:
            if self._closed:
                raise OplogError("subscriber sink is closed")
            self._ring.extend(records)
            self._end += len(records)
            self._readable.notify_all()
            overflow = len(self._ring) - self.capacity
            if overflow > 0 and self.block_seconds > 0 and self._subscriptions:
                # Writer-side backpressure: give laggards a bounded chance to
                # drain before anything unread is evicted.
                deadline = time.monotonic() + self.block_seconds
                while (
                    len(self._ring) > self.capacity
                    and self._min_position() < self._start + (len(self._ring) - self.capacity)
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._drained.wait(remaining)
            while len(self._ring) > self.capacity:
                self._ring.popleft()
                self._start += 1
                if self._min_position() < self._start:
                    self.overrun_records += 1

    def _min_position(self) -> int:
        """Slowest live cursor (``_end`` when nobody subscribes).  Lock held."""
        if not self._subscriptions:
            return self._end
        return min(sub._position for sub in self._subscriptions)

    # ---------------------------------------------------------------- reading

    def subscribe(self, from_start: bool = True) -> Subscription:
        """New cursor; at the oldest retained record, or the live tail."""
        with self._lock:
            if self._closed:
                raise OplogError("subscriber sink is closed")
            position = self._start if from_start else self._end
            subscription = Subscription(self, position)
            self._subscriptions.append(subscription)
            return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        with self._readable:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)
            self._drained.notify_all()

    # ----------------------------------------------------------------- status

    def max_lag(self) -> int:
        """Worst subscriber backlog, in records (0 with no subscribers)."""
        with self._lock:
            if not self._subscriptions:
                return 0
            return max(self._end - sub._position for sub in self._subscriptions)

    def __len__(self) -> int:
        """Records currently retained in the ring."""
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        """Wake every blocked poller; retained records stay readable."""
        with self._readable:
            self._closed = True
            self._readable.notify_all()
            self._drained.notify_all()
