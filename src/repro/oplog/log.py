"""Per-shard LSN sequencing and the operation log that fans records to sinks.

The :class:`OperationLog` is the single choke point every mutation of a shard
passes through: it assigns the next log sequence number, builds the
:class:`~repro.oplog.record.OpRecord`, and hands it to every attached
:class:`~repro.oplog.sink.LogSink` — the durable
:class:`~repro.oplog.disk.DiskSink` (WAL) and any number of
:class:`~repro.oplog.sink.SubscriberSink` replication taps — **while holding
one lock**, so every sink observes the exact same gap-free LSN order.  That
ordering guarantee is what lets a follower apply the stream blindly and
converge byte-exactly with the primary.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.oplog.record import OpRecord
from repro.oplog.sink import LogSink, SubscriberSink


class Sequencer:
    """Thread-safe monotone LSN counter for one shard (1-based)."""

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("sequencer start must be >= 0")
        self._last = start
        self._lock = threading.Lock()

    @property
    def last(self) -> int:
        """The most recently issued (or advanced-to) LSN; 0 = none yet."""
        with self._lock:
            return self._last

    def next(self) -> int:
        """Issue the next LSN."""
        with self._lock:
            self._last += 1
            return self._last

    def next_block(self, count: int) -> range:
        """Issue ``count`` consecutive LSNs at once (batched appends)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        with self._lock:
            first = self._last + 1
            self._last += count
            return range(first, self._last + 1)

    def advance_to(self, lsn: int) -> None:
        """Fast-forward past ``lsn`` (recovery); never moves backward."""
        with self._lock:
            if lsn > self._last:
                self._last = lsn


class OperationLog:
    """One shard's mutation spine: sequencer + attached sinks, one lock."""

    def __init__(self, sinks: Sequence[LogSink] = (), start_lsn: int = 0) -> None:
        self._sequencer = Sequencer(start_lsn)
        self._sinks: list[LogSink] = list(sinks)
        self._lock = threading.Lock()

    # ------------------------------------------------------------- sequencing

    @property
    def last_lsn(self) -> int:
        """The newest LSN this log has issued (0 before the first append)."""
        return self._sequencer.last

    def advance_to(self, lsn: int) -> None:
        """Resume the sequence past ``lsn`` (recovery / snapshot load)."""
        self._sequencer.advance_to(lsn)

    # --------------------------------------------------------------- appending

    def append(self, op: int, key: str, value: bytes = b"", epoch: int = 0) -> OpRecord:
        """Sequence one mutation and deliver it to every sink, in order."""
        with self._lock:
            record = OpRecord(
                lsn=self._sequencer.next(), op=op, key=key, value=value, epoch=epoch
            )
            for sink in self._sinks:
                sink.append((record,))
            return record

    def append_many(self, operations: Sequence[tuple[int, str, bytes, int]]) -> int:
        """Sequence a batch of ``(op, key, value, epoch)`` with consecutive LSNs;
        returns the batch's last LSN (the current one for an empty batch).

        The whole batch is delivered to each sink in one call, so the durable
        sink pays a single write + durability barrier for N records; with no
        sink attached only the sequence advances (nobody would read records).
        """
        if not operations:
            return self.last_lsn
        with self._lock:
            lsns = self._sequencer.next_block(len(operations))
            if self._sinks:
                records = [
                    OpRecord(lsn=lsn, op=op, key=key, value=value, epoch=epoch)
                    for lsn, (op, key, value, epoch) in zip(lsns, operations)
                ]
                for sink in self._sinks:
                    sink.append(records)
            return lsns[-1]

    # ------------------------------------------------------------------ sinks

    def attach(self, sink: LogSink) -> LogSink:
        """Add a sink; it sees every append from this point on."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def detach(self, sink: LogSink) -> None:
        """Remove a sink (a no-op if it was never attached)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[LogSink, ...]:
        with self._lock:
            return tuple(self._sinks)

    def subscriber_lag(self) -> int:
        """Worst subscriber backlog across attached subscriber sinks."""
        lag = 0
        for sink in self.sinks:
            if isinstance(sink, SubscriberSink):
                lag = max(lag, sink.max_lag())
        return lag
