"""Write-ahead log of the LSM engine — a thin wrapper over the operation log's
:class:`~repro.oplog.disk.DiskSink`.

The file mechanics (append, durability policy, torn-tail replay, truncate)
live in :mod:`repro.oplog.disk`; this module is the engine-facing name:

* as a :class:`~repro.oplog.sink.LogSink`, :meth:`WriteAheadLog.append`
  accepts sequenced :class:`~repro.oplog.record.OpRecord`\\ s from the
  engine's :class:`~repro.oplog.log.OperationLog`, and
  :meth:`~WriteAheadLog.replay_records` yields them back as a gap-free LSN
  prefix.  Files written before the LSN format still *read*: their records
  replay with synthesised LSNs, so an old file reopens seamlessly (nothing
  writes that format any more);
* :meth:`~WriteAheadLog.replay` is the same replay as ``(op, key, value)``
  tuples, checkpoints skipped;
* :meth:`~WriteAheadLog.reset` takes the flushed prefix's last LSN and
  stamps it into the fresh file as an ``OP_CHECKPOINT`` record, so a shard
  never re-issues an LSN across flush/reopen.

What an *acknowledged* append guarantees is the ``sync_mode`` policy
(``"none"`` / ``"flush"`` / ``"fsync"``, plus ``fsync_interval_bytes`` group
commit) documented on :class:`~repro.oplog.disk.DiskSink` and in
docs/ARCHITECTURE.md ("Durability").  ``sync()`` is always the hard barrier
(flush + ``os.fsync``) regardless of mode.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

from repro.oplog.disk import SYNC_MODES, DiskSink
from repro.oplog.record import OP_DELETE, OP_PUT, OpRecord
from repro.oplog.sink import LogSink

__all__ = ["OP_DELETE", "OP_PUT", "SYNC_MODES", "WriteAheadLog"]


class WriteAheadLog(LogSink):
    """Append-only log of ``put`` / ``delete`` operations (LSN-aware)."""

    def __init__(
        self,
        path: str | Path,
        sync_mode: str = "flush",
        fsync_interval_bytes: int = 0,
    ) -> None:
        self._sink = DiskSink(
            path, sync_mode=sync_mode, fsync_interval_bytes=fsync_interval_bytes
        )

    # ------------------------------------------------------------ sink facade

    @property
    def path(self) -> Path:
        return self._sink.path

    @property
    def sync_mode(self) -> str:
        return self._sink.sync_mode

    @property
    def fsync_interval_bytes(self) -> int:
        return self._sink.fsync_interval_bytes

    @property
    def fsyncs(self) -> int:
        """fsync barriers taken (process-lifetime, not replayed)."""
        return self._sink.fsyncs

    @property
    def fsync_seconds(self) -> float:
        """Cumulative wall time spent inside fsync barriers."""
        return self._sink.fsync_seconds

    # ------------------------------------------------------------------ write

    def append(self, records: Sequence[OpRecord]) -> None:
        """LogSink entry point: write sequenced LSN-stamped records (batched:
        one buffer, one durability barrier for the whole batch)."""
        self._sink.append(records)

    def flush(self) -> None:
        """Drain the userspace buffer into the kernel (survives a process kill)."""
        self._sink.flush()

    def sync(self) -> None:
        """Hard durability barrier: flush and ``os.fsync`` regardless of mode."""
        self._sink.sync()

    # ------------------------------------------------------------------- read

    def replay_records(self, start_lsn: int = 0) -> Iterator[OpRecord]:
        """Every intact record, oldest first, as a gap-free LSN prefix.

        Stops at the first torn/corrupt entry or LSN gap (see
        :func:`repro.oplog.record.iter_records`); legacy records come back
        with synthesised contiguous LSNs, checkpoints with the LSN the
        truncated prefix had reached.
        """
        return self._sink.replay(start_lsn=start_lsn)

    def replay(self) -> Iterator[tuple[int, str, str]]:
        """Yield ``(op, key, value)`` for every intact mutation, oldest first.

        The historical 3-tuple API: checkpoint control records are skipped
        and values are decoded to text.  Replay stops silently at the first
        truncated or corrupt entry — the torn tail of a crash — and
        everything before it is still valid.
        """
        for record in self.replay_records():
            if record.checkpoint():
                continue
            yield record.op, record.key, record.value.decode("utf-8")

    # ------------------------------------------------------------ maintenance

    def reset(self, checkpoint_lsn: int = 0) -> None:
        """Truncate the log (after the memtable it protects has been flushed).

        ``checkpoint_lsn`` is the LSN the flushed prefix reached; when
        positive, the fresh file opens with an ``OP_CHECKPOINT`` record
        carrying it, so recovery resumes the shard's sequence instead of
        re-issuing LSNs.  In ``"fsync"`` mode the truncation is fsynced
        (file and directory): a machine crash right after a flush must not
        resurrect the pre-flush log over the already-published SSTable's
        directory state.
        """
        self._sink.reset(checkpoint_lsn=checkpoint_lsn)

    def close(self) -> None:
        """Close the underlying file (fsyncing first in ``"fsync"`` mode)."""
        self._sink.close()

    @property
    def size_bytes(self) -> int:
        """Current size of the log file."""
        return self._sink.size_bytes
