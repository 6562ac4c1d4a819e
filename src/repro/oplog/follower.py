"""``FollowerStore``: the operation log's first consumer — a replica in embryo.

A follower is deliberately dumb: a key → last-PUT-record dictionary that applies
:class:`~repro.oplog.record.OpRecord`\\ s in LSN order and remembers how far
it got.  It never compresses, never trains, never interprets payloads — the
PR-3 versioned-epoch design means the model epoch travels *with* the bytes,
so a follower fed TierBase records holds the exact epoch-stamped compressed
payloads the primary holds, byte for byte, without ever seeing a model.
Replication in the next PR is "put a socket between the
:class:`~repro.oplog.sink.SubscriberSink` and this class".

Apply is idempotent (records at or below ``last_applied`` are skipped), so
re-feeding an overlapping stream — a WAL replay after a crash, a retried
batch — cannot double-apply; checkpoints just advance the watermark.  The
convergence tests assert :meth:`diverges_from` is empty against the primary
under concurrent writers, SIGKILL crash injection, and interleaved
put/delete/put_many/retrain.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.oplog.record import OP_CHECKPOINT, OP_DELETE, OP_PUT, OpRecord
from repro.oplog.sink import Subscription


class FollowerStore:
    """Applies an LSN-ordered record stream; converges with the primary."""

    def __init__(self) -> None:
        #: key -> the PUT record that wrote its current value.
        self._records: dict[str, OpRecord] = {}
        #: highest LSN applied (or checkpointed past); 0 = nothing yet.
        self.last_applied = 0
        #: records skipped as already-applied duplicates (idempotence hits).
        self.duplicates = 0

    # --------------------------------------------------------------- applying

    def apply(self, record: OpRecord) -> bool:
        """Apply one record; returns whether it changed the watermark."""
        if record.lsn <= self.last_applied:
            self.duplicates += 1
            return False
        if record.op == OP_PUT:
            self._records[record.key] = record
        elif record.op == OP_DELETE:
            self._records.pop(record.key, None)
        elif record.op != OP_CHECKPOINT:
            raise ValueError(f"unknown operation tag {record.op}")
        self.last_applied = record.lsn
        return True

    def apply_many(self, records: Sequence[OpRecord]) -> int:
        """Apply a batch in order; returns how many advanced the watermark."""
        applied = 0
        for record in records:
            if self.apply(record):
                applied += 1
        return applied

    def catch_up(
        self,
        subscription: Subscription,
        timeout: float = 0.0,
        max_records: int | None = None,
    ) -> int:
        """Drain a subscription until it runs dry; returns records applied.

        Polls in batches (waiting up to ``timeout`` for the first batch
        only).  A :class:`~repro.exceptions.SubscriberLagError` from an
        overrun propagates — a follower that missed records must resync
        from a snapshot, not silently continue.
        """
        applied = 0
        wait = timeout
        while True:
            records = subscription.poll(max_records=max_records, timeout=wait)
            if not records:
                return applied
            applied += self.apply_many(records)
            wait = 0.0

    # ---------------------------------------------------------------- reading

    def get_bytes(self, key: str) -> bytes | None:
        """The replicated value bytes for ``key`` (``None`` when absent)."""
        return self._records[key].value if key in self._records else None

    def epoch_of(self, key: str) -> int | None:
        """The codec epoch stamped on ``key``'s record (``None`` when absent)."""
        return self._records[key].epoch if key in self._records else None

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._records))

    def items(self) -> Iterator[tuple[str, bytes]]:
        """``(key, value_bytes)`` in key order; a key deleted before the
        iterator reaches it is skipped, one overwritten yields its new value."""
        for key in sorted(self._records):
            record = self._records.get(key)
            if record is not None:
                yield key, record.value

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    # ------------------------------------------------------------ convergence

    def diverges_from(self, expected: Mapping[str, bytes]) -> list[str]:
        """Keys whose replicated bytes differ from ``expected`` (byte-exact).

        Empty list = converged.  ``expected`` is the primary's own payload
        map (the payloads of ``TierBase.entries()``, or the LSM engine's live
        entries encoded to bytes), so equality here is the replication acceptance
        bar: same keys, same bytes.
        """
        problems = [
            key
            for key, record in self._records.items()
            if key not in expected or record.value != expected[key]
        ]
        problems.extend(key for key in expected if key not in self._records)
        return sorted(set(problems))
