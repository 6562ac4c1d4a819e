"""Versioned trained models: every compressed payload names the model that wrote it.

The PR-2 TierBase bug — retraining installed a new dictionary and corrupted
every payload written under the old one — is the canonical failure of keeping
exactly one trained model alive.  This module makes trained models *versioned*
instead, the way production LSM/zstd-dictionary systems pin a dictionary epoch
to every compressed payload so readers never guess which model wrote a byte:

* :class:`VersionedModel` — one trained model payload (pattern dictionary,
  Zstd prefix, FSST table) with a monotonically increasing ``epoch`` id,
* :class:`ModelStore` — all epochs of one codec's model, with reference counts
  so old epochs are retained until no live payload references them,
* :func:`stamp_payload` / :func:`split_payload` — the versioned payload
  header embedded in every compressed value,
* :class:`VersionedCodec` — a registry codec plus a model store: the engine
  behind the TierBase value compressors, the service shards and the
  epoch-aware block stores.  Retraining installs a new epoch and *never*
  rewrites stored payloads; decompression looks up the exact epoch that
  produced the bytes and raises :class:`~repro.exceptions.ModelEpochError` if
  it is gone.

Versioned payload header (see docs/FORMATS.md §6)::

    payload := codec_magic u8 | uvarint(epoch) | body

``codec_magic`` is the codec's registry id byte, so a payload is fully
self-describing given a model store; ``epoch`` 0 is the pre-training sentinel
model (empty payload), which every store retains forever.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.codecs.base import Codec
from repro.codecs.registry import codec_by_id
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import CodecError, DecodingError, ModelEpochError


@dataclass(frozen=True)
class VersionedModel:
    """One trained model payload pinned to its epoch id."""

    #: monotonically increasing per-store id; 0 is the untrained sentinel.
    epoch: int
    #: serialised trained model (``b""`` for epoch 0 / non-training codecs).
    payload: bytes
    #: how many records the model was trained on (0 for the sentinel).
    trained_records: int = 0


# ------------------------------------------------------------ payload header


def stamp_payload(codec_id: int, epoch: int, body: bytes) -> bytes:
    """Prefix ``body`` with the versioned payload header."""
    return bytes([codec_id]) + encode_uvarint(epoch) + body


def split_payload(data: bytes) -> tuple[int, int, bytes]:
    """Parse a versioned payload into ``(codec_id, epoch, body)``."""
    if not data:
        raise CodecError("empty versioned payload")
    try:
        epoch, offset = decode_uvarint(data, 1)
    except DecodingError as error:
        raise CodecError("truncated versioned payload header") from error
    return data[0], epoch, data[offset:]


def payload_epoch(data: bytes) -> int:
    """The epoch stamped into a versioned payload header."""
    return split_payload(data)[1]


# -------------------------------------------------------------- model store


class ModelStore:
    """All retained epochs of one codec's trained model.

    Epoch allocation is monotonic; installing a new model never drops old
    ones.  Callers that track payload lifetimes (TierBase keys) pair
    :meth:`acquire`/:meth:`release` around each stored payload: an epoch is
    pruned only when it is not current, its reference count has returned to
    zero, and it had been referenced at least once.  Callers that cannot
    track lifetimes (LSM SSTables, whose payloads live through compactions)
    simply never release, so every epoch stays decodable.

    All methods are safe to call from any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        sentinel = VersionedModel(epoch=0, payload=b"")
        self._models: dict[int, VersionedModel] = {0: sentinel}
        self._refs: dict[int, int] = {}
        self._current = sentinel

    @property
    def current(self) -> VersionedModel:
        """The most recently installed model (the write-path model)."""
        return self._current

    @property
    def current_epoch(self) -> int:
        """Epoch id of the current model."""
        return self._current.epoch

    def install(self, payload: bytes, trained_records: int = 0) -> VersionedModel:
        """Install a freshly trained model as the new current epoch.

        If the superseded epoch was reference-tracked and its count already
        returned to zero (every payload it wrote was overwritten or deleted
        while it was still current), it is pruned now — being current was the
        only thing keeping it alive.
        """
        with self._lock:
            previous = self._current.epoch
            model = VersionedModel(
                epoch=max(self._models) + 1,
                payload=payload,
                trained_records=trained_records,
            )
            self._models[model.epoch] = model
            self._current = model
            if previous != 0 and self._refs.get(previous) == 0:
                self._refs.pop(previous, None)
                self._models.pop(previous, None)
            return model

    def get(self, epoch: int) -> VersionedModel:
        """The model that wrote an epoch-stamped payload.

        Raises :class:`ModelEpochError` when the epoch was pruned (or never
        existed) — the typed signal the service cache's stale-payload path
        relies on.
        """
        with self._lock:
            try:
                return self._models[epoch]
            except KeyError as error:
                retained = sorted(self._models)
                raise ModelEpochError(
                    f"model epoch {epoch} is not retained (have {retained})"
                ) from error

    # ------------------------------------------------------- payload lifetimes

    def acquire(self, epoch: int, count: int = 1) -> None:
        """Record ``count`` live payloads written at ``epoch``."""
        if epoch == 0 or count <= 0:
            return
        with self._lock:
            self._refs[epoch] = self._refs.get(epoch, 0) + count

    def release(self, epoch: int) -> None:
        """Drop one live-payload reference; prunes the epoch at zero.

        A release with no recorded reference is a no-op: restored stores
        (:meth:`from_bytes`) deliberately drop reference counts, so pruning on
        an untracked release could destroy a model that live payloads still
        need.  The current epoch is never pruned here — its zero count is kept
        on record so :meth:`install` can prune it the moment it is superseded.
        """
        if epoch == 0:
            return
        with self._lock:
            recorded = self._refs.get(epoch)
            if recorded is None:
                return
            remaining = recorded - 1
            if remaining > 0:
                self._refs[epoch] = remaining
                return
            if epoch == self._current.epoch:
                self._refs[epoch] = 0
                return
            self._refs.pop(epoch, None)
            self._models.pop(epoch, None)

    def references(self, epoch: int) -> int:
        """Live-payload count recorded for ``epoch``."""
        with self._lock:
            return self._refs.get(epoch, 0)

    def epochs(self) -> list[int]:
        """All retained epoch ids, ascending."""
        with self._lock:
            return sorted(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    # ------------------------------------------------------------ persistence

    def to_bytes(self) -> bytes:
        """Serialise every retained model (epochs must survive the process when
        the payloads they decode do — on-disk LSM shards persist this next to
        their SSTables; see docs/FORMATS.md §6).

        Reference counts are deliberately not persisted: the callers that
        persist a store are exactly the ones whose payload lifetimes cannot be
        tracked, so a restored store retains every epoch.
        """
        with self._lock:
            out = bytearray()
            out += encode_uvarint(self._current.epoch)
            out += encode_uvarint(len(self._models))
            for epoch in sorted(self._models):
                model = self._models[epoch]
                out += encode_uvarint(model.epoch)
                out += encode_uvarint(model.trained_records)
                out += encode_uvarint(len(model.payload))
                out += model.payload
            return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ModelStore":
        """Invert :meth:`to_bytes`; any truncation is a :class:`CodecError`."""
        store = cls()
        models: dict[int, VersionedModel] = dict(store._models)
        try:
            current_epoch, offset = decode_uvarint(data, 0)
            count, offset = decode_uvarint(data, offset)
            for _ in range(count):
                epoch, offset = decode_uvarint(data, offset)
                trained_records, offset = decode_uvarint(data, offset)
                length, offset = decode_uvarint(data, offset)
                end = offset + length
                if end > len(data):
                    raise CodecError("truncated model store payload")
                models[epoch] = VersionedModel(
                    epoch=epoch, payload=data[offset:end], trained_records=trained_records
                )
                offset = end
        except DecodingError as error:
            raise CodecError("truncated model store payload") from error
        if offset != len(data):
            raise CodecError("trailing bytes after model store payload")
        if current_epoch not in models:
            raise CodecError(f"model store names current epoch {current_epoch} but lacks it")
        store._models = models
        store._current = models[current_epoch]
        return store


# ---------------------------------------------------------- versioned codec


class VersionedCodec:
    """A registry codec bound to a :class:`ModelStore` of trained epochs.

    This is the shared train → stamp → decode-by-epoch engine: the TierBase
    value compressors, the service shard backends and the epoch-aware block
    stores all delegate here instead of carrying their own dictionary
    lifecycle.  It also satisfies the :class:`repro.compressors.base.Codec`
    byte protocol (``compress``/``decompress``/``name``), so a
    ``BlockStore(codec=VersionedCodec(...))`` keeps every old block decodable
    across retrains.

    Encoding is expected to be serialised by the owner (TierBase instance /
    shard lock), matching the pre-registry compressors; decoding any epoch
    is safe from any thread.
    """

    def __init__(self, codec: Codec) -> None:
        self.codec = codec
        self.models = ModelStore()
        self.name = f"versioned[{codec.name}]"
        self._records = 0
        self._outliers = 0
        # Model coders (deserialised dictionaries/tables) bound once per
        # epoch: the per-record hot path must not re-hash or re-parse the
        # model payload on every value.
        self._coders: dict[int, object] = {}

    # ------------------------------------------------------------------ train

    def train(self, sample_values: Sequence[str]) -> VersionedModel:
        """Fit a model to the sample (``codec.train``: pure, offline) and
        :meth:`install` it; previously written payloads stay decodable."""
        sample = list(sample_values)
        return self.install(self.codec.train(sample), len(sample))

    def install(self, payload: bytes, trained_records: int = 0) -> VersionedModel:
        """Make fitted model bytes the current epoch — the only online step of
        training (O(ms)); the owner serialises it with its writes."""
        model = self.models.install(payload, trained_records=trained_records)
        self._records = 0
        self._outliers = 0
        return model

    def restore_models(self, store: ModelStore) -> None:
        """Swap in a restored :class:`ModelStore` (persisted stores, reopen).

        Epoch ids are only unique *within* a store, so every bound coder and
        the current-epoch counters are dropped with the old store — a stale
        coder under a reused epoch key would decode silently with the wrong
        model.
        """
        self.models = store
        self._coders = {}
        self._records = 0
        self._outliers = 0

    @property
    def current_epoch(self) -> int:
        """The epoch new payloads are stamped with."""
        return self.models.current_epoch

    @property
    def is_trained(self) -> bool:
        """Whether at least one model epoch has been trained."""
        return self.models.current_epoch > 0

    @property
    def outlier_rate(self) -> float:
        """Outlier fraction of the records *written* since the current epoch."""
        if self._records == 0:
            return 0.0
        return self._outliers / self._records

    # ---------------------------------------------------------- record level

    def compress_record(self, value: str) -> bytes:
        """Encode one record, stamped with the current epoch."""
        return self.compress_records((value,))[1][0]

    def compress_records(self, values: Sequence[str]) -> tuple[int, list[bytes]]:
        """Encode a write batch at the current epoch: ``(epoch, stamped payloads)``;
        model, coder and header are resolved once for the whole batch.  The only
        encode :attr:`outlier_rate` counts (a batch that fails counts nothing)."""
        model = self.models.current
        bodies = self.encode_bodies(values, model)
        self._records += len(bodies)
        self._outliers += sum(map(self.codec.record_is_outlier, bodies))
        header = stamp_payload(self.codec.codec_id, model.epoch, b"")
        return model.epoch, [header + body for body in bodies]

    def decompress_record(self, data: bytes) -> str:
        """Decode a stamped record payload with the exact model that wrote it."""
        codec_id, epoch, body = split_payload(data)
        if codec_id != self.codec.codec_id:
            raise CodecError(
                f"payload written by codec id {codec_id}, expected {self.codec.codec_id}"
                f" ({self.codec.name})"
            )
        return self.decode_body(body, epoch)

    def _coder_for(self, model: VersionedModel):
        """The record coder bound to ``model``, built once per epoch.

        Benign under concurrent readers: worst case two threads build the
        same coder and one wins the dict slot.  Bounded so long-lived stores
        with many superseded epochs don't accumulate dead coders.
        """
        coder = self._coders.get(model.epoch)
        if coder is None:
            coder = self.codec.record_coder(model.payload)
            if len(self._coders) >= 8:
                # Evict one stale entry; never the hot current-epoch coder.
                for cached_epoch in list(self._coders):
                    if cached_epoch != self.models.current_epoch:
                        self._coders.pop(cached_epoch, None)
                        break
            self._coders[model.epoch] = coder
        return coder

    def encode_bodies(self, values: Sequence[str], model: VersionedModel) -> list[bytes]:
        """Headerless record bodies at ``model``.  Not counted towards
        :attr:`outlier_rate`: a read's cache fill and a compaction re-encode
        values that were counted when they were written."""
        return self._coder_for(model).compress_many(values)

    def decode_body(self, body: bytes, epoch: int) -> str:
        """Decode a headerless record body written at ``epoch``."""
        return self._coder_for(self.models.get(epoch)).decompress(body)

    # ------------------------------------------------------------- byte level

    def compress(self, data: bytes) -> bytes:
        """Opaque-bytes compression with the stamped header (block stores)."""
        model = self.models.current
        body = self.codec.compress_bytes(data, model.payload)
        return stamp_payload(self.codec.codec_id, model.epoch, body)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`, resolving the epoch that wrote the block."""
        codec_id, epoch, body = split_payload(data)
        if codec_id != self.codec.codec_id:
            raise CodecError(
                f"block written by codec id {codec_id}, expected {self.codec.codec_id}"
                f" ({self.codec.name})"
            )
        return self.codec.decompress_bytes(body, self.models.get(epoch).payload)


def versioned_codec(name: str) -> VersionedCodec:
    """Build a :class:`VersionedCodec` over a registered codec by name."""
    from repro.codecs.registry import codec_by_name

    return VersionedCodec(codec_by_name(name))


def describe_payload(data: bytes) -> tuple[str, int, int]:
    """``(codec_name, epoch, body_bytes)`` of a stamped payload (diagnostics)."""
    codec_id, epoch, body = split_payload(data)
    return codec_by_id(codec_id).name, epoch, len(body)
