"""Value-compression plugins for the TierBase store simulator.

TierBase (Section 7.5) compresses every stored value with a workload-trained
compressor: originally a Zstd dictionary trained offline per workload, and —
after the paper's integration work — optionally PBC_F patterns trained the same
way.  The store only sees this small plugin interface:

* ``fit(sample_values) -> model bytes`` — offline training on a sample of the
  workload (pure: any thread, no lock) — and ``install(model)``; ``train`` is both,
* ``compress_many`` / ``decompress`` — batch transform applied on SET (one
  epoch, one payload per value; ``compress`` is the one-value batch) / per-value on GET.

Since the :mod:`repro.codecs` refactor every trained compressor is a thin view
over a :class:`~repro.codecs.VersionedCodec`: training installs a new model
*epoch*, every compressed payload carries a ``codec_magic + uvarint(epoch)``
header (docs/FORMATS.md §6), and decompression resolves the exact model that
wrote the bytes.  Retraining therefore never rewrites stored values — old
epochs stay decodable until no live payload references them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.codecs import ModelStore, VersionedCodec, payload_epoch, stamp_payload
from repro.codecs.builtin import PBCCodec, PBCFCodec, ZstdCodec
from repro.codecs.registry import codec_by_name
from repro.core.extraction import ExtractionConfig
from repro.exceptions import CodecError


class ValueCompressor(ABC):
    """Per-value compressor used by :class:`repro.tierbase.store.TierBase`."""

    #: name shown in the Table 8 rows.
    name: str = "value-compressor"

    @abstractmethod
    def fit(self, sample_values: Sequence[str]) -> bytes:
        """Offline training: the model bytes fitted to a sample of the workload's
        values.  Pure (this compressor is neither read nor changed): any thread."""

    @abstractmethod
    def install(self, model: bytes, trained_records: int) -> None:
        """Make fitted ``model`` bytes the epoch new payloads are written at."""

    def train(self, sample_values: Sequence[str]) -> None:
        """:meth:`fit` on the sample, then :meth:`install` the result."""
        sample = list(sample_values)
        self.install(self.fit(sample), len(sample))

    @abstractmethod
    def compress_many(self, values: Sequence[str]) -> tuple[int, list[bytes]]:
        """Compress a batch: ``(epoch, payloads)``, every payload at ``epoch``.
        Raises, returning nothing, if any value fails to compress."""

    def compress(self, value: str) -> bytes:
        """Compress one value (the one-value batch)."""
        return self.compress_many((value,))[1][0]

    @abstractmethod
    def decompress(self, data: bytes) -> str:
        """Invert :meth:`compress`."""

    # --------------------------------------------------------- epoch surface
    #
    # Plain (un-versioned) compressors live entirely at epoch 0; the
    # versioned subclasses override everything below.

    @property
    def current_epoch(self) -> int:
        """The model epoch new payloads are written at (0 = untrained/plain)."""
        return 0

    @property
    def outlier_rate(self) -> float:
        """Outlier fraction since the current epoch (0.0 for non-pattern codecs)."""
        return 0.0

    def payload_epoch(self, data: bytes) -> int:
        """The epoch stamped into a payload produced by :meth:`compress_many`."""
        del data
        return 0

    def recompress(self, value: str) -> bytes:
        """:meth:`compress`'s bytes for a value read back from the store (a cache
        fill): like :meth:`compress_many_at`, not counted as a write."""
        return self.compress(value)

    def compress_many_at(self, values: Sequence[str], epoch: int) -> list[bytes]:
        """Headerless value bodies at ``epoch`` (SSTable blocks stamp it once)."""
        del epoch
        return self.compress_many(values)[1]

    def decompress_at(self, data: bytes, epoch: int) -> str:
        """Invert :meth:`compress_many_at` for a body written at ``epoch``."""
        del epoch
        return self.decompress(data)

    def acquire_epoch(self, epoch: int, count: int = 1) -> None:
        """Record ``count`` live payloads written at ``epoch`` (retention refcount)."""

    def release_epoch(self, epoch: int) -> None:
        """Drop one live-payload reference (may prune the epoch's model)."""

    def dump_models(self) -> bytes | None:
        """Serialised model store, for stores whose payloads outlive the
        process (on-disk LSM shards); ``None`` for un-versioned compressors."""
        return None

    def load_models(self, data: bytes) -> None:
        """Restore a model store produced by :meth:`dump_models` (no-op here)."""


class NoopValueCompressor(ValueCompressor):
    """Stores values uncompressed (the "Uncompressed" Table 8 row)."""

    name = "Uncompressed"

    def fit(self, sample_values: Sequence[str]) -> bytes:
        return b""

    def install(self, model: bytes, trained_records: int) -> None:
        return None

    def compress_many(self, values: Sequence[str]) -> tuple[int, list[bytes]]:
        return 0, [value.encode("utf-8") for value in values]

    def decompress(self, data: bytes) -> str:
        return data.decode("utf-8")


class VersionedValueCompressor(ValueCompressor):
    """A :class:`ValueCompressor` over a registry codec with versioned models.

    ``compress`` stamps the current epoch into every payload; ``decompress``
    reads it back and decodes with the exact model that wrote the bytes, so a
    retrain (a new :meth:`train` call) never invalidates stored payloads.
    """

    def __init__(self, codec, name: str | None = None) -> None:
        if isinstance(codec, str):
            codec = codec_by_name(codec)
        self.versioned = VersionedCodec(codec)
        self.name = name if name is not None else codec.name

    @property
    def codec(self):
        """The underlying registry codec."""
        return self.versioned.codec

    @property
    def models(self):
        """The :class:`~repro.codecs.ModelStore` of retained epochs."""
        return self.versioned.models

    def fit(self, sample_values: Sequence[str]) -> bytes:
        return self.codec.train(sample_values)

    def install(self, model: bytes, trained_records: int) -> None:
        self.versioned.install(model, trained_records)

    def compress_many(self, values: Sequence[str]) -> tuple[int, list[bytes]]:
        return self.versioned.compress_records(values)

    def decompress(self, data: bytes) -> str:
        return self.versioned.decompress_record(data)

    # --------------------------------------------------------- epoch surface

    @property
    def current_epoch(self) -> int:
        return self.versioned.current_epoch

    @property
    def outlier_rate(self) -> float:
        return self.versioned.outlier_rate

    def payload_epoch(self, data: bytes) -> int:
        return payload_epoch(data)

    def recompress(self, value: str) -> bytes:
        model = self.versioned.models.current
        body = self.versioned.encode_bodies((value,), model)[0]
        return stamp_payload(self.codec.codec_id, model.epoch, body)

    def compress_many_at(self, values: Sequence[str], epoch: int) -> list[bytes]:
        return self.versioned.encode_bodies(values, self.versioned.models.get(epoch))

    def decompress_at(self, data: bytes, epoch: int) -> str:
        return self.versioned.decode_body(data, epoch)

    def acquire_epoch(self, epoch: int, count: int = 1) -> None:
        self.versioned.models.acquire(epoch, count)

    def release_epoch(self, epoch: int) -> None:
        self.versioned.models.release(epoch)

    def dump_models(self) -> bytes | None:
        # Codec magic leads so a restore with a different compressor fails
        # with a typed mismatch instead of feeding wrong models into decode.
        return bytes([self.codec.codec_id]) + self.versioned.models.to_bytes()

    def load_models(self, data: bytes) -> None:
        if not data:
            raise CodecError("empty persisted model store")
        if data[0] != self.codec.codec_id:
            raise CodecError(
                f"persisted model store was written by codec id {data[0]}, but this "
                f"compressor is {self.codec.name!r} (id {self.codec.codec_id}); "
                "reopen the store with the codec that wrote it"
            )
        self.versioned.restore_models(ModelStore.from_bytes(data[1:]))


class ZstdDictValueCompressor(VersionedValueCompressor):
    """Zstd with a workload-trained dictionary (TierBase's original solution)."""

    def __init__(self, level: int = 3, dictionary_size: int = 4096) -> None:
        super().__init__(ZstdCodec(level=level, dictionary_size=dictionary_size), name="Zstd")
        self.level = level
        self.dictionary_size = dictionary_size


class PBCValueCompressor(VersionedValueCompressor):
    """PBC_F with workload-trained patterns (the paper's integration, Table 8)."""

    def __init__(self, config: ExtractionConfig | None = None, use_fsst: bool = True) -> None:
        self.config = config if config is not None else ExtractionConfig()
        codec_class = PBCFCodec if use_fsst else PBCCodec
        codec = codec_class(config=self.config)
        # "PBC_F" with FSST, plain "PBC" without — the Table 8 row names.
        super().__init__(codec, name="PBC_F" if use_fsst else "PBC")
