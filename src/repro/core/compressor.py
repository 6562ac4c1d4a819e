"""Pattern-based record compression and decompression (Figure 1b/c).

The compressed form of a record is ``uvarint(pattern_id) + encoded fields``;
records that match no pattern are outliers stored as ``uvarint(0) + raw bytes``.
Because every record is compressed individually, random access needs no block
decompression — this is the property Figure 5 evaluates.

Variants
--------
* :class:`PBCCompressor` — plain PBC; residual fields are stored with the field
  encoders only.
* :class:`PBCFCompressor` — PBC_F; the encoded field payload of every record is
  additionally passed through a trained FSST symbol table (still per-record, so
  random access is preserved).
* :class:`PBCHCompressor` — PBC_H; the encoded field payload is passed through a
  residual *entropy* codec (shared rANS or Huffman model, or per-record adaptive
  arithmetic coding) — Section 5.2's "entropy encoding techniques" option.
* :class:`PBCBlockCompressor` — PBC_Z / PBC_L; per-record PBC encodings are
  concatenated into blocks (or a whole file) and compressed with a block codec
  such as the Zstd-like codec or LZMA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.extraction import ExtractionConfig, ExtractionReport, PatternExtractor
from repro.core.matcher import MultiPatternMatcher
from repro.core.pattern import OUTLIER_PATTERN_ID, PatternDictionary
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import CompressorError, DecodingError

#: What every outlier payload, and no other, starts with (``uvarint(0)``).
OUTLIER_PREFIX = encode_uvarint(OUTLIER_PATTERN_ID)


@dataclass
class CompressionStats:
    """Aggregate statistics of a compression run."""

    records: int = 0
    original_bytes: int = 0
    compressed_bytes: int = 0
    outliers: int = 0
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0

    @property
    def ratio(self) -> float:
        """Compression ratio as defined in the paper: compressed / original."""
        if self.original_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.original_bytes

    @property
    def outlier_rate(self) -> float:
        """Fraction of records stored raw because no pattern matched."""
        if self.records == 0:
            return 0.0
        return self.outliers / self.records

    @property
    def compress_mb_per_second(self) -> float:
        """Compression throughput over the original bytes."""
        if self.compress_seconds <= 0:
            return 0.0
        return self.original_bytes / 1e6 / self.compress_seconds

    @property
    def decompress_mb_per_second(self) -> float:
        """Decompression throughput over the original bytes."""
        if self.decompress_seconds <= 0:
            return 0.0
        return self.original_bytes / 1e6 / self.decompress_seconds

    def merge(self, other: "CompressionStats") -> "CompressionStats":
        """Combine two stats objects (used when aggregating across datasets)."""
        return CompressionStats(
            records=self.records + other.records,
            original_bytes=self.original_bytes + other.original_bytes,
            compressed_bytes=self.compressed_bytes + other.compressed_bytes,
            outliers=self.outliers + other.outliers,
            compress_seconds=self.compress_seconds + other.compress_seconds,
            decompress_seconds=self.decompress_seconds + other.decompress_seconds,
        )


class ResidualCodec(Protocol):
    """Per-record transform applied to the encoded field payload (e.g. FSST)."""

    def compress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decompress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


class BlockCodec(Protocol):
    """Block-wise codec (Zstd-like, LZMA, ...) used by PBC_Z / PBC_L."""

    def compress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decompress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


class PBCCompressor:
    """Per-record pattern-based compressor (the plain PBC variant).

    The compressor is trained offline (``train``) on a sample of records, after
    which :meth:`compress` / :meth:`decompress` operate on individual records.
    The outlier rate is monitored; when it exceeds ``retrain_threshold`` the
    optional ``retrain_callback`` fires once (Section 3.2 / Section 7.5).
    """

    name = "PBC"

    def __init__(
        self,
        dictionary: PatternDictionary | None = None,
        config: ExtractionConfig | None = None,
        retrain_threshold: float = 0.2,
        retrain_callback: Callable[["PBCCompressor"], None] | None = None,
    ) -> None:
        self.config = config if config is not None else ExtractionConfig()
        self.retrain_threshold = retrain_threshold
        self.retrain_callback = retrain_callback
        self._matcher: MultiPatternMatcher | None = None
        self._dictionary: PatternDictionary | None = None
        self._seen_records = 0
        self._seen_outliers = 0
        self._retrain_fired = False
        self._stats: CompressionStats | None = None
        self._stats_timed = False
        self.last_extraction: ExtractionReport | None = None
        if dictionary is not None:
            self.load_dictionary(dictionary)

    # ------------------------------------------------------------------ train

    def train(self, sample: Sequence[str]) -> ExtractionReport:
        """Extract a pattern dictionary from ``sample`` and install it."""
        extractor = PatternExtractor(self.config)
        report = extractor.extract(list(sample))
        self.load_dictionary(report.dictionary)
        self.last_extraction = report
        return report

    def load_dictionary(self, dictionary: PatternDictionary) -> None:
        """Install a pre-built pattern dictionary."""
        self._dictionary = dictionary
        self._matcher = MultiPatternMatcher(dictionary)
        self._seen_records = 0
        self._seen_outliers = 0
        self._retrain_fired = False

    @property
    def dictionary(self) -> PatternDictionary:
        """The installed pattern dictionary."""
        self._require_trained()
        assert self._dictionary is not None
        return self._dictionary

    @property
    def is_trained(self) -> bool:
        """Whether a dictionary has been installed."""
        return self._matcher is not None

    def _require_trained(self) -> None:
        if self._matcher is None:
            raise CompressorError(f"{self.name} must be trained before use")

    # --------------------------------------------------------------- encoding

    def _encode_payload(self, payload: bytes) -> bytes:
        """Hook for variants that post-process the field payload (PBC_F)."""
        return payload

    def _decode_payload(self, payload: bytes) -> bytes:
        """Inverse of :meth:`_encode_payload`."""
        return payload

    def compress(self, record: str) -> bytes:
        """Compress a single record (the one-record :meth:`compress_many`)."""
        return self.compress_many((record,))[0]

    def compress_many(self, records: Iterable[str]) -> list[bytes]:
        """Compress records, one payload per record — the one compression loop.
        Live stats (:meth:`enable_stats`) are updated once per call."""
        self._require_trained()
        stats = self._stats
        if stats is not None:
            records = list(records)
            started = time.perf_counter() if self._stats_timed else 0.0
        match = self._matcher.match
        encode_payload = self._encode_payload
        payloads: list[bytes] = []
        append = payloads.append
        for record in records:
            matched = match(record)
            self._seen_records += 1
            if matched is None:
                self._seen_outliers += 1
                self._maybe_retrain()
                # The retrain callback may have installed a new dictionary.
                match = self._matcher.match
                append(OUTLIER_PREFIX + encode_payload(record.encode("utf-8")))
            else:
                pattern, field_values = matched
                append(
                    encode_uvarint(pattern.pattern_id)
                    + encode_payload(pattern.encode_fields(field_values))
                )
        if stats is not None:
            if self._stats_timed:
                stats.compress_seconds += time.perf_counter() - started
            stats.records += len(payloads)
            stats.original_bytes += sum(len(record.encode("utf-8")) for record in records)
            stats.compressed_bytes += sum(map(len, payloads))
            stats.outliers += sum(payload.startswith(OUTLIER_PREFIX) for payload in payloads)
        return payloads

    def decompress(self, data: bytes) -> str:
        """Decompress a single record."""
        stats = self._stats
        if stats is None or not self._stats_timed:
            return self._decompress_record(data)
        started = time.perf_counter()
        record = self._decompress_record(data)
        stats.decompress_seconds += time.perf_counter() - started
        return record

    def _decompress_record(self, data: bytes) -> str:
        self._require_trained()
        assert self._dictionary is not None
        pattern_id, offset = decode_uvarint(data, 0)
        payload = self._decode_payload(data[offset:])
        if pattern_id == OUTLIER_PATTERN_ID:
            return payload.decode("utf-8")
        pattern = self._dictionary.get(pattern_id)
        values, end = pattern.decode_fields(payload, 0)
        if end != len(payload):
            raise DecodingError(
                f"trailing {len(payload) - end} bytes after decoding pattern {pattern_id}"
            )
        return pattern.reconstruct(values)

    # ------------------------------------------------------------- live stats

    def enable_stats(self, timed: bool = False) -> CompressionStats:
        """Attach a live :class:`CompressionStats` updated on every (de)compress.

        With ``timed=False`` (the default) the hot path performs no clock
        calls: only record/byte/outlier counters are maintained, which is what
        the stream pipeline uses inside its frame workers.  Pass ``timed=True``
        to also accumulate per-record wall-clock time.
        """
        self._stats = CompressionStats()
        self._stats_timed = timed
        return self._stats

    def disable_stats(self) -> CompressionStats | None:
        """Detach and return the live stats object (``None`` if not enabled)."""
        stats = self._stats
        self._stats = None
        self._stats_timed = False
        return stats

    # ------------------------------------------------------------- bulk paths

    def decompress_many(self, payloads: Iterable[bytes]) -> list[str]:
        """Decompress a list of per-record payloads."""
        return [self.decompress(payload) for payload in payloads]

    def measure(self, records: Sequence[str]) -> CompressionStats:
        """Compress and decompress ``records``, verifying the roundtrip, and time it."""
        self._require_trained()
        stats = CompressionStats()
        started = time.perf_counter()
        payloads = self.compress_many(records)
        stats.compress_seconds = time.perf_counter() - started
        started = time.perf_counter()
        restored = [self.decompress(payload) for payload in payloads]
        stats.decompress_seconds = time.perf_counter() - started
        for record, payload, result in zip(records, payloads, restored):
            if result != record:
                raise DecodingError("roundtrip mismatch during measurement")
            stats.records += 1
            stats.original_bytes += len(record.encode("utf-8"))
            stats.compressed_bytes += len(payload)
            if payload.startswith(OUTLIER_PREFIX):
                stats.outliers += 1
        return stats

    # ------------------------------------------------------------- monitoring

    @property
    def outlier_rate(self) -> float:
        """Observed outlier rate since the current dictionary was installed."""
        if self._seen_records == 0:
            return 0.0
        return self._seen_outliers / self._seen_records

    def _maybe_retrain(self) -> None:
        if (
            not self._retrain_fired
            and self.retrain_callback is not None
            and self._seen_records >= 64
            and self.outlier_rate >= self.retrain_threshold
        ):
            self._retrain_fired = True
            self.retrain_callback(self)


class PBCFCompressor(PBCCompressor):
    """PBC_F: PBC with the encoded field payload passed through FSST.

    The FSST symbol table is trained on the field payloads of the training
    sample, so frequently repeated residual substrings compress further while
    the per-record property (and thus random access) is preserved.
    """

    name = "PBC_F"

    def __init__(
        self,
        dictionary: PatternDictionary | None = None,
        config: ExtractionConfig | None = None,
        residual_codec: ResidualCodec | None = None,
        **kwargs,
    ) -> None:
        self._residual_codec = residual_codec
        super().__init__(dictionary=dictionary, config=config, **kwargs)

    def train(self, sample: Sequence[str]) -> ExtractionReport:
        report = super().train(sample)
        if self._residual_codec is None:
            self._residual_codec = self._train_residual_codec(sample)
        return report

    def train_residual(self, sample: Sequence[str]) -> None:
        """Train only the FSST residual codec against the installed dictionary.

        Useful when the pattern dictionary was trained elsewhere (e.g. shared
        with a plain :class:`PBCCompressor`) and only the residual symbol table
        still needs fitting.
        """
        self._require_trained()
        self._residual_codec = self._train_residual_codec(sample)

    def _train_residual_codec(self, sample: Sequence[str]) -> ResidualCodec:
        """Train an FSST symbol table on the raw field payloads of the sample."""
        from repro.compressors.fsst import FSSTCodec
        from repro.core.residual import collect_training_payloads

        assert self._matcher is not None
        payloads = collect_training_payloads(self._matcher, sample)
        codec = FSSTCodec()
        codec.train(payloads)
        return codec

    def _encode_payload(self, payload: bytes) -> bytes:
        if self._residual_codec is None:
            return payload
        return self._residual_codec.compress(payload)

    def _decode_payload(self, payload: bytes) -> bytes:
        if self._residual_codec is None:
            return payload
        return self._residual_codec.decompress(payload)


class PBCHCompressor(PBCCompressor):
    """PBC_H: PBC with an entropy-coded residual payload (Section 5.2, option 1).

    The residual stage is selected with ``entropy``:

    * ``"rans"`` (default) — a shared rANS model trained on the sample payloads,
    * ``"huffman"`` — a shared canonical Huffman code,
    * ``"arithmetic"`` — per-record adaptive arithmetic coding (no training).

    Like PBC_F, the transform is applied per record, so random access is kept.
    """

    name = "PBC_H"

    def __init__(
        self,
        dictionary: PatternDictionary | None = None,
        config: ExtractionConfig | None = None,
        entropy: str = "rans",
        **kwargs,
    ) -> None:
        from repro.core.residual import make_residual_codec

        self.entropy = entropy
        self._residual_codec = make_residual_codec(entropy)
        super().__init__(dictionary=dictionary, config=config, **kwargs)

    def train(self, sample: Sequence[str]) -> ExtractionReport:
        report = super().train(sample)
        self.train_residual(sample)
        return report

    def train_residual(self, sample: Sequence[str]) -> None:
        """Fit the shared entropy model against the installed dictionary."""
        from repro.core.residual import collect_training_payloads

        self._require_trained()
        assert self._matcher is not None
        payloads = collect_training_payloads(self._matcher, sample)
        self._residual_codec.train(payloads)

    def _encode_payload(self, payload: bytes) -> bytes:
        return self._residual_codec.compress(payload)

    def _decode_payload(self, payload: bytes) -> bytes:
        return self._residual_codec.decompress(payload)


class PBCBlockCompressor:
    """PBC_Z / PBC_L: PBC followed by a block codec over concatenated records.

    ``compress_block`` stores ``uvarint(count)`` followed by length-prefixed
    per-record PBC payloads, then compresses the whole buffer with the block
    codec.  This trades random access for a higher compression ratio, exactly
    like the Table 4 / file-compression configuration of the paper.
    """

    def __init__(self, pbc: PBCCompressor, block_codec: BlockCodec, name: str | None = None) -> None:
        self.pbc = pbc
        self.block_codec = block_codec
        self.name = name if name is not None else f"PBC+{type(block_codec).__name__}"

    def train(self, sample: Sequence[str]) -> ExtractionReport:
        """Train the underlying PBC compressor."""
        return self.pbc.train(sample)

    def compress_block(self, records: Sequence[str]) -> bytes:
        """Compress a block of records into one opaque payload."""
        buffer = bytearray()
        buffer += encode_uvarint(len(records))
        for payload in self.pbc.compress_many(records):
            buffer += encode_uvarint(len(payload))
            buffer += payload
        return self.block_codec.compress(bytes(buffer))

    def decompress_block(self, data: bytes) -> list[str]:
        """Decompress a payload produced by :meth:`compress_block`."""
        buffer = self.block_codec.decompress(data)
        count, offset = decode_uvarint(buffer, 0)
        records: list[str] = []
        for _ in range(count):
            length, offset = decode_uvarint(buffer, offset)
            end = offset + length
            if end > len(buffer):
                raise DecodingError("truncated PBC block")
            records.append(self.pbc.decompress(buffer[offset:end]))
            offset = end
        return records

    def compress_file(self, records: Sequence[str]) -> bytes:
        """Whole-file compression (Table 4): one block containing every record."""
        return self.compress_block(records)

    def decompress_file(self, data: bytes) -> list[str]:
        """Inverse of :meth:`compress_file`."""
        return self.decompress_block(data)

    def measure(self, records: Sequence[str], block_size: int | None = None) -> CompressionStats:
        """Measure ratio and speed over blocks of ``block_size`` records."""
        stats = CompressionStats()
        if block_size is None or block_size <= 0:
            block_size = len(records)
        blocks: list[bytes] = []
        started = time.perf_counter()
        for start in range(0, len(records), block_size):
            blocks.append(self.compress_block(records[start : start + block_size]))
        stats.compress_seconds = time.perf_counter() - started
        started = time.perf_counter()
        restored: list[str] = []
        for block in blocks:
            restored.extend(self.decompress_block(block))
        stats.decompress_seconds = time.perf_counter() - started
        if restored != list(records):
            raise DecodingError("roundtrip mismatch during block measurement")
        stats.records = len(records)
        stats.original_bytes = sum(len(record.encode("utf-8")) for record in records)
        stats.compressed_bytes = sum(len(block) for block in blocks)
        return stats
