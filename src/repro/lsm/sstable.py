"""Immutable sorted table files (SSTables) with pluggable value compression.

An SSTable stores key/value entries in key order, grouped into data blocks,
followed by a block index, a Bloom filter and a fixed-size footer:

    [data block 0][data block 1]...[index][bloom filter][footer]

The footer records the index and Bloom-filter offsets so a reader can open the
file with two seeks.  Point lookups go Bloom filter -> index binary search ->
one block read, exactly like LevelDB/RocksDB table files.

How a block's payload is laid out is delegated to a :class:`StoragePolicy`:

* :class:`PlainPolicy` — entries stored raw (the "Uncompressed" configuration),
* :class:`BlockCompressionPolicy` — the whole block payload is compressed with a
  block codec (Zstd-like, LZMA, ...): reading one key decompresses the whole
  block, which is the trade-off Figure 5 of the paper measures,
* :class:`RecordCompressionPolicy` — each value is compressed individually with
  a :class:`repro.tierbase.compression.ValueCompressor` (e.g. trained PBC_F):
  reading one key decompresses exactly one value.

The "STB3" footer additionally stamps the table's **storage-policy identity**
(policy kind + block-codec id) and its **logical value byte count**, so a
reopened directory resolves the exact policy that wrote each table (per-level
codec policies make this vary table by table) and ``stats()`` no longer has to
re-decode every block just to report logical bytes.  "STB2" files (no stamp)
remain readable; pre-epoch "STBL" files are rejected with a typed error.

Readers hold their file descriptor open for the table's lifetime and read
blocks with ``os.pread``: a table that a background compaction has already
unlinked keeps serving a parked scan until the last reference drops (POSIX
unlink semantics), which is what fixes the scan-vs-compact crash.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.compressors.base import Codec
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import DecodingError, StoreError
from repro.ioutil import fsync_file
from repro.lsm.bloom import BloomFilter
from repro.tierbase.compression import ValueCompressor

#: Magic number terminating every SSTable file.  "STB3" is the self-describing
#: format: the footer carries the logical value byte count and the storage
#: policy stamp (docs/FORMATS.md §3).  "STB2" (epoch-aware blocks, 28-byte
#: footer) stays readable; pre-epoch "STBL" files are rejected with a typed
#: error instead of being silently misparsed.
_MAGIC = 0x53544233  # "STB3"
_MAGIC_V2 = 0x53544232  # "STB2" (no footer stamp; still readable)
_MAGIC_V1 = 0x5354424C  # "STBL" (pre-epoch block layout; rejected)

#: STB3 footer layout: index offset, bloom offset, entry count, logical value
#: bytes (8 bytes each) + policy kind (1) + block codec id (1) + magic (4).
_FOOTER_SIZE = 8 + 8 + 8 + 8 + 1 + 1 + 4
#: Legacy STB2 footer: index offset, bloom offset, entry count + magic.
_FOOTER_SIZE_V2 = 8 + 8 + 8 + 4

#: Flag bytes stored per entry.
_FLAG_VALUE = 0
_FLAG_TOMBSTONE = 1

#: Storage-policy kinds stamped into the STB3 footer.
POLICY_KIND_PLAIN = 0
POLICY_KIND_BLOCK = 1
POLICY_KIND_RECORD = 2


# ------------------------------------------------------------------- policies


class StoragePolicy(ABC):
    """Controls how a data block's entries are serialised and read back."""

    #: Name reported in engine statistics.
    name: str = "policy"
    #: Identity stamped into the STB3 footer (plain/block/record).
    policy_kind: int = POLICY_KIND_PLAIN

    @abstractmethod
    def encode_block(self, entries: Sequence[tuple[str, str | None]]) -> bytes:
        """Serialise ``entries`` (key, value-or-tombstone) into a block payload."""

    @abstractmethod
    def iter_block(self, payload: bytes) -> Iterator[tuple[str, str | None]]:
        """Yield every entry of a block payload in key order."""

    def stored_entries(self, payload: bytes) -> Iterator[tuple[str, object]]:
        """Every ``(key, value)`` of a block payload in key order, a
        tombstone's value ``None``; a live value may be left as it is stored
        (whoever only counts keys must not pay for decoding)."""
        return self.iter_block(payload)

    def lookup_in_block(self, payload: bytes, key: str) -> tuple[bool, str | None]:
        """Find ``key`` inside a block payload; returns ``(found, value)``."""
        for entry_key, value in self.iter_block(payload):
            if entry_key == key:
                return True, value
            if entry_key > key:
                break
        return False, None

    def stamp_codec_id(self) -> int:
        """One-byte block-codec id stamped into the footer (0 = none/unknown)."""
        return 0

    # Model-epoch retention hooks: only the record policy refcounts the model
    # epochs its blocks reference; the engine calls these when tables are
    # opened/published and retired, so a compaction that rewrites the last
    # block of an old epoch releases that epoch's model for pruning.

    def acquire_block_epochs(self, epochs: Iterable[int]) -> None:
        """Record live block references to model ``epochs`` (no-op here)."""

    def release_block_epochs(self, epochs: Iterable[int]) -> None:
        """Drop block references to model ``epochs`` (no-op here)."""


def _encode_entries(
    entries: Sequence[tuple[str, str | None]], encode_values
) -> bytes:
    """Shared entry serialisation: key, flag byte, encoded value
    (``encode_values``: the block's live values to their stored bytes, one call)."""
    encoded = iter(encode_values([value for _, value in entries if value is not None]))
    out = bytearray()
    out += encode_uvarint(len(entries))
    for key, value in entries:
        key_bytes = key.encode("utf-8")
        out += encode_uvarint(len(key_bytes))
        out += key_bytes
        if value is None:
            out.append(_FLAG_TOMBSTONE)
            continue
        out.append(_FLAG_VALUE)
        value_bytes = next(encoded)
        out += encode_uvarint(len(value_bytes))
        out += value_bytes
    return bytes(out)


def _utf8_values(values: Sequence[str]) -> list[bytes]:
    return [value.encode("utf-8") for value in values]


def _decode_entries(payload: bytes, decode_value) -> Iterator[tuple[str, str | None]]:
    """Inverse of :func:`_encode_entries`; ``decode_value`` may be lazy."""
    count, offset = decode_uvarint(payload, 0)
    for _ in range(count):
        key_length, offset = decode_uvarint(payload, offset)
        key = payload[offset : offset + key_length].decode("utf-8")
        offset += key_length
        flag = payload[offset]
        offset += 1
        if flag == _FLAG_TOMBSTONE:
            yield key, None
            continue
        value_length, offset = decode_uvarint(payload, offset)
        value_bytes = payload[offset : offset + value_length]
        offset += value_length
        yield key, decode_value(value_bytes)


class PlainPolicy(StoragePolicy):
    """Entries stored uncompressed."""

    name = "plain"
    policy_kind = POLICY_KIND_PLAIN

    def encode_block(self, entries: Sequence[tuple[str, str | None]]) -> bytes:
        return _encode_entries(entries, _utf8_values)

    def iter_block(self, payload: bytes) -> Iterator[tuple[str, str | None]]:
        return _decode_entries(payload, lambda value_bytes: value_bytes.decode("utf-8"))


class BlockCompressionPolicy(StoragePolicy):
    """The whole block payload is compressed with a block codec (RocksDB style)."""

    policy_kind = POLICY_KIND_BLOCK

    def __init__(self, codec: Codec) -> None:
        self.codec = codec
        self.name = f"block[{codec.name}]"

    def encode_block(self, entries: Sequence[tuple[str, str | None]]) -> bytes:
        raw = _encode_entries(entries, _utf8_values)
        return self.codec.compress(raw)

    def iter_block(self, payload: bytes) -> Iterator[tuple[str, str | None]]:
        raw = self.codec.decompress(payload)
        return _decode_entries(raw, lambda value_bytes: value_bytes.decode("utf-8"))

    def stamp_codec_id(self) -> int:
        # The registry is the one codec-id authority; block codecs that are
        # not registered there (bespoke instances) stamp 0 = unknown, which
        # resolution treats as "match by kind".
        from repro.codecs.registry import codec_by_name
        from repro.exceptions import UnknownCodecError

        try:
            return codec_by_name(self.codec.name).codec_id
        except UnknownCodecError:
            return 0


class RecordCompressionPolicy(StoragePolicy):
    """Every value compressed individually with a trained :class:`ValueCompressor`.

    Point lookups decompress only the matched value, which is what gives the
    per-record compressors (PBC, PBC_F, FSST) their random-access advantage.

    A block is encoded in one pass against one trained model, so the model
    *epoch* is stamped once into the block header — ``uvarint(epoch)`` before
    the entry layout — and values are stored as headerless epoch bodies.
    Reads decode against the exact epoch that wrote the block, which is what
    lets a retrained compressor keep every existing SSTable readable.  The
    engine refcounts each live table's block epochs through
    :meth:`acquire_block_epochs` / :meth:`release_block_epochs`, so the
    :class:`~repro.codecs.ModelStore` can prune an old epoch once the last
    block referencing it has been compacted away.
    """

    policy_kind = POLICY_KIND_RECORD

    def __init__(self, compressor: ValueCompressor) -> None:
        self.compressor = compressor
        self.name = f"record[{compressor.name}]"

    def encode_block(self, entries: Sequence[tuple[str, str | None]]) -> bytes:
        # Plain per-record compressors (no versioned models) live at epoch 0;
        # the ValueCompressor base class supplies the epoch surface for them.
        epoch = self.compressor.current_epoch
        body = _encode_entries(
            entries, lambda values: self.compressor.compress_many_at(values, epoch)
        )
        return bytes(encode_uvarint(epoch)) + body

    def iter_block(self, payload: bytes) -> Iterator[tuple[str, str | None]]:
        epoch, offset = decode_uvarint(payload, 0)
        return _decode_entries(
            payload[offset:],
            lambda value_bytes: self.compressor.decompress_at(value_bytes, epoch),
        )

    def stored_entries(self, payload: bytes) -> Iterator[tuple[str, bytes | None]]:
        return _decode_entries(payload[decode_uvarint(payload, 0)[1] :], bytes)

    def block_epoch(self, payload: bytes) -> int:
        """The model epoch stamped into a block header (diagnostics/tests)."""
        return decode_uvarint(payload, 0)[0]

    def acquire_block_epochs(self, epochs: Iterable[int]) -> None:
        for epoch in epochs:
            self.compressor.acquire_epoch(epoch)

    def release_block_epochs(self, epochs: Iterable[int]) -> None:
        for epoch in epochs:
            self.compressor.release_epoch(epoch)

    def lookup_in_block(self, payload: bytes, key: str) -> tuple[bool, str | None]:
        # Scan the entry headers without decompressing values we skip over.
        epoch, offset = decode_uvarint(payload, 0)
        count, offset = decode_uvarint(payload, offset)
        for _ in range(count):
            key_length, offset = decode_uvarint(payload, offset)
            entry_key = payload[offset : offset + key_length].decode("utf-8")
            offset += key_length
            flag = payload[offset]
            offset += 1
            if flag == _FLAG_TOMBSTONE:
                if entry_key == key:
                    return True, None
                continue
            value_length, offset = decode_uvarint(payload, offset)
            value_bytes = payload[offset : offset + value_length]
            offset += value_length
            if entry_key == key:
                return True, self.compressor.decompress_at(value_bytes, epoch)
            if entry_key > key:
                break
        return False, None


# --------------------------------------------------------------------- writer


@dataclass
class SSTableInfo:
    """Summary statistics of a written table file."""

    path: Path
    entry_count: int
    block_count: int
    file_bytes: int
    logical_value_bytes: int
    min_key: str
    max_key: str
    #: model epochs stamped into the table's blocks (record policies only).
    epochs: tuple[int, ...] = field(default=())


def write_sstable(
    path: str | Path,
    entries: Sequence[tuple[str, str | None]],
    policy: StoragePolicy,
    block_bytes: int = 4096,
    bloom_false_positive_rate: float = 0.01,
    sync: bool = False,
) -> SSTableInfo:
    """Write ``entries`` (already sorted by key, newest version only) to ``path``.

    With ``sync`` the file is fsynced before close, which the engine's atomic
    tmp-then-rename publication requires: the rename must never become durable
    before the bytes it points at.
    """
    if not entries:
        raise StoreError("cannot write an empty SSTable")
    keys = [key for key, _ in entries]
    if keys != sorted(keys):
        raise StoreError("SSTable entries must be sorted by key")
    if len(set(keys)) != len(keys):
        raise StoreError("SSTable entries must have unique keys")
    info = write_sstable_stream(
        path,
        entries,
        policy,
        approximate_entries=len(entries),
        block_bytes=block_bytes,
        bloom_false_positive_rate=bloom_false_positive_rate,
        sync=sync,
    )
    assert info is not None  # non-empty input was checked above
    return info


def write_sstable_stream(
    path: str | Path,
    entries: Iterable[tuple[str, str | None]],
    policy: StoragePolicy,
    approximate_entries: int,
    block_bytes: int = 4096,
    bloom_false_positive_rate: float = 0.01,
    sync: bool = False,
) -> SSTableInfo | None:
    """Stream an already-sorted entry iterator into an SSTable at ``path``.

    The compaction writer: memory stays O(block) regardless of how many
    entries flow through, which is what lets a background merge rewrite a
    store far bigger than RAM.  ``approximate_entries`` sizes the Bloom
    filter and must be an **upper bound** on the real entry count (a merge
    passes the sum of its inputs' entry counts; deduplication only lowers
    the false-positive rate below target).  Sortedness and uniqueness are
    validated on the fly with the same typed errors as :func:`write_sstable`.

    Returns ``None`` — and writes no file — when the iterator is empty (a
    compaction whose inputs cancel out entirely publishes nothing).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    bloom = BloomFilter(
        capacity=max(1, approximate_entries),
        false_positive_rate=bloom_false_positive_rate,
    )
    index: list[tuple[str, int, int]] = []  # (first key, offset, length)
    epochs: set[int] = set()
    record_policy = isinstance(policy, RecordCompressionPolicy)
    logical_value_bytes = 0
    entry_count = 0
    previous_key: str | None = None
    min_key: str | None = None
    handle = None

    try:
        offset = 0
        block: list[tuple[str, str | None]] = []
        block_logical = 0

        def flush_block() -> None:
            nonlocal offset, block, block_logical
            if not block:
                return
            payload = policy.encode_block(block)
            if record_policy:
                epochs.add(decode_uvarint(payload, 0)[0])
            index.append((block[0][0], offset, len(payload)))
            handle.write(payload)
            offset += len(payload)
            block = []
            block_logical = 0

        for key, value in entries:
            if previous_key is not None:
                if key < previous_key:
                    raise StoreError("SSTable entries must be sorted by key")
                if key == previous_key:
                    raise StoreError("SSTable entries must have unique keys")
            if handle is None:
                handle = open(path, "wb")
                min_key = key
            previous_key = key
            entry_count += 1
            bloom.add(key.encode("utf-8"))
            entry_size = len(key.encode("utf-8")) + (len(value.encode("utf-8")) if value else 0)
            logical_value_bytes += len(value.encode("utf-8")) if value else 0
            if block and block_logical + entry_size > block_bytes:
                flush_block()
            block.append((key, value))
            block_logical += entry_size
        if handle is None:
            return None
        flush_block()

        index_offset = offset
        index_payload = bytearray()
        index_payload += encode_uvarint(len(index))
        for first_key, block_offset, block_length in index:
            key_bytes = first_key.encode("utf-8")
            index_payload += encode_uvarint(len(key_bytes))
            index_payload += key_bytes
            index_payload += encode_uvarint(block_offset)
            index_payload += encode_uvarint(block_length)
        handle.write(bytes(index_payload))
        offset += len(index_payload)

        bloom_offset = offset
        bloom_payload = bloom.to_bytes()
        handle.write(bloom_payload)
        offset += len(bloom_payload)

        footer = (
            index_offset.to_bytes(8, "big")
            + bloom_offset.to_bytes(8, "big")
            + entry_count.to_bytes(8, "big")
            + logical_value_bytes.to_bytes(8, "big")
            + bytes([policy.policy_kind & 0xFF, policy.stamp_codec_id() & 0xFF])
            + _MAGIC.to_bytes(4, "big")
        )
        handle.write(footer)
        if sync:
            fsync_file(handle)
    except BaseException:
        if handle is not None:
            handle.close()
            handle = None
            path.unlink(missing_ok=True)
        raise
    finally:
        if handle is not None:
            handle.close()

    return SSTableInfo(
        path=path,
        entry_count=entry_count,
        block_count=len(index),
        file_bytes=path.stat().st_size,
        logical_value_bytes=logical_value_bytes,
        min_key=min_key if min_key is not None else "",
        max_key=previous_key if previous_key is not None else "",
        epochs=tuple(sorted(epochs)),
    )


# --------------------------------------------------------------------- reader


class SSTable:
    """Read-only view over a table file written by :func:`write_sstable`.

    The file descriptor opened at construction stays open for the object's
    lifetime and every block read is an ``os.pread`` on it: thread-safe
    (no shared seek position) and immune to the path being unlinked by a
    compaction — a parked iterator keeps reading the dead file until the
    table object itself is garbage-collected (or :meth:`close` is called).
    """

    #: slot id / level assigned by the owning engine (diagnostics; -1 = free-standing).
    table_id: int = -1
    level: int = 0

    def __init__(self, path: str | Path, policy: StoragePolicy) -> None:
        self.path = Path(path)
        self.policy = policy
        self._fd = -1
        try:
            self._fd = os.open(str(self.path), os.O_RDONLY)
        except FileNotFoundError:
            raise StoreError(f"SSTable file {self.path} does not exist") from None
        try:
            file_size = os.fstat(self._fd).st_size
            self._file_bytes = file_size
            self._parse_footer(file_size)
            # A torn or bit-flipped file that happens to keep a valid-looking
            # footer must still fail *typed* — never feed garbage offsets into
            # varint parsing and return misdecoded entries.
            try:
                self._load_metadata(file_size)
            except StoreError:
                raise
            except (DecodingError, UnicodeDecodeError, IndexError, ValueError) as error:
                raise StoreError(
                    f"SSTable file {self.path} has a corrupt metadata section"
                ) from error
        except BaseException:
            os.close(self._fd)
            self._fd = -1
            raise

    def _parse_footer(self, file_size: int) -> None:
        if file_size < _FOOTER_SIZE_V2:
            raise StoreError(f"SSTable file {self.path} is too small to contain a footer")
        magic = int.from_bytes(os.pread(self._fd, 4, file_size - 4), "big")
        if magic == _MAGIC_V1:
            raise StoreError(
                f"SSTable file {self.path} uses the pre-epoch 'STBL' block layout; "
                "rewrite it with this version (record-policy blocks now carry a "
                "model-epoch header)"
            )
        if magic == _MAGIC:
            if file_size < _FOOTER_SIZE:
                raise StoreError(
                    f"SSTable file {self.path} is too small to contain a footer"
                )
            footer = os.pread(self._fd, _FOOTER_SIZE, file_size - _FOOTER_SIZE)
            self._index_offset = int.from_bytes(footer[0:8], "big")
            self._bloom_offset = int.from_bytes(footer[8:16], "big")
            self.entry_count = int.from_bytes(footer[16:24], "big")
            self._logical_value_bytes: int | None = int.from_bytes(footer[24:32], "big")
            self.policy_stamp: tuple[int, int] | None = (footer[32], footer[33])
            metadata_end = file_size - _FOOTER_SIZE
        elif magic == _MAGIC_V2:
            footer = os.pread(self._fd, _FOOTER_SIZE_V2, file_size - _FOOTER_SIZE_V2)
            self._index_offset = int.from_bytes(footer[0:8], "big")
            self._bloom_offset = int.from_bytes(footer[8:16], "big")
            self.entry_count = int.from_bytes(footer[16:24], "big")
            self._logical_value_bytes = None  # computed lazily on first use
            self.policy_stamp = None
            metadata_end = file_size - _FOOTER_SIZE_V2
        else:
            raise StoreError(f"SSTable file {self.path} has a bad magic number")
        self._metadata_end = metadata_end
        if not 0 <= self._index_offset <= self._bloom_offset <= metadata_end:
            raise StoreError(
                f"SSTable file {self.path} is corrupt: footer offsets do not fit the file"
            )

    @staticmethod
    def read_stamp(path: str | Path) -> tuple[int, int] | None:
        """The ``(policy_kind, codec_id)`` stamp of an STB3 file, else ``None``.

        Cheap (two small reads, no metadata parse) — the engine uses it during
        recovery to resolve each table's storage policy before opening it.
        Returns ``None`` for legacy "STB2" files and for anything unreadable;
        the :class:`SSTable` constructor is where malformed files fail typed.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size < _FOOTER_SIZE:
                    return None
                handle.seek(size - _FOOTER_SIZE)
                footer = handle.read(_FOOTER_SIZE)
        except OSError:
            return None
        if int.from_bytes(footer[-4:], "big") != _MAGIC:
            return None
        return footer[32], footer[33]

    def _load_metadata(self, file_size: int) -> None:
        metadata = os.pread(
            self._fd, self._metadata_end - self._index_offset, self._index_offset
        )
        index_payload = metadata[: self._bloom_offset - self._index_offset]
        bloom_payload = metadata[self._bloom_offset - self._index_offset :]
        block_count, offset = decode_uvarint(index_payload, 0)
        self._index: list[tuple[str, int, int]] = []
        for _ in range(block_count):
            key_length, offset = decode_uvarint(index_payload, offset)
            first_key = index_payload[offset : offset + key_length].decode("utf-8")
            offset += key_length
            block_offset, offset = decode_uvarint(index_payload, offset)
            block_length, offset = decode_uvarint(index_payload, offset)
            if block_offset + block_length > self._index_offset:
                raise StoreError(
                    f"SSTable file {self.path} is corrupt: data block overruns the index"
                )
            self._index.append((first_key, block_offset, block_length))
        self._first_keys = [first_key for first_key, _, _ in self._index]
        self._bloom, _ = BloomFilter.from_bytes(bloom_payload, 0)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the held file descriptor (idempotent)."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def retire(self) -> None:
        """Unlink the table file; the open descriptor keeps serving readers.

        Called by the engine once a compaction's output supersedes this
        table.  Disk space is reclaimed when the last reference (a parked
        scan, a snapshot list) drops and the descriptor closes.
        """
        self.path.unlink(missing_ok=True)

    # ------------------------------------------------------------------- read

    @property
    def block_count(self) -> int:
        """Number of data blocks."""
        return len(self._index)

    @property
    def file_bytes(self) -> int:
        """On-disk size of the table file (captured at open; survives unlink)."""
        return self._file_bytes

    @property
    def logical_value_bytes(self) -> int:
        """Uncompressed bytes of every live value in the table.

        STB3 files answer from the footer; legacy STB2 files pay one full
        decode on first use and cache the result (the table is immutable).
        """
        if self._logical_value_bytes is None:
            logical = 0
            for _, value in self.scan():
                if value is not None:
                    logical += len(value.encode("utf-8"))
            self._logical_value_bytes = logical
        return self._logical_value_bytes

    def block_epochs(self) -> tuple[int, ...]:
        """Model epochs referenced by this table's blocks (record policy only).

        Reads only each block's uvarint header prefix via ``pread`` — no
        value is decompressed — so the engine can refcount epoch retention
        at table-open time in O(blocks) tiny reads.
        """
        if not hasattr(self.policy, "block_epoch"):
            return ()
        epochs: set[int] = set()
        for _, block_offset, block_length in self._index:
            prefix = os.pread(self._fd, min(10, block_length), block_offset)
            epochs.add(decode_uvarint(prefix, 0)[0])
        return tuple(sorted(epochs))

    def _read_block(self, position: int) -> bytes:
        _, block_offset, block_length = self._index[position]
        if self._fd < 0:
            raise StoreError(f"SSTable {self.path} is closed")
        return os.pread(self._fd, block_length, block_offset)

    def get(self, key: str) -> tuple[bool, str | None]:
        """Point lookup; returns ``(found, value)`` where a found tombstone is ``(True, None)``."""
        if not self._index:
            return False, None
        if not self._bloom.might_contain(key.encode("utf-8")):
            return False, None
        position = bisect_right(self._first_keys, key) - 1
        if position < 0:
            return False, None
        return self.policy.lookup_in_block(self._read_block(position), key)

    def scan(self) -> Iterator[tuple[str, str | None]]:
        """All entries in key order (tombstones included, used by compaction)."""
        for position in range(len(self._index)):
            yield from self.policy.iter_block(self._read_block(position))

    def stored_entries(self) -> Iterator[tuple[str, object]]:
        """All entries in key order, values as the policy stores them
        (:meth:`StoragePolicy.stored_entries`; tombstones ``None``)."""
        for position in range(len(self._index)):
            yield from self.policy.stored_entries(self._read_block(position))

    def range(self, start: str | None = None, end: str | None = None) -> Iterator[tuple[str, str | None]]:
        """Entries with ``start <= key < end`` in key order (tombstones included).

        Seeks: the block index places the first candidate block, so a narrow
        range over a large table reads only the blocks it overlaps.
        """
        first = 0
        if start is not None:
            first = max(bisect_right(self._first_keys, start) - 1, 0)
        for position in range(first, len(self._index)):
            if end is not None and self._first_keys[position] >= end:
                return
            for key, value in self.policy.iter_block(self._read_block(position)):
                if start is not None and key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield key, value
