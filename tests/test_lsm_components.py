"""Tests for the LSM engine's building blocks: Bloom filter, memtable, write-ahead log."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import StoreError
from repro.lsm import TOMBSTONE, BloomFilter, MemTable, WriteAheadLog
from repro.lsm.bloom import _hash_pair
from repro.lsm.sstable import PlainPolicy, write_sstable
from repro.lsm.wal import OP_DELETE, OP_PUT
from repro.oplog import OpRecord


def put_record(lsn: int, key: str, value: str) -> OpRecord:
    return OpRecord(lsn=lsn, op=OP_PUT, key=key, value=value.encode("utf-8"))


class TestBloomFilter:
    def test_added_keys_are_reported_present(self):
        bloom = BloomFilter(capacity=100)
        keys = [f"user:{index}".encode() for index in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_is_reasonable(self):
        bloom = BloomFilter(capacity=500, false_positive_rate=0.01)
        for index in range(500):
            bloom.add(f"present:{index}".encode())
        false_positives = sum(
            bloom.might_contain(f"absent:{index}".encode()) for index in range(2000)
        )
        assert false_positives / 2000 < 0.05

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(capacity=10)
        assert not bloom.might_contain(b"anything")
        assert len(bloom) == 0

    def test_serialisation_roundtrip(self):
        bloom = BloomFilter(capacity=50)
        for index in range(50):
            bloom.add(f"key{index}".encode())
        restored, offset = BloomFilter.from_bytes(bloom.to_bytes())
        assert offset == len(bloom.to_bytes())
        assert len(restored) == 50
        assert all(restored.might_contain(f"key{index}".encode()) for index in range(50))

    def test_serialisation_rejects_truncation(self):
        bloom = BloomFilter(capacity=50)
        bloom.add(b"key")
        payload = bloom.to_bytes()
        with pytest.raises(StoreError):
            BloomFilter.from_bytes(payload[: len(payload) // 2])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(StoreError):
            BloomFilter(capacity=0)
        with pytest.raises(StoreError):
            BloomFilter(capacity=10, false_positive_rate=1.5)

    def test_estimated_false_positive_rate_grows_with_fill(self):
        bloom = BloomFilter(capacity=20, false_positive_rate=0.01)
        assert bloom.estimated_false_positive_rate() == 0.0
        for index in range(200):  # heavily overfill
            bloom.add(f"key{index}".encode())
        assert bloom.estimated_false_positive_rate() > 0.01
        assert 0 < bloom.fill_ratio <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=50))
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter(capacity=len(keys))
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)


class TestBloomByteIdentity:
    """The filter hashes with the interpreter's builtin SHA-256, not
    ``hashlib``; the digest must be the same, or every SSTable's filter (and
    so the file bytes) would change."""

    def test_hash_pair_is_the_hashlib_sha256_pair(self):
        rng = random.Random(39)
        keys = [b"", "ключ-é中-🔑".encode("utf-8"), b"\x00" * 3]
        keys += [rng.randbytes(rng.randrange(1, 80)) for _ in range(1000 - len(keys))]
        for key in keys:
            digest = hashlib.sha256(key).digest()
            expected = (int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big"))
            assert _hash_pair(key) == expected, key

    def test_sstable_bytes_are_pinned(self, tmp_path):
        """Fixed entries (tombstones, non-ASCII values, several blocks)
        write the file whose sha256 was recorded before the hash moved."""
        entries = [
            (f"key-{index:04d}", None if index % 7 == 0 else f"value-{index}-é中")
            for index in range(300)
        ]
        path = tmp_path / "table.sst"
        write_sstable(path, entries, PlainPolicy(), block_bytes=512)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1e5e6a627204f9874e42bc1933d9a5af057fabc14d7d881dd24677aaf537e296"
        )


class TestMemTable:
    def test_put_and_get(self):
        table = MemTable()
        table.put("alpha", "1")
        assert table.get("alpha") == (True, "1")
        assert table.get("beta") == (False, None)

    def test_overwrite_keeps_latest_value(self):
        table = MemTable()
        table.put("key", "old")
        table.put("key", "new")
        assert table.get("key") == (True, "new")
        assert len(table) == 1

    def test_delete_records_tombstone(self):
        table = MemTable()
        table.put("key", "value")
        table.delete("key")
        found, value = table.get("key")
        assert found
        assert value is TOMBSTONE

    def test_delete_of_missing_key_still_recorded(self):
        table = MemTable()
        table.delete("ghost")
        assert table.get("ghost") == (True, TOMBSTONE)

    def test_items_are_sorted(self):
        table = MemTable()
        for key in ["zeta", "alpha", "mid"]:
            table.put(key, key.upper())
        assert [key for key, _ in table.items()] == ["alpha", "mid", "zeta"]

    def test_approximate_bytes_tracks_growth_and_overwrites(self):
        table = MemTable()
        table.put("key", "aaaa")
        first = table.approximate_bytes
        table.put("key", "aaaaaaaa")
        assert table.approximate_bytes > first
        table.put("key", "a")
        assert table.approximate_bytes < first + 8

    def test_clear_resets_state(self):
        table = MemTable()
        table.put("key", "value")
        table.clear()
        assert len(table) == 0
        assert table.approximate_bytes == 0

    def test_empty_key_rejected(self):
        table = MemTable()
        with pytest.raises(StoreError):
            table.put("", "value")
        with pytest.raises(StoreError):
            table.delete("")

    def test_contains(self):
        table = MemTable()
        table.put("key", "value")
        assert "key" in table
        assert "other" not in table


class TestWriteAheadLog:
    def test_replay_returns_appended_operations(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([put_record(1, "alpha", "1")])
        wal.append([OpRecord(lsn=2, op=OP_DELETE, key="beta"), put_record(3, "gamma", "3")])
        wal.close()
        replayed = list(WriteAheadLog(tmp_path / "wal.log").replay())
        assert replayed == [(OP_PUT, "alpha", "1"), (OP_DELETE, "beta", ""), (OP_PUT, "gamma", "3")]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        (tmp_path / "wal.log").unlink()
        assert list(wal.replay()) == []

    def test_reset_truncates_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([put_record(1, "key", "value")])
        wal.reset()
        assert list(wal.replay()) == []
        assert wal.size_bytes == 0
        wal.close()

    def test_replay_stops_at_corrupt_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append([put_record(1, "good", "entry")])
        wal.append([put_record(2, "second", "entry")])
        wal.close()
        # Flip a byte inside the second entry's body to corrupt its checksum.
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        replayed = list(WriteAheadLog(path).replay())
        assert replayed == [(OP_PUT, "good", "entry")]

    def test_replay_stops_at_truncated_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append([put_record(1, "good", "entry"), put_record(2, "torn", "entry")])
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        replayed = list(WriteAheadLog(path).replay())
        assert replayed == [(OP_PUT, "good", "entry")]

    def test_append_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StoreError):
            wal.append([put_record(1, "key", "value")])

    def test_unicode_keys_and_values_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([put_record(1, "clé", "värde-值")])
        wal.close()
        assert list(WriteAheadLog(tmp_path / "wal.log").replay()) == [(OP_PUT, "clé", "värde-值")]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=12), st.text(max_size=24)),
            max_size=20,
        )
    )
    def test_replay_property(self, tmp_path_factory, operations):
        path = tmp_path_factory.mktemp("wal") / "wal.log"
        wal = WriteAheadLog(path)
        for lsn, (key, value) in enumerate(operations, start=1):
            wal.append([put_record(lsn, key, value)])
        wal.close()
        replayed = list(WriteAheadLog(path).replay())
        assert replayed == [(OP_PUT, key, value) for key, value in operations]
