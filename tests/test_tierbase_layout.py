"""TierBase's paged layout, checked against a dict model.

Keys live in sorted pages of ``TBS2`` per-key records behind a small write
buffer of entries and ``None`` tombstones; the running totals behind
``stats()`` replace per-call sums.  None of that may be observable: a
hypothesis run drives the store on ``none`` and ``pbc_f`` through every
mutation, scan, retrain and save/load, at the real page and buffer sizes and
at tiny ones (so splits, merges and scans across page boundaries happen at
hypothesis sizes), and after each step compares it with a plain ``dict`` —
scans and keys against the sorted model, statistics against sums recomputed
from the model, epoch refcounts against the live payloads, and the snapshot
bytes against a serialiser written from the format (kept below as the
oracle).  A fixed 2 000-record sequence per dataset pins the snapshot sha256:
in key order as written now, and in first-insertion order as the layout
before pages wrote it.
"""

import dataclasses
import functools
import hashlib
import tempfile
import threading
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.codecs import codec_by_name
from repro.datasets import load_dataset
from repro.entropy.varint import encode_uvarint
from repro.oplog import FollowerStore
from repro.oplog.record import OP_DELETE, OP_PUT, OpRecord
from repro.service import KVService, ServiceConfig, make_value_compressor
from repro.tierbase import PBCValueCompressor, TierBase, store as store_module
from repro.tierbase.snapshot import dump_snapshot

#: sha256 of the snapshot of :func:`fixed_sequence` with its entries in first
#: insertion order (:func:`insertion_order`), recorded on the one-dict layout
#: before pages, which wrote that order.
SNAPSHOT_SHA256 = {
    "kv1": "346c1898c1d49ef7db5af18c88bf2c4b8ce3a8c222172594936de12b9875053f",
    "kv2": "6b974b17cf3285b10ceaeb3472aa603c7b0a742a564aee2a9d4b1447c1248f59",
    "hdfs": "e45fe549d857860518328d2ebee64c96b65d89303df232c9acf88aa48e5c92e4",
    "alilogs": "4db6bde07856563ddc57dbcc3aaad0804ce749dff89b4845c3c6fa362fa26398",
}

#: sha256 of ``dump_snapshot`` after :func:`fixed_sequence`: key order.
KEY_ORDER_SHA256 = {
    "kv1": "c62ff7c37bdcfecb22b3e9b1fac4313242f4e70ee7fefe9ca1335d5aeb468c79",
    "kv2": "57d47d9f119a4ba2168d7ff236a1a088e59d0f5aa5d425abf34b42c9f761c1ce",
    "hdfs": "ff2c2218c13e96b90cb4afcd5c90d87c9921f3acc6b3d1fb29e8219dc5c80715",
    "alilogs": "bb0ee9fe4902ccdf12ffe7d35ba81fcba5f485418b290916e5100df4f55c6541",
}


def reference_dump(store: TierBase, order: list[str] | None = None) -> bytes:
    """A ``TBS2`` serialiser written from docs/FORMATS.md §8, fed through the
    public surface: the entries in key order, or in ``order`` when given."""
    models = store.compressor.dump_models()
    name_bytes = store.compressor.name.encode("utf-8")
    out = bytearray()
    out += b"TBS2"
    out.append(0x01 if models is not None else 0)
    out += encode_uvarint(len(name_bytes))
    out += name_bytes
    if models is not None:
        out += encode_uvarint(len(models))
        out += models
    out += encode_uvarint(store.last_applied_lsn)
    entries = list(store.entries())
    if order is not None:
        by_key = {entry[0]: entry for entry in entries}
        entries = [by_key[key] for key in order]
    out += encode_uvarint(len(entries))
    for key, original_size, payload in entries:
        key_bytes = key.encode("utf-8")
        out += encode_uvarint(len(key_bytes))
        out += key_bytes
        out += encode_uvarint(original_size)
        out += encode_uvarint(len(payload))
        out += payload
    out += zlib.crc32(out).to_bytes(4, "big")
    return bytes(out)


@functools.lru_cache(maxsize=None)
def _trained(dataset: str) -> tuple[list[str], bytes]:
    """``(2000 records, pbc_f model fitted on the first 128)``."""
    records = load_dataset(dataset, count=2000, seed=1)
    return records, codec_by_name("pbc_f").train(records[:128])


def _fixed_steps():
    """The writes of :func:`fixed_sequence`: ``("install", retrain)``,
    ``("set_many", [(key, record index)])`` and ``("delete", key)``."""
    yield "install", False
    for batch, start in enumerate(range(0, 2000, 100)):
        if batch == 10:
            yield "install", True
        items = [(f"key:{(start + i) * 7 % 1200:04d}", start + i) for i in range(100)]
        yield "set_many", items + [(items[0][0], start + 1)]
        for i in range(0, 100, 9):
            yield "delete", f"key:{(start + i * 13) % 1200:04d}"
    yield "set_many", [("key:single", 0)]


def fixed_sequence(dataset: str) -> TierBase:
    """2 000 records through batches that overwrite, name a key twice and
    follow with deletes (so later batches re-insert), across two epochs."""
    records, model = _trained(dataset)
    store = TierBase(compressor=PBCValueCompressor())
    for kind, argument in _fixed_steps():
        if kind == "install":
            store.install(model, 128, retrain=argument)
        elif kind == "set_many":
            store.set_many([(key, records[index]) for key, index in argument])
        else:
            store.delete(argument)
    return store


def insertion_order() -> list[str]:
    """The keys of :func:`fixed_sequence` in first-insertion order: the same
    writes replayed into a plain dict."""
    replay: dict[str, None] = {}
    for kind, argument in _fixed_steps():
        if kind == "set_many":
            replay.update((key, None) for key, _ in argument)
        elif kind == "delete":
            replay.pop(argument, None)
    return list(replay)


@pytest.mark.parametrize("dataset", sorted(SNAPSHOT_SHA256))
def test_the_snapshot_of_a_fixed_sequence_keeps_its_bytes(dataset):
    store = fixed_sequence(dataset)
    snapshot = dump_snapshot(store)
    assert snapshot == reference_dump(store)
    assert [key for key, _, _ in store.entries()] == sorted(insertion_order())
    assert hashlib.sha256(snapshot).hexdigest() == KEY_ORDER_SHA256[dataset]
    # The same entries in the order the layout before pages wrote them.
    parent = reference_dump(store, insertion_order())
    assert hashlib.sha256(parent).hexdigest() == SNAPSHOT_SHA256[dataset]


def test_a_snapshot_in_insertion_order_loads_into_the_same_store(tmp_path):
    store = fixed_sequence("kv1")
    (tmp_path / "insertion.tbs").write_bytes(reference_dump(store, insertion_order()))
    store.save(tmp_path / "key.tbs", sync=False)
    by_insertion = TierBase.load(tmp_path / "insertion.tbs", compressor=PBCValueCompressor())
    by_key = TierBase.load(tmp_path / "key.tbs", compressor=PBCValueCompressor())
    assert list(by_insertion.entries()) == list(by_key.entries()) == list(store.entries())
    assert by_insertion.stats() == by_key.stats()
    assert by_key.stats().keys == len(store) and by_key.memory_bytes == store.memory_bytes
    assert dump_snapshot(by_insertion) == dump_snapshot(store)
    models = store.compressor.models
    for epoch in models.epochs():
        assert by_insertion.compressor.models.references(epoch) == models.references(epoch)


# ----------------------------------------------------------- the dict model

KEYS = ["a", "k1", "k10", "k2", "é", "ключ"] + [f"p{index:02d}" for index in range(0, 40, 3)]
SAMPLE = load_dataset("kv1", count=64, seed=3)
#: values holding another key's ``uvarint(len) ‖ key``: a page ``find`` for
#: that key matches inside this value first, and must not count it
NEEDLES = [
    "".join(encode_uvarint(len(key.encode("utf-8"))).decode("latin-1") + key for key in keys)
    for keys in (KEYS[:3], KEYS[3:6], KEYS[6:], ["k", "zz", "p0"])
]
VALUES = st.one_of(
    st.text(max_size=12),
    st.text(min_size=120, max_size=180),  # past one varint byte, raw and as an outlier
    st.sampled_from(SAMPLE),
    st.sampled_from(NEEDLES),
)
BOUNDS = st.one_of(st.none(), st.sampled_from(KEYS + ["", "k", "z"]))
#: every kind of step once, on keys past ASCII and values past one varint byte
EVERY_STEP = [
    ("set", "ключ", "x" * 200),
    ("set_many", ["k1", "é", "k2"], SAMPLE[0]),
    ("get", "ключ", None),
    ("get", "a", None),
    ("scan", ("é", None), None),
    ("scan", ("k1", "k2"), 1),
    ("retrain", None, None),
    ("set", "k1", "é" * 70),
    ("delete", "ключ", None),
    ("delete", "a", None),
    ("reload", None, None),
    ("set", "ключ", SAMPLE[1]),
    ("scan", (None, "ключ"), None),
]
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(KEYS), VALUES),
        st.tuples(st.just("set_many"), st.lists(st.sampled_from(KEYS), max_size=12), VALUES),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
        st.tuples(st.just("get"), st.sampled_from(KEYS), st.none()),
        st.tuples(st.just("scan"), st.tuples(BOUNDS, BOUNDS), st.one_of(st.none(), st.integers(0, 4))),
        st.tuples(st.just("retrain"), st.none(), st.none()),
        st.tuples(st.just("reload"), st.none(), st.none()),
    ),
    max_size=40,
)


@functools.lru_cache(maxsize=None)
def _fitted(compressor: str) -> bytes:
    return make_value_compressor(compressor).fit(SAMPLE[:32])


class Model:
    """What a store holds and counts, as a dict and four integers."""

    def __init__(self) -> None:
        self.values: dict[str, str] = {}
        self.sets = self.gets = self.hits = self.misses = 0

    def scan(self, start, end, limit) -> list[tuple[str, str]]:
        keys = [
            key
            for key in sorted(self.values)
            if (start is None or key >= start) and (end is None or key < end)
        ]
        return [(key, self.values[key]) for key in keys[:limit]]


def _check(store: TierBase, model: Model) -> None:
    entries = list(store.entries())
    # Snapshot order is key order.
    assert [key for key, _, _ in entries] == sorted(model.values)
    for key, original_size, payload in entries:
        assert original_size == len(model.values[key].encode("utf-8"))
        assert store.compressor.decompress(payload) == model.values[key]
    assert list(store.keys()) == sorted(model.values)
    assert len(store) == len(model.values)

    stored = sum(len(payload) for _, _, payload in entries)
    assert store.memory_bytes == stored + sum(len(key.encode("utf-8")) for key in model.values)
    assert dataclasses.asdict(store.stats()) == {
        "keys": len(model.values),
        "memory_bytes": store.memory_bytes,
        "original_value_bytes": sum(len(value.encode("utf-8")) for value in model.values.values()),
        "stored_value_bytes": stored,
        "sets": model.sets,
        "gets": model.gets,
        "hits": model.hits,
        "misses": model.misses,
    }

    models = getattr(store.compressor, "models", None)
    if models is not None:
        live = Counter(store.compressor.payload_epoch(payload) for _, _, payload in entries)
        assert set(live) <= set(models.epochs())
        for epoch in (set(live) | set(models.epochs())) - {0}:
            assert models.references(epoch) == live[epoch]

    assert dump_snapshot(store) == reference_dump(store)


def _apply(store: TierBase, model: Model, operation, compressor: str, directory: Path) -> TierBase:
    kind, first, second = operation
    if kind == "set":
        store.set(first, second)
        model.values[first] = second
        model.sets += 1
    elif kind == "set_many":
        # The first key again at the end: a key named twice keeps its last value.
        items = [(key, f"{second}{position}") for position, key in enumerate(first)]
        items += [(key, second) for key in first[:1]]
        store.set_many(items)
        model.values.update(items)
        model.sets += len(items)
    elif kind == "delete":
        assert store.delete(first) == (model.values.pop(first, None) is not None)
    elif kind == "get":
        model.gets += 1
        if first in model.values:
            assert store.get(first) == model.values[first]
            model.hits += 1
        else:
            assert store.get_compressed(first) is None
            model.misses += 1
    elif kind == "scan":
        expected = model.scan(*first, second)
        assert list(store.scan(*first, limit=second)) == expected
        model.gets += len(expected)
        model.hits += len(expected)
    elif kind == "retrain":
        store.retrain(SAMPLE[32:48])
    elif kind == "reload":
        path = directory / "store.tbs"
        store.save(path, sync=False)
        store = TierBase.load(path, compressor=make_value_compressor(compressor))
        model.sets = model.gets = model.hits = model.misses = 0
    return store


#: (page keys, buffer keys): the real sizes, and ones small enough that
#: hypothesis sizes split, merge and scan across many pages
SIZES = [(store_module.PAGE_KEYS, store_module.BUFFER_KEYS), (4, 8)]


@pytest.mark.parametrize("sizes", SIZES, ids=lambda sizes: "pages-%d-buffer-%d" % sizes)
@pytest.mark.parametrize("compressor", ["none", "pbc_f"])
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=OPERATIONS)
@example(operations=EVERY_STEP)
def test_the_store_behaves_like_a_dict(compressor, sizes, operations):
    page_keys, buffer_keys = sizes
    with mock.patch.multiple(store_module, PAGE_KEYS=page_keys, BUFFER_KEYS=buffer_keys):
        store = TierBase(compressor=make_value_compressor(compressor))
        store.install(_fitted(compressor), 32)
        model = Model()
        with tempfile.TemporaryDirectory() as directory:
            for operation in operations:
                store = _apply(store, model, operation, compressor, Path(directory))
                _check(store, model)


def test_a_key_inside_another_value_is_found_only_at_its_record():
    store = TierBase()
    store.set_many([("a", "\x02k2 and \x02zz"), ("k2", "v2"), ("k3", "\x02k2")])
    assert store.get("k2") == "v2"
    assert store.get_compressed("zz") is None
    store.delete("k2")
    store.pages()  # the tombstone merged: only the values hold the needle now
    assert store.get_compressed("k2") is None and "k2" not in store
    assert [key for key, _ in store.scan()] == ["a", "k3"]


def test_pages_split_and_appends_fill_them():
    """Ascending keys (a preload's order) fill whole pages; a page that grows
    past ``PAGE_KEYS`` splits; every key reads back through its page."""
    with mock.patch.multiple(store_module, PAGE_KEYS=4, BUFFER_KEYS=3):
        store = TierBase()
        store.set_many([(f"k{index:03d}", str(index)) for index in range(0, 40, 2)])
        assert len(store.pages()) == 5
        store.set_many([(f"k{index:03d}", str(index)) for index in range(1, 6, 2)])
        assert len(store._buffer) == 3  # not past BUFFER_KEYS: not merged yet
        assert [len(offsets) for offsets in store._offsets] == [4] * 5
        store.pages()
        assert [len(offsets) for offsets in store._offsets] == [4, 3, 4, 4, 4, 4]
        assert list(store.keys()) == sorted(
            [f"k{index:03d}" for index in range(0, 40, 2)]
            + [f"k{index:03d}" for index in range(1, 6, 2)]
        )
        assert all(store.get(key) == str(int(key[1:])) for key in store.keys())


def test_large_values_start_a_new_page_before_an_offset_passes_0xffff():
    store = TierBase()
    values = {f"big{index}": chr(0x41 + index) * 40_000 for index in range(5)}
    store.set_many(list(values.items()))
    store.pages()
    assert all(offsets[-1] <= 0xFFFF for offsets in store._offsets)
    assert len(store._offsets) == 3
    assert dict(store.scan()) == values


def test_retrain_fits_and_installs_a_new_epoch():
    store = TierBase(compressor=make_value_compressor("pbc_f"))
    store.train(SAMPLE[:32])
    store.set_many([(f"k{index}", value) for index, value in enumerate(SAMPLE[:8])])
    store.retrain(SAMPLE[32:64])
    store.set("k0", SAMPLE[0])
    assert store.compressor.models.epochs() == [0, 1, 2]
    assert store.compressor.models.references(1) == 7
    assert store.compressor.models.references(2) == 1


# ------------------------------------------------------------- O(1) stats


class BoobyTrapped(list):
    """A pages list whose iteration and indexing raise."""

    def _trap(self, *args):
        raise AssertionError("the store read its pages")

    __iter__ = __getitem__ = _trap


def test_stats_and_memory_bytes_never_iterate_the_store():
    store = fixed_sequence("kv1")
    store.pages()
    expected = dataclasses.asdict(store.stats())
    store._pages = BoobyTrapped(store._pages)
    with pytest.raises(AssertionError):
        list(store.entries())  # the trap is armed
    assert dataclasses.asdict(store.stats()) == expected
    assert store.memory_bytes == expected["memory_bytes"]
    assert len(store) == expected["keys"]


# ------------------------------------------------------------ memory guard

#: traced bytes per key of 20 000 ``kv1`` keys in a ``pbc_f`` TierBase,
#: measured on the paged layout (the one-dict layout before it: 81.5 B,
#: not counting the key strings the caller still held)
PBC_F_TRACED_B_PER_KEY = 34.5


def _traced_bytes_per_key(compressor: str, count: int = 20_000) -> float:
    values = load_dataset("kv1", count=count, seed=1)
    items = [(f"k{index:08d}", value) for index, value in enumerate(values)]
    store = TierBase(compressor=make_value_compressor(compressor))
    store.train(values[:256])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, count, 100):
            store.set_many(items[start : start + 100])
        store.pages()
        return (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()


def test_a_paged_key_costs_what_it_stores():
    """Deterministic resident bytes (tracemalloc, not RSS) of the store's keys:
    ``pbc_f`` below uncompressed, as in Table 8, and below the recorded cost."""
    pbc_f = _traced_bytes_per_key("pbc_f")
    assert pbc_f <= 1.25 * PBC_F_TRACED_B_PER_KEY
    assert pbc_f < _traced_bytes_per_key("none")


# ----------------------------------------------- iteration across mutation


def _scan_store() -> TierBase:
    store = TierBase()
    store.set_many([(f"k{index}", f"v{index}") for index in range(8)])
    return store


def test_a_key_deleted_mid_scan_is_skipped():
    store = _scan_store()
    scan = store.scan()
    assert next(scan) == ("k0", "v0")
    store.delete("k5")
    assert [key for key, _ in scan] == ["k1", "k2", "k3", "k4", "k6", "k7"]


def test_a_key_overwritten_mid_scan_yields_its_new_value():
    store = _scan_store()
    scan = store.scan(limit=4)
    next(scan)
    store.set("k2", "new")
    assert list(scan) == [("k1", "v1"), ("k2", "new"), ("k3", "v3")]


def test_keys_iterates_a_copy():
    store = _scan_store()
    keys = store.keys()
    next(keys)
    store.delete("k5")
    store.set("k9", "v9")
    assert list(keys) == [f"k{index}" for index in range(1, 8)]


def test_service_keys_waits_for_the_shard_lock():
    """``keys()`` may merge a shard's index, so it takes the shard lock: a
    merge racing an insert would drop the inserted key from later scans."""
    service = KVService(ServiceConfig(shard_count=1, compressor="none", auto_retrain=False))
    service.mset([(f"k{index}", "v") for index in range(10)])
    listed: list[str] = []
    reader = threading.Thread(target=lambda: listed.extend(service.keys()))
    with service._shards[0].lock:
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive() and listed == []
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert listed == sorted(f"k{index}" for index in range(10))
    service.close()


def test_follower_items_skip_a_key_deleted_mid_iteration():
    follower = FollowerStore()
    follower.apply_many(
        [OpRecord(lsn, OP_PUT, f"k{lsn}", f"v{lsn}".encode()) for lsn in range(1, 6)]
    )
    items = follower.items()
    assert next(items) == ("k1", b"v1")
    follower.apply(OpRecord(6, OP_DELETE, "k3"))
    follower.apply(OpRecord(7, OP_PUT, "k4", b"new"))
    assert list(items) == [("k2", b"v2"), ("k4", b"new"), ("k5", b"v5")]
