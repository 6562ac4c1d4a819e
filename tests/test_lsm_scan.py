"""Property suite for `LSMEngine.scan`: the engine vs a sorted-dict model.

Hypothesis drives random interleavings of put/delete/flush/compact and then
compares `engine.scan(start, end)` against the equivalent slice of a
`sortedcontainers.SortedDict` model.  The properties pinned:

* a scan returns exactly the model's live entries in the range, in key
  order — across memtable-only, mixed (memtable + SSTables), and
  all-on-disk states;
* tombstones never resurface: a deleted key is absent even when an older
  SSTable below still holds a value for it;
* `limit` returns exactly the first N live entries (and never scans past
  them);
* reversed or empty bounds yield an empty scan;
* `key_count()` equals the number of keys a full scan yields, through
  put, delete, flush, compaction and reopen, and decodes no value.
"""

from hypothesis import given, settings, strategies as st
from sortedcontainers import SortedDict

from repro.lsm import LSMEngine, RecordCompressionPolicy
from repro.tierbase import NoopValueCompressor

# Small memtable so flushes create real multi-SSTable layouts quickly.
ENGINE_KWARGS = {"memtable_bytes": 512, "block_bytes": 128, "sync_mode": "none"}

KEYS = st.text(alphabet="abcdxyz", min_size=1, max_size=4)
VALUES = st.text(alphabet="ghijkl0189", min_size=0, max_size=12)

#: One mutation step: put / delete / flush / compact.
STEPS = st.one_of(
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
)

SCAN_SETTINGS = settings(max_examples=60, deadline=None)


def apply_steps(engine: LSMEngine, model: SortedDict, steps) -> None:
    for step in steps:
        if step[0] == "put":
            engine.put(step[1], step[2])
            model[step[1]] = step[2]
        elif step[0] == "delete":
            engine.delete(step[1])
            model.pop(step[1], None)
        elif step[0] == "flush":
            engine.flush()
        else:
            engine.compact()


def model_slice(model: SortedDict, start, end, limit=None):
    items = [
        (key, value)
        for key, value in model.items()
        if (start is None or key >= start) and (end is None or key < end)
    ]
    return items if limit is None else items[:limit]


BOUND = st.one_of(st.none(), KEYS)


class TestScanMatchesModel:
    @SCAN_SETTINGS
    @given(steps=st.lists(STEPS, max_size=40), start=BOUND, end=BOUND)
    def test_scan_equals_model_slice(self, tmp_path_factory, steps, start, end):
        tmp_path = tmp_path_factory.mktemp("lsm-scan")
        model = SortedDict()
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            apply_steps(engine, model, steps)
            assert list(engine.scan(start, end)) == model_slice(model, start, end)

    @SCAN_SETTINGS
    @given(
        steps=st.lists(STEPS, max_size=40),
        start=BOUND,
        end=BOUND,
        limit=st.integers(min_value=0, max_value=8),
    )
    def test_scan_limit_is_a_prefix_of_the_slice(
        self, tmp_path_factory, steps, start, end, limit
    ):
        tmp_path = tmp_path_factory.mktemp("lsm-scan-limit")
        model = SortedDict()
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            apply_steps(engine, model, steps)
            assert list(engine.scan(start, end, limit=limit)) == model_slice(
                model, start, end, limit
            )

    @SCAN_SETTINGS
    @given(steps=st.lists(STEPS, max_size=30))
    def test_all_on_disk_state_scans_like_the_model(self, tmp_path_factory, steps):
        tmp_path = tmp_path_factory.mktemp("lsm-scan-disk")
        model = SortedDict()
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            apply_steps(engine, model, steps)
            engine.flush()  # memtable emptied: the scan reads only SSTables
            assert list(engine.scan()) == model_slice(model, None, None)
            engine.compact()  # single merged SSTable, tombstones dropped
            assert list(engine.scan()) == model_slice(model, None, None)


class TestScanEdgeCases:
    def test_memtable_only_scan(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            for index in (3, 1, 2):
                engine.put(f"k{index}", f"v{index}")
            assert list(engine.scan()) == [("k1", "v1"), ("k2", "v2"), ("k3", "v3")]

    def test_tombstone_in_memtable_hides_flushed_value(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            engine.put("key", "old")
            engine.flush()
            engine.delete("key")
            assert list(engine.scan()) == []
            assert list(engine.scan("a", "z")) == []

    def test_newer_sstable_wins_over_older(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            engine.put("key", "v1")
            engine.flush()
            engine.put("key", "v2")
            engine.flush()
            assert list(engine.scan()) == [("key", "v2")]

    def test_reversed_bounds_scan_is_empty(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            engine.put("a", "1")
            engine.put("b", "2")
            assert list(engine.scan("z", "a")) == []
            assert list(engine.scan("b", "b")) == []

    def test_zero_and_negative_limit_scan_is_empty(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            engine.put("a", "1")
            assert list(engine.scan(limit=0)) == []
            assert list(engine.scan(limit=-3)) == []

    def test_limit_short_circuits_before_later_keys(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            for index in range(20):
                engine.put(f"k{index:02d}", str(index))
            engine.flush()
            assert list(engine.scan(limit=3)) == [
                ("k00", "0"), ("k01", "1"), ("k02", "2"),
            ]

    def test_scan_survives_flush_between_calls(self, tmp_path):
        with LSMEngine(tmp_path, **ENGINE_KWARGS) as engine:
            engine.put("a", "1")
            before = list(engine.scan())
            engine.flush()
            assert list(engine.scan()) == before


class CountingCompressor(NoopValueCompressor):
    """Stores values as UTF-8 and counts every value it decodes."""

    decodes = 0

    def decompress_at(self, data: bytes, epoch: int) -> str:
        self.decodes += 1
        return super().decompress_at(data, epoch)


class TestKeyCount:
    @SCAN_SETTINGS
    @given(steps=st.lists(STEPS, max_size=40), more=st.lists(STEPS, max_size=10))
    def test_key_count_is_the_scan_length_and_decodes_nothing(
        self, tmp_path_factory, steps, more
    ):
        tmp_path = tmp_path_factory.mktemp("lsm-count")
        compressor = CountingCompressor()
        kwargs = dict(ENGINE_KWARGS, policy=RecordCompressionPolicy(compressor))
        model = SortedDict()
        with LSMEngine(tmp_path, **kwargs) as engine:
            apply_steps(engine, model, steps)
            before = compressor.decodes
            assert engine.key_count() == len(model)
            assert compressor.decodes == before
            assert engine.key_count() == sum(1 for _ in engine.scan())
        with LSMEngine(tmp_path, **kwargs) as engine:  # reopen: WAL replay + tables
            apply_steps(engine, model, more)
            before = compressor.decodes
            assert engine.key_count() == len(model)
            assert compressor.decodes == before
            assert engine.key_count() == sum(1 for _ in engine.scan())
