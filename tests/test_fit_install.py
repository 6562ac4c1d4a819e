"""Training is one pure ``fit`` and one O(ms) ``install``.

``KVService.train`` fits **once** and installs the same bytes on every shard;
a drift retrain fits on the service's ``kv-trainer`` thread with **no** shard
lock held and takes the lock only to install.  These tests are the proof that
the split changed no byte and stalls no request:

* *equivalence* — the parent's per-shard loop (``for shard:
  backend.train(sample)``), kept here as the oracle, leaves every shard in the
  state "fit once" leaves it in: models, epochs, payloads, ratio, reopen;
* *purity* — concurrent fits racing writes on one compressor return the
  single-threaded bytes and leave the compressor untouched;
* *concurrency* — with a codec whose fit blocks on an ``Event``, every
  operation on the drifting shard completes while the fit is held (at the
  parent commit the fit held the shard lock: they blocked), at most one fit is
  ever in flight, and ``close()`` joins it;
* the two defects fixed on the way: reads polluted the *write*-drift signal
  (an lsm shard retrained in a loop), and a background fit that raised
  vanished.

Runs under ``PYTHONHASHSEED=random`` in CI: a fit that depended on hash order
would make the oracle comparison flaky.
"""

import sys
import threading

import pytest

from repro.codecs import payload_epoch
from repro.codecs.builtin import PBCCodec
from repro.datasets import load_dataset
from repro.exceptions import ServiceError, StoreError
from repro.service import KVService, ServiceConfig
from repro.service.backends import LSMShard, make_value_compressor
from repro.tierbase import TierBase
from repro.tierbase.compression import PBCValueCompressor, VersionedValueCompressor

from tests.conftest import make_template_records

BACKENDS = ["tierbase", "lsm"]
WAIT = 10  # seconds: every join and wait is bounded, so a regression fails instead of hanging


def compressor_of(backend):
    """The shard's value compressor (the two backends keep it in different places)."""
    return backend.store.compressor if backend.name == "tierbase" else backend.compressor


# ------------------------------------------------------------------ equivalence


def oracle_train(service: KVService, sample) -> None:
    """``KVService.train`` as the parent commit had it: the same sample fitted
    once per shard, each under its shard lock (the order changes nothing)."""
    for shard in service._shards:
        shard.run(shard.backend.train, list(sample))


def shard_states(service: KVService) -> list[dict]:
    states = []
    for shard, snapshot in zip(service._shards, service.shard_snapshots()):
        compressor = compressor_of(shard.backend)
        models = compressor.dump_models()  # None for the un-versioned "none"
        models_path = getattr(shard.backend, "_models_path", None)  # lsm only
        states.append(
            {
                "models": models,
                "models.bin": models_path.read_bytes() if models_path and models_path.exists() else None,
                "epoch": compressor.current_epoch,
                "trained_records": compressor.models.current.trained_records if models else 0,
                "snapshot_epoch": snapshot.model_epoch,
                "aged": snapshot.model_epoch_age_seconds > 0,
            }
        )
    return states


def epochs(service: KVService) -> list[int]:
    return [compressor_of(shard.backend).current_epoch for shard in service._shards]


def payloads(service: KVService, keys) -> list[bytes]:
    return [
        service._shards[service.shard_for(key)].backend.get_compressed(key) for key in keys
    ]


@pytest.mark.parametrize("dataset", ["kv2", "hdfs"])
@pytest.mark.parametrize("compressor", ["pbc", "pbc_f", "zstd", "fsst", "none"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_fit_once_equals_the_per_shard_loop(backend, compressor, dataset, tmp_path):
    sample = load_dataset(dataset, count=16)  # the dataset's canonical (seedless) head
    second = load_dataset("kv1", count=12)
    # The pure-Python zstd-like coder costs ≈ 2 ms a record; the others 10–30 µs.
    records = load_dataset(dataset, count=40 if compressor == "zstd" else 2000, seed=1)
    items = [(f"k:{index:05d}", value) for index, value in enumerate(records)]
    late = [(f"late:{index:03d}", value) for index, value in enumerate(second)]
    keys = [key for key, _ in items]

    def config(name):
        return ServiceConfig(
            shard_count=3, backend=backend, compressor=compressor,
            directory=tmp_path / name, sync_mode="none", auto_retrain=False,
        )

    with KVService(config("oracle")) as oracle, KVService(config("change")) as service:
        oracle_train(oracle, sample)
        service.train(sample)
        assert shard_states(service) == shard_states(oracle)
        trained_epoch = 0 if compressor == "none" else 1
        assert epochs(service) == [trained_epoch] * 3
        for start in range(0, len(items), 100):
            oracle.mset(items[start : start + 100])
            service.mset(items[start : start + 100])
        assert payloads(service, keys) == payloads(oracle, keys)
        assert service.snapshot().ratio == oracle.snapshot().ratio
        # A second train installs the next epoch on every shard.
        service.train(second)
        assert epochs(service) == [2 * trained_epoch] * 3
        assert len({state["models"] for state in shard_states(service)}) == 1
        service.mset(late)
    # Reopen from disk: payloads of both epochs decode with the model that wrote them.
    with KVService(config("change")) as reopened:
        assert epochs(reopened) == [2 * trained_epoch] * 3
        assert reopened.mget(keys[::7]) == records[::7]
        assert reopened.mget([key for key, _ in late]) == second


def test_fit_is_pure_under_concurrent_writes():
    """Ten fits racing 2 000 writes on one compressor: the single-threaded
    bytes, and a compressor in exactly the state the writes alone leave."""
    sample = load_dataset("hdfs", count=12)
    records = load_dataset("hdfs", count=2000, seed=1)
    items = [(f"k:{index % 500}", value) for index, value in enumerate(records)]
    expected = PBCValueCompressor().fit(sample)

    def written(store: TierBase) -> tuple:
        compressor = store.compressor
        return (
            compressor.current_epoch,
            compressor.outlier_rate,
            compressor.models.epochs(),
            compressor.models.references(1),
            compressor.dump_models(),
        )

    quiet, raced = (TierBase(compressor=PBCValueCompressor()) for _ in range(2))
    for store in (quiet, raced):
        store.install(expected, len(sample))
    for start in range(0, len(items), 50):
        quiet.set_many(items[start : start + 50])

    fitted: list[bytes] = []
    fitters = [
        threading.Thread(target=lambda: fitted.append(raced.compressor.fit(sample)))
        for _ in range(10)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in fitters:
            thread.start()
        for start in range(0, len(items), 50):
            raced.set_many(items[start : start + 50])
        for thread in fitters:
            thread.join(timeout=WAIT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in fitters)
    assert fitted == [expected] * 10
    assert written(raced) == written(quiet)
    assert list(raced.entries()) == list(quiet.entries())


def test_compositions_keep_their_checks():
    store = TierBase(compressor=PBCValueCompressor())
    with pytest.raises(StoreError):
        store.train([])
    with pytest.raises(StoreError):
        store.retrain([])
    with pytest.raises(StoreError):
        store.retrain()  # no sample and an empty reservoir
    assert store.compressor.current_epoch == 0 and store.lifecycle.trained_at is None
    noop = make_value_compressor("none")
    assert noop.fit(["a"]) == b""
    noop.train(["a"])
    assert noop.current_epoch == 0 and noop.compress("a") == noop.recompress("a") == b"a"


# ------------------------------------------------------------- held / failing fit


class FitGate:
    """Shared by every shard's stub codec: holds fits on an ``Event``, counts
    how many are in flight, and optionally makes them raise."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entered = threading.Semaphore(0)  # released once per fit that reached the gate
        self.open = threading.Event()
        self.open.set()
        self.fits = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.error: Exception | None = None

    def hold(self) -> None:
        self.open.clear()

    def release(self) -> None:
        self.open.set()


class GatedPBC(PBCCodec):
    """PBC whose ``train`` — the fit underneath every layer, at this commit and
    at the parent — waits at a :class:`FitGate`."""

    def __init__(self, gate: FitGate) -> None:
        super().__init__()
        self.gate = gate

    def train(self, records):
        gate = self.gate
        with gate.lock:
            gate.fits += 1
            gate.in_flight += 1
            gate.max_in_flight = max(gate.max_in_flight, gate.in_flight)
        gate.entered.release()
        try:
            assert gate.open.wait(timeout=WAIT), "the held fit was never released"
            if gate.error is not None:
                raise gate.error
            return super().train(records)
        finally:
            with gate.lock:
                gate.in_flight -= 1


TRAINED = make_template_records(64, seed=3)
DRIFTED = [f"DRIFT|{index:06d}|completely=different&layout={index * 7}" for index in range(400)]


@pytest.fixture
def gate(monkeypatch):
    gate = FitGate()
    monkeypatch.setattr(
        "repro.service.backends.make_value_compressor",
        lambda name: VersionedValueCompressor(GatedPBC(gate), name="PBC"),
    )
    yield gate
    gate.release()  # never leave a trainer thread parked on a failed test


def gated_service(backend, tmp_path, shards=1) -> KVService:
    service = KVService(
        ServiceConfig(
            shard_count=shards, backend=backend, compressor="pbc", train_size=64,
            cache_entries=8, directory=tmp_path if backend == "lsm" else None,
            sync_mode="none",
        )
    )
    service.train(TRAINED)
    service.mset([(f"t:{index}", value) for index, value in enumerate(TRAINED)])
    return service


def drift(service: KVService, count: int = 100) -> list[tuple[str, str]]:
    """Write ``count`` out-of-distribution values (a shard flags drift once it
    has seen 64 values and a fifth of its writes are outliers)."""
    items = [(f"d:{index}", value) for index, value in enumerate(DRIFTED[:count])]
    service.mset(items)
    return items


def completes(fn, *args):
    """Run ``fn`` on a helper thread with a bounded join: a call that blocks
    behind a held fit fails the test instead of hanging it."""
    box = {}
    thread = threading.Thread(target=lambda: box.setdefault("result", fn(*args)))
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), f"{getattr(fn, '__name__', fn)} blocked behind the held fit"
    return box["result"]


def trainer_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("kv-trainer")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_operation_waits_for_a_held_fit(backend, tmp_path, gate):
    with gated_service(backend, tmp_path) as service:
        shard = service._shards[0]
        compressor = compressor_of(shard.backend)
        gate.hold()
        drifted = drift(service)
        assert gate.entered.acquire(timeout=WAIT)  # initial train
        assert gate.entered.acquire(timeout=WAIT), "drift never reached the trainer"
        # The fit is in flight and holds no lock: everything else proceeds.
        assert completes(service.get, "t:3") == TRAINED[3]
        assert completes(service.set, "during", DRIFTED[300]) > 0
        assert completes(service.mset, [("during:2", TRAINED[5]), ("during:3", DRIFTED[301])])
        assert completes(service.scan, "d:", "d;", 5) == sorted(drifted)[:5]
        completes(service.flush)
        snapshot = completes(service.snapshot)
        assert snapshot.retrain_events == 0 and compressor.current_epoch == 1
        assert shard.retrain_pending and len(trainer_threads()) == 1
        if backend == "tierbase":  # lsm re-encodes at the current epoch on read
            assert payload_epoch(shard.backend.get_compressed("during")) == 1
        gate.release()
        service.wait_for_retrains(timeout=WAIT)
        assert not shard.retrain_pending
        assert compressor.current_epoch == 2 and gate.fits == 2
        assert service.snapshot().retrain_events == 1
        monitor = shard.backend.lifecycle.monitor
        assert (monitor.values_seen, monitor.retraining_events) == (0, 1)
        # Written before, during and after the fit: every epoch still decodes.
        service.set("after", DRIFTED[302])
        assert service.mget(["t:3", "during", "during:2", "during:3", "after"]) == [
            TRAINED[3], DRIFTED[300], TRAINED[5], DRIFTED[301], DRIFTED[302],
        ]
        assert service.mget([key for key, _ in drifted]) == [value for _, value in drifted]


def test_one_fit_at_a_time_across_drifting_shards(gate):
    with gated_service("tierbase", None, shards=3) as service:
        gate.hold()
        drift(service, 400)  # ≥ 64 observations on every shard
        assert all(shard.retrain_pending for shard in service._shards)
        gate.release()
        service.wait_for_retrains(timeout=WAIT)
        assert gate.fits == 1 + 3 and gate.max_in_flight == 1
        assert epochs(service) == [2] * 3
        assert service.snapshot().retrain_events == 3
        assert len(trainer_threads()) == 1


def test_close_joins_the_running_fit_and_cancels_the_queue(gate):
    service = gated_service("tierbase", None, shards=3)
    gate.hold()
    drift(service, 400)
    assert gate.entered.acquire(timeout=WAIT) and gate.entered.acquire(timeout=WAIT)
    closer = threading.Thread(target=service.close)
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive(), "close() returned while a fit was still running"
    gate.release()
    closer.join(timeout=WAIT)
    assert not closer.is_alive() and service.closed
    assert gate.fits == 1 + 1, "queued fits must be cancelled, not run"
    assert sorted(epochs(service)) == [1, 1, 2]  # the running fit installed before the backends closed
    assert trainer_threads() == []
    with pytest.raises(ServiceError):
        service.wait_for_retrains()


def test_an_undrifted_service_never_starts_the_trainer(gate):
    with gated_service("tierbase", None, shards=2) as service:
        service.mset([(f"more:{index}", value) for index, value in enumerate(TRAINED)])
        assert service.snapshot().retrain_events == 0 and gate.fits == 1
        assert trainer_threads() == []
        service.wait_for_retrains(timeout=WAIT)  # nothing scheduled: returns at once


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failing_background_fit_is_reported_and_changes_nothing(backend, tmp_path, gate):
    with gated_service(backend, tmp_path) as service:
        shard = service._shards[0]
        compressor = compressor_of(shard.backend)
        gate.error = RuntimeError("fit exploded")
        drifted = drift(service)
        with pytest.raises(RuntimeError, match="fit exploded"):
            service.wait_for_retrains(timeout=WAIT)
        assert not shard.retrain_pending
        assert compressor.current_epoch == 1 and service.snapshot().retrain_events == 0
        keys = [f"t:{index}" for index in range(len(TRAINED))] + [key for key, _ in drifted]
        assert service.mget(keys) == TRAINED + [value for _, value in drifted]  # stored
        assert service.mget(keys[-8:]) == [value for _, value in drifted[-8:]]  # cached
        # The monitor was not reset, so the next write's drift check schedules again.
        gate.error = None
        service.set("again", DRIFTED[399])
        service.wait_for_retrains(timeout=WAIT)
        assert compressor.current_epoch == 2 and service.snapshot().retrain_events == 1
        assert service.mget(keys + ["again"]) == TRAINED + [v for _, v in drifted] + [DRIFTED[399]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failing_initial_train_installs_nothing(backend, tmp_path, gate):
    gate.error = RuntimeError("fit exploded")
    config = ServiceConfig(
        shard_count=3, backend=backend, compressor="pbc",
        directory=tmp_path if backend == "lsm" else None,
    )
    with KVService(config) as service:
        with pytest.raises(RuntimeError, match="fit exploded"):
            service.train(TRAINED)
        assert gate.fits == 1  # one fit per train, however many shards
        assert epochs(service) == [0] * 3
        assert all(s.model_epoch_age_seconds == 0.0 for s in service.shard_snapshots())
        with pytest.raises(ServiceError):
            service.train([])
        gate.error = None
        service.train(TRAINED)
        assert gate.fits == 2
        assert epochs(service) == [1] * 3
    with pytest.raises(ServiceError):
        service.train(TRAINED)  # closed


# ---------------------------------------------------- reads are not write drift


def test_reads_and_compaction_do_not_feed_the_write_drift_signal(tmp_path):
    """An lsm shard re-encodes every value it reads (cache fill) and every
    value a cold compaction rewrites.  Those used to count as *writes* in the
    outlier rate: reading values an older model wrote flagged drift, and under
    a reader the shard retrained in a loop."""
    old = load_dataset("kv1", count=300, seed=1)
    new = load_dataset("kv2", count=300, seed=1)
    shard = LSMShard(
        tmp_path, make_value_compressor("pbc"), memtable_bytes=4096, train_size=64,
        sync_mode="none", background_compaction=False,
    )
    try:
        shard.train(old[:64])
        shard.set_many([(f"old:{index:03d}", value) for index, value in enumerate(old)])
        assert not shard.needs_retraining()
        shard.set_many([(f"new:{index:03d}", value) for index, value in enumerate(new[:120])])
        assert shard.needs_retraining()  # real write drift: one retrain
        assert shard.retrain_from_recent() and shard._retrain_events == 1
        shard.set_many([(f"new:{index:03d}", value) for index, value in enumerate(new[120:], 120)])
        rate = shard.outlier_rate
        assert not shard.needs_retraining()
        # Any number of reads of values the old model wrote (the cache fill
        # carries the bytes a write would: a twin compressor is the witness)...
        twin = make_value_compressor("pbc")
        twin.load_models(shard.compressor.dump_models())
        for _ in range(2):
            for index, value in enumerate(old):
                assert shard.fetch(f"old:{index:03d}") == (value, twin.compress(value))
        assert twin.outlier_rate > 0.2  # what the reads used to add to the shard's rate
        assert shard.outlier_rate == rate and not shard.needs_retraining()
        # ...and a forced compaction into the cold (record-compressed) level.
        shard.engine.flush()
        shard.engine.compact()
        shard.engine.put("tail", old[0])
        shard.engine.flush()
        shard.engine.compact()
        assert max(table.level for table in shard.engine._tables) >= LSMShard.COLD_LEVEL
        assert shard.outlier_rate == rate and not shard.needs_retraining()
        assert shard._retrain_events == 1 and shard.compressor.current_epoch == 2
        assert shard.get("old:007") == old[7] and shard.get("new:200") == new[200]
    finally:
        shard.close()
