"""The three systems under test, behind one driver-facing surface.

The protocol in :mod:`protocol` drives every workload through the same six
verbs — ``read``, ``write``, ``scan``, ``load``, ``batch``, ``readback`` —
plus lifecycle (``start``/``settle``/``stop``/``restart``).  Each class here
maps those verbs onto public entry points only:

* :class:`CodecSystem` — trained ``pbc_f`` record coders, no store, no socket;
* :class:`ServiceSystem` — an in-process :class:`repro.service.KVService`;
* :class:`WireSystem` — :class:`repro.net.KVClient` against a real
  ``repro serve`` subprocess.

Keys are integers here (``0 .. n``); the store-backed systems translate them
through one shared, precomputed list of zero-padded key strings so ordered
scans and integer order agree.
"""

from __future__ import annotations

import json
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Sequence

import proc

#: records per scan; also the load and readback batch size.
SCAN_RECORDS = 100
SHARDS = 2
CACHE_ENTRIES = 1024
COMPRESSOR = "pbc_f"
SETTLE_TIMEOUT = 60.0
RESTART_TIMEOUT = 120.0
PROBE = Path(__file__).resolve().parent / "restart_probe.py"

Pairs = list[tuple[str, str]]


def key_names(count: int) -> list[str]:
    """Zero-padded keys: lexicographic order equals integer order."""
    return [f"k{index:08d}" for index in range(count)]


def records_checksum(records: Sequence[str]) -> int:
    """CRC32 over a record sequence (how a restart probe proves a full decode)."""
    crc = 0
    for record in records:
        crc = zlib.crc32(record.encode("utf-8"), crc)
    return crc


def write_codec_state(path: Path, models: Sequence[bytes], payloads: Sequence[bytes]) -> None:
    """Serialised models, then payloads, each length-prefixed: the state a
    stopped :class:`CodecSystem` leaves for a fresh process."""
    with open(path, "wb") as out:
        out.write(struct.pack("<II", len(models), len(payloads)))
        for blob in (*models, *payloads):
            out.write(struct.pack("<I", len(blob)))
            out.write(blob)


def read_codec_state(path: Path) -> tuple[list[bytes], list[bytes]]:
    """``(models, payloads)`` as :func:`write_codec_state` wrote them."""
    data = path.read_bytes()
    models, payloads = struct.unpack_from("<II", data, 0)
    offset = 8
    blobs = []
    for _ in range(models + payloads):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        blobs.append(data[offset : offset + length])
        offset += length
    return blobs[:models], blobs[models:]


def _run_probe(arguments: list[str]) -> tuple[float, dict]:
    """Spawn ``restart_probe.py`` and time it to its first answer line.

    The probe keeps running (closing the store) after it has answered; the
    clock stops at the answer, the child is always reaped.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(PROBE), *arguments],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        cwd=proc.ROOT,
        env=proc.child_environment(),
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.communicate(timeout=RESTART_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"restart probe failed with code {child.returncode}")
    return elapsed, json.loads(line)


# ---------------------------------------------------------------- codec system


class CodecSystem:
    """The paper's hot loop: one trained ``pbc_f`` coder per dataset.

    Record ``i`` belongs to dataset ``i % len(datasets)`` (the records are
    interleaved), so the coder of a key is known from the key alone.
    """

    pid = None

    def __init__(self, directory: Path, datasets: int) -> None:
        directory.mkdir(parents=True)
        self.directory = directory
        self.state_path = directory / "codec-state.bin"
        self.datasets = datasets
        self.keys: list[str] = []
        self.models: list[bytes] = []
        self.coders: list = []
        self.payloads: list[bytes] = []

    def start(self, keys: list[str], training: Sequence[str]) -> None:
        from repro.codecs import codec_by_name

        codec = codec_by_name(COMPRESSOR)
        self.keys = keys
        self.models = [
            codec.train(list(training[offset :: self.datasets]))
            for offset in range(self.datasets)
        ]
        self.coders = [codec.record_coder(model) for model in self.models]

    def load(self, first: int, values: Sequence[str]) -> None:
        coders, datasets = self.coders, self.datasets
        self.payloads.extend(
            coders[(first + index) % datasets].compress(value)
            for index, value in enumerate(values)
        )

    def settle(self) -> None:
        pass

    def read(self, key: int) -> str:
        return self.coders[key % self.datasets].decompress(self.payloads[key])

    def write(self, key: int, value: str) -> None:
        payload = self.coders[key % self.datasets].compress(value)
        if key == len(self.payloads):
            self.payloads.append(payload)
        else:
            self.payloads[key] = payload

    def scan(self, key: int) -> Pairs:
        coders, datasets, payloads = self.coders, self.datasets, self.payloads
        end = min(key + SCAN_RECORDS, len(payloads))
        return [
            (self.keys[index], coders[index % datasets].decompress(payloads[index]))
            for index in range(key, end)
        ]

    def batch(self, ops: Sequence[tuple]) -> list:
        return [
            self.read(key) if value is None else self.write(key, value)
            for _, key, value in ops
        ]

    def readback(self, first: int, count: int) -> list[str]:
        coders, datasets, payloads = self.coders, self.datasets, self.payloads
        return [
            coders[index % datasets].decompress(payloads[index])
            for index in range(first, first + count)
        ]

    def compression_ratio(self, user_bytes: int) -> float:
        return user_bytes / sum(map(len, self.payloads))

    def stop(self) -> None:
        """Persist models and payloads: the state a fresh process restarts on."""
        write_codec_state(self.state_path, self.models, self.payloads)

    def footprint(self) -> int:
        return self.state_path.stat().st_size

    def restart(self, key, expected, keys, checksum, verify=None) -> tuple[float, int]:
        """A fresh process loads the models and decodes every payload."""
        elapsed, answer = _run_probe(["codec", str(self.state_path), str(key)])
        wrong = int(answer["first"] != expected)
        wrong += int(answer["keys"] != keys) + int(answer["checksum"] != checksum)
        return elapsed, wrong

    def discard(self) -> None:
        self.payloads = []
        proc.remove_tree(self.directory)


# -------------------------------------------------------------- service system


def open_service(directory: Path, backend: str):
    """The service configuration shared by the embedded workload, the
    ladder's service rung and the restart probe (defaults otherwise:
    ``sync_mode="flush"``, background compaction on)."""
    from repro.service import KVService, ServiceConfig

    return KVService(
        ServiceConfig(
            shard_count=SHARDS,
            backend=backend,
            compressor=COMPRESSOR,
            directory=directory,
            cache_entries=CACHE_ENTRIES,
        )
    )


class ServiceSystem:
    """An in-process :class:`KVService` on a directory of the work dir."""

    pid = None

    def __init__(self, directory: Path, backend: str) -> None:
        directory.mkdir(parents=True)
        self.backend = backend
        self.directory = directory
        self.keys: list[str] = []
        self.service = None

    def start(self, keys: list[str], training: Sequence[str]) -> None:
        self.keys = keys
        self.service = open_service(self.directory, self.backend)
        self.service.train(list(training))

    def load(self, first: int, values: Sequence[str]) -> None:
        keys = self.keys
        self.service.mset([(keys[first + index], value) for index, value in enumerate(values)])

    def settle(self) -> None:
        deadline = time.monotonic() + SETTLE_TIMEOUT
        while any(
            shard.pending_compaction_bytes for shard in self.service.shard_snapshots()
        ):
            if time.monotonic() > deadline:
                raise RuntimeError("compaction backlog did not drain")
            time.sleep(0.05)

    def read(self, key: int) -> str | None:
        return self.service.get(self.keys[key])

    def write(self, key: int, value: str) -> None:
        self.service.set(self.keys[key], value)

    def scan(self, key: int) -> Pairs:
        return self.service.scan(self.keys[key], None, SCAN_RECORDS)

    def batch(self, ops: Sequence[tuple]) -> list:
        get, put, keys = self.service.get, self.service.set, self.keys
        results = []
        for _, key, value in ops:
            if value is None:
                results.append(get(keys[key]))
            else:
                put(keys[key], value)
                results.append(None)
        return results

    def readback(self, first: int, count: int) -> list[str | None]:
        return self.service.mget(self.keys[first : first + count])

    def cache_hit_share(self) -> float:
        return self.service.cache.stats().hit_rate

    def compression_ratio(self, user_bytes: int) -> float:
        """By the shards' own accounting of the value bytes they were given."""
        return 1.0 / self.service.snapshot().ratio

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def footprint(self) -> int:
        return proc.directory_bytes(self.directory)

    def restart(self, key, expected, keys, checksum, verify=None) -> tuple[float, int]:
        """A fresh process reopens the directory, reads one key, counts keys."""
        elapsed, answer = _run_probe(
            ["service", str(self.directory), self.backend, self.keys[key]]
        )
        return elapsed, int(answer["first"] != expected) + int(answer["keys"] != keys)

    def discard(self) -> None:
        self.stop()
        proc.remove_tree(self.directory)


# ----------------------------------------------------------------- wire system


class WireSystem:
    """``KVClient`` (one connection) against a ``repro serve`` subprocess."""

    def __init__(
        self, directory: Path, backend: str, train_dataset: str, train_count: int,
        cpus: tuple[int, ...], kill: bool,
    ) -> None:
        directory.mkdir(parents=True)
        self.backend = backend
        self.kill = kill
        self.directory = directory / "data"
        self.arguments = [
            "--backend", backend, "--compressor", COMPRESSOR, "--shards", str(SHARDS),
            "--cache-entries", str(CACHE_ENTRIES), "--data-dir", str(self.directory),
            "--train-dataset", train_dataset, "--train-count", str(train_count),
        ]
        self.server = proc.ServerProcess(self.arguments, directory / "serve.log", cpus)
        self.root = directory
        self.client = None
        self.keys: list[str] = []

    @property
    def pid(self) -> int:
        return self.server.pid

    def _connect(self) -> None:
        from repro.net import KVClient

        self.client = KVClient(self.server.host, self.server.port, pool_size=1, timeout=60.0)

    def start(self, keys: list[str], training: Sequence[str]) -> None:
        # The server trains itself (``--train-dataset``/``--train-count``): no
        # wire verb installs a model, and it must never see the seed.
        del training
        self.keys = keys
        self.server.start()
        self._connect()

    def load(self, first: int, values: Sequence[str]) -> None:
        keys = self.keys
        self.client.mset([(keys[first + index], value) for index, value in enumerate(values)])

    def _gauge_sum(self, name: str) -> float:
        total = 0.0
        for line in self.client.metrics().splitlines():
            if line.startswith(name) and line[len(name)] in " {":
                total += float(line.rsplit(" ", 1)[1])
        return total

    def settle(self) -> None:
        if self.backend != "lsm":
            return
        deadline = time.monotonic() + SETTLE_TIMEOUT
        while self._gauge_sum("repro_shard_pending_compaction_bytes"):
            if time.monotonic() > deadline:
                raise RuntimeError("compaction backlog did not drain")
            time.sleep(0.05)

    def read(self, key: int) -> str | None:
        return self.client.get(self.keys[key])

    def write(self, key: int, value: str) -> None:
        self.client.set(self.keys[key], value)

    def scan(self, key: int) -> Pairs:
        return list(self.client.scan(self.keys[key], None, SCAN_RECORDS))

    def batch(self, ops: Sequence[tuple]) -> list:
        pipeline, keys = self.client.pipeline(), self.keys
        for _, key, value in ops:
            if value is None:
                pipeline.get(keys[key])
            else:
                pipeline.set(keys[key], value)
        return pipeline.execute()

    def readback(self, first: int, count: int) -> list[str | None]:
        return self.client.mget(self.keys[first : first + count])

    def ping(self) -> None:
        self.client.ping()

    def compression_ratio(self, user_bytes: int) -> float:
        return 1.0 / float(self.client.stats()["ratio"])

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        self.server.stop(graceful=not self.kill)

    def footprint(self) -> int:
        return proc.directory_bytes(self.directory)

    def restart(self, key, expected, keys, checksum, verify=None) -> tuple[float, int]:
        """A fresh server on the persisted directory: time to the first
        verified read plus the key-count check; ``verify`` (the full
        durability readback) runs untimed before it is stopped again."""
        started = time.perf_counter()
        self.server.start()
        try:
            self._connect()
            wrong = int(self.client.get(self.keys[key]) != expected)
            wrong += int(self.client.stats()["keys"] != keys)
            elapsed = time.perf_counter() - started
            if verify is not None:
                verify()
        finally:
            self.stop()
        return elapsed, wrong

    def discard(self) -> None:
        self.kill = True
        self.stop()
        proc.remove_tree(self.root)
