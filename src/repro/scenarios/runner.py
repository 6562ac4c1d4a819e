"""Drive the scenario mixes through the one load driver.

:func:`run_scenario` preloads a record space, then hands a mix-specific
operation callback to :func:`repro.loadgen.run_load` at an open-loop rate —
so every scenario inherits the open-loop discipline (global arrival
timetable, per-index deterministic RNG, latency measured from the
*scheduled* release) on whatever transport ``connect()`` returns.  The
callback does double duty as a correctness check: every read and scan goes
through the driver's :class:`~repro.loadgen.Oracle` (value universe, scan
ordering, completeness against the acknowledged record count), and the
per-mix row reports the ``lost`` / ``corrupt`` / ``unordered`` tallies that
the scenario suite (and CI) assert are zero.

Keys are zero-padded decimal indexes (``y00000042``) so lexicographic
order equals insert order — which is what lets a scan's completeness be
checked against a simple contiguous counter.  Inserts reserve an index
first, write, then acknowledge; the *visible* count only advances over a
contiguous prefix of acknowledged inserts (YCSB's acknowledged-counter
scheme), so readers and scanners never expect a key whose write has not
finished.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.datasets import load_dataset
from repro.loadgen import LoadResult, Oracle, per_worker, preload, run_load
from repro.net.client import KVClient
from repro.net.server import KVServer, ServerConfig
from repro.scenarios.keydist import make_chooser
from repro.scenarios.mixes import ScenarioSpec, get_scenario, scenario_names
from repro.service.service import KVService, ServiceConfig

__all__ = ["ScenarioResult", "run_scenario", "run_suite", "KEY_PREFIX", "key_for"]

#: Shared key namespace; zero-padded so lexicographic order == insert order.
KEY_PREFIX = "y"
_KEY_DIGITS = 8


def key_for(index: int) -> str:
    """The wire key for record ``index`` (sorts in insert order)."""
    return f"{KEY_PREFIX}{index:0{_KEY_DIGITS}d}"


class _Accounting:
    """Thread-safe record counter plus scan-size tallies.

    ``visible`` is the acknowledged-contiguous record count: an insert
    reserves the next index, writes the record, then acknowledges it —
    and ``visible`` only advances across a gap-free prefix, so every
    index below ``visible`` is guaranteed written.
    """

    def __init__(self, initial_records: int) -> None:
        self._lock = threading.Lock()
        self.visible = initial_records
        self._next = initial_records
        self._pending: set[int] = set()
        self.scan_items = 0
        self.max_scan_items = 0

    def reserve_insert(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index

    def acknowledge_insert(self, index: int) -> None:
        with self._lock:
            self._pending.add(index)
            while self.visible in self._pending:
                self._pending.remove(self.visible)
                self.visible += 1

    def snapshot_visible(self) -> int:
        with self._lock:
            return self.visible

    def record_scan(self, items: int) -> None:
        with self._lock:
            self.scan_items += items
            self.max_scan_items = max(self.max_scan_items, items)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: the load result (driver stats + oracle
    tallies) plus the record-space bookkeeping only a scenario has."""

    scenario: str
    backend: str
    load: LoadResult
    #: acknowledged record count when the run finished.
    records: int
    scan_items: int = 0
    max_scan_items: int = 0

    @property
    def clean(self) -> bool:
        """True when the correctness oracle saw zero anomalies."""
        return self.load.clean

    def row(self) -> dict:
        """One machine-readable per-mix row (JSON-serialisable)."""
        load = self.load
        scans = load.counts.get("SCAN", 0)
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "operations": load.completed,
            "errors": load.errors,
            "offered_rate": round(load.rate or 0.0, 1),
            "achieved_rate": round(load.ops_per_second, 1),
            "p50_ms": round(load.latency_ms(0.50), 3),
            "p95_ms": round(load.latency_ms(0.95), 3),
            "p99_ms": round(load.latency_ms(0.99), 3),
            "ops": dict(sorted(load.counts.items())),
            "error_kinds": dict(sorted(load.error_kinds.items())),
            "scan_count": scans,
            "scan_items": self.scan_items,
            "avg_scan_len": round(self.scan_items / scans, 2) if scans else 0.0,
            "max_scan_len": self.max_scan_items,
            "records": self.records,
            "lost": load.lost,
            "corrupt": load.corrupt,
            "unordered": load.unordered,
        }


def _build_operation(spec: ScenarioSpec, values: Sequence[str], accounting: _Accounting):
    """The per-operation callback handed to :func:`repro.loadgen.run_load`."""
    chooser = make_chooser(spec.distribution)
    oracle = Oracle(values)
    # Cumulative fraction ladder: read | update | insert | scan | rmw.
    c_read = spec.read
    c_update = c_read + spec.update
    c_insert = c_update + spec.insert
    c_scan = c_insert + spec.scan

    def operation(target, rng, index: int) -> tuple[str, int]:
        draw = rng.random()
        visible = accounting.snapshot_visible()
        if draw < c_read:
            oracle.check_value(target.get(key_for(chooser.choose(rng, visible))))
            return "READ", 1
        if draw < c_update:
            key = key_for(chooser.choose(rng, visible))
            target.set(key, values[rng.randrange(len(values))])
            return "UPDATE", 1
        if draw < c_insert:
            reserved = accounting.reserve_insert()
            target.set(key_for(reserved), values[reserved % len(values)])
            accounting.acknowledge_insert(reserved)
            return "INSERT", 1
        if draw < c_scan:
            length = rng.randint(1, spec.max_scan_length)
            start = chooser.choose(rng, visible)
            results = list(
                target.scan(key_for(start), key_for(start + length), limit=length)
            )
            # Inserts never delete, so the range [start, start+length)
            # holds at least min(length, visible-at-pick - start) records.
            oracle.check_scan(results, min(length, max(visible - start, 0)), length)
            accounting.record_scan(len(results))
            return "SCAN", 1
        key = key_for(chooser.choose(rng, visible))
        oracle.check_value(target.get(key))
        target.set(key, values[rng.randrange(len(values))])
        return "RMW", 1

    operation.oracle = oracle
    return operation


def run_scenario(
    scenario: str | ScenarioSpec,
    connect: Callable[[], object],
    *,
    backend: str = "",
    operations: int = 512,
    rate: float = 2000.0,
    workers: int = 4,
    records: int = 256,
    value_count: int = 256,
    seed: int = 2023,
) -> ScenarioResult:
    """Run one scenario mix against whatever ``connect()`` returns."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if records < 1:
        raise ValueError("records must be at least 1")
    values = load_dataset(spec.dataset, count=value_count, seed=seed)
    preload(connect(), [key_for(index) for index in range(records)], values)
    accounting = _Accounting(records)
    load = run_load(
        connect,
        _build_operation(spec, values, accounting),
        operations,
        workers,
        rate=rate,
        seed=seed,
    )
    return ScenarioResult(
        scenario=spec.name,
        backend=backend,
        load=load,
        records=accounting.snapshot_visible(),
        scan_items=accounting.scan_items,
        max_scan_items=accounting.max_scan_items,
    )


def run_suite(
    scenarios: Sequence[str] | None = None,
    backends: Sequence[str] = ("tierbase", "lsm"),
    *,
    operations: int = 512,
    rate: float = 2000.0,
    workers: int = 4,
    records: int = 256,
    value_count: int = 256,
    seed: int = 2023,
    shard_count: int = 2,
    compressor: str = "pbc_f",
    timeout: float = 30.0,
) -> list[ScenarioResult]:
    """Run the mix matrix against in-process servers, one per backend.

    Each backend gets a fresh :class:`KVService` behind a
    :class:`KVServer`; each scenario gets its own service so the
    mixes cannot contaminate each other's key space.  Returns the results
    in ``backends × scenarios`` order.
    """
    names = list(scenarios) if scenarios else scenario_names()
    results: list[ScenarioResult] = []
    for backend in backends:
        for name in names:
            with tempfile.TemporaryDirectory(prefix="repro-scenario-") as directory:
                config = ServiceConfig(
                    shard_count=shard_count,
                    backend=backend,
                    compressor=compressor,
                    directory=directory if backend == "lsm" else None,
                )
                service = KVService(config)
                try:
                    if compressor != "none":
                        # Trainable codecs need a pattern dictionary before
                        # the first write; train on the mix's own dataset
                        # (drift retraining takes over from there).
                        spec = get_scenario(name)
                        service.train(
                            load_dataset(spec.dataset, count=value_count, seed=seed)
                        )
                    with KVServer(service, ServerConfig(port=0)) as server:
                        host, port = server.address
                        with per_worker(
                            lambda: KVClient(host, port, pool_size=1, timeout=timeout)
                        ) as connect:
                            result = run_scenario(
                                name,
                                connect,
                                backend=backend,
                                operations=operations,
                                rate=rate,
                                workers=workers,
                                records=records,
                                value_count=value_count,
                                seed=seed,
                            )
                        results.append(result)
                finally:
                    service.close()
    return results
