"""The five-phase run protocol, identical for every workload.

1. *set-up* — start the system, train, bulk-load in batches of 100, settle;
2. *warm-up* — 5 % of a depth-1 stream, untimed;
3. *latency* — the op stream at depth 1, 20 equal slices, every op timed and
   checked against the model;
4. *throughput* — point ops at depth 16, 20 equal slices, every result checked;
5. *verify + restart* — settle, full readback against the model, stop the
   system, then a fresh process on the persisted state timed to its first
   verified read.

One single-threaded closed loop drives all of it.  Op counts are fixed by
the plan (never by a clock), so two runs of the same seed do the same work.
The slices of phases 3 and 4 alternate (one depth-1 slice, one depth-16
slice, ...): each metric's 20 slices then span the whole measured window, so
a disturbance of the machine that lasts a few seconds lands in a minority of
them.  Set-up and restart are each done once per run: the time they would
take again is spent on longer measured phases.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import estimators
import proc
from systems import SCAN_RECORDS, CodecSystem, ServiceSystem, WireSystem, records_checksum

READ, WRITE, SCAN = 0, 1, 2
DEPTH = 16
LOAD_BATCH = SCAN_RECORDS
Op = tuple  # (kind, key, value or None)


@dataclass(frozen=True)
class Plan:
    """What one workload is: its system, sizes and traffic mix."""

    workload: str
    #: "codec" | "service" | "wire"
    system: str
    #: "tierbase" | "lsm" (unused by the codec system)
    backend: str
    datasets: tuple[str, ...]
    preload: int
    depth1_ops: int
    depth16_ops: int
    #: read / write / scan shares of the depth-1 stream.
    mix: tuple[float, float, float]
    #: share of writes that create a new key (the rest overwrite).
    insert_share: float
    #: how reads pick keys: "zipf", "latest" or "uniform".
    read_keys: str
    #: stop the system with SIGKILL and verify every acknowledged write after.
    kill: bool = False
    train_count: int = 512


@dataclass
class Inputs:
    """Everything generated from the seed; the system sees only these."""

    keys: list[str]
    #: ``values[i]`` is key ``i``'s preload value for ``i < preload``; later
    #: entries are the unseen records the write ops store, in order.
    values: list[str]
    training: list[str]
    warmup: list[Op]
    #: one list of ops per slice, in the order the slices run.
    depth1: list[list[Op]]
    depth16: list[list[Op]]


@dataclass
class Outcome:
    """A finished run: metrics by name, plus the contract's counters."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)


def make_system(plan: Plan, directory: Path, cpus: proc.CpuPlan):
    if plan.system == "codec":
        return CodecSystem(directory, len(plan.datasets))
    if plan.system == "service":
        return ServiceSystem(directory, plan.backend)
    return WireSystem(
        directory, plan.backend, plan.datasets[0], plan.train_count, cpus.server, plan.kill
    )


def utf8_bytes(values: Sequence[str]) -> int:
    return sum(len(value.encode("utf-8")) for value in values)


def _batched_rate(work: Sequence[float], seconds: Sequence[float]) -> float:
    """Slice-median rate over a series of timed batches."""
    bounds = estimators.slice_bounds(len(work), min(estimators.SLICES, len(work)))
    return estimators.slice_median_rate(
        [sum(work[start:end]) for start, end in bounds],
        [sum(seconds[start:end]) for start, end in bounds],
    )


def set_up(plan: Plan, inputs: Inputs, directory: Path, cpus: proc.CpuPlan):
    """Phase 1 once; returns ``(system, seconds, load MB/s)``."""
    system = make_system(plan, directory, cpus)
    values = inputs.values
    work, seconds = [], []
    try:
        started = time.perf_counter()
        system.start(inputs.keys, inputs.training)
        for first in range(0, plan.preload, LOAD_BATCH):
            batch = values[first : first + LOAD_BATCH]
            before = time.perf_counter()
            system.load(first, batch)
            seconds.append(time.perf_counter() - before)
            work.append(utf8_bytes(batch) / 1e6)
        system.settle()
        elapsed = time.perf_counter() - started
    except BaseException:
        system.discard()
        raise
    return system, elapsed, _batched_rate(work, seconds)


class Driver:
    """Phases 2–5 against one set-up system, with the dict model as oracle."""

    def __init__(self, inputs: Inputs, system, preload: int) -> None:
        self.inputs = inputs
        self.system = system
        self.model: dict[int, str] = dict(enumerate(inputs.values[:preload]))
        self.failed = 0
        self.attempted = 0
        #: per-class latencies in ns, in op order: reads, writes, scans.
        self.latencies: tuple[list[int], list[int], list[int]] = ([], [], [])
        self.calibration: list[float] = []

    def _expected_scan(self, key: int) -> list[tuple[str, str]]:
        keys, model = self.inputs.keys, self.model
        return [
            (keys[index], model[index])
            for index in range(key, min(key + SCAN_RECORDS, len(model)))
        ]

    def depth1_slice(self, ops: Sequence[Op]) -> float:
        """One op at a time, each timed and compared with the model; returns
        the slice's wall seconds."""
        system, model = self.system, self.model
        read, write, scan = system.read, system.write, system.scan
        reads, writes, scans = self.latencies
        clock = time.perf_counter_ns
        failed = 0
        started = clock()
        for kind, key, value in ops:
            try:
                if kind == READ:
                    before = clock()
                    got = read(key)
                    reads.append(clock() - before)
                    if got != model[key]:
                        failed += 1
                elif kind == WRITE:
                    before = clock()
                    write(key, value)
                    writes.append(clock() - before)
                    model[key] = value
                else:
                    before = clock()
                    got = scan(key)
                    scans.append(clock() - before)
                    if got != self._expected_scan(key):
                        failed += 1
            except Exception:  # an error or a refusal is a failed op
                failed += 1
        elapsed = (clock() - started) / 1e9
        self.failed += failed
        self.attempted += len(ops)
        return elapsed

    def depth16_slice(self, ops: Sequence[Op]) -> float:
        """Point ops in batches of :data:`DEPTH`, every result compared with
        the model; returns the slice's wall seconds."""
        model, batch = self.model, self.system.batch
        clock = time.perf_counter_ns
        failed = 0
        started = clock()
        for index in range(0, len(ops), DEPTH):
            group = ops[index : index + DEPTH]
            try:
                results = batch(group)
            except Exception:
                failed += len(group)
                continue
            for (_, key, value), got in zip(group, results):
                if value is None:
                    # .get: after a failed batch a key may be missing here.
                    if got != model.get(key):
                        failed += 1
                else:
                    model[key] = value
        elapsed = (clock() - started) / 1e9
        self.failed += failed
        self.attempted += len(ops)
        return elapsed

    def measure(self) -> tuple[list[float], list[float]]:
        """Phases 3 and 4, slices alternating; returns per-slice seconds."""
        depth1_seconds, depth16_seconds = [], []
        for single, batched in zip(self.inputs.depth1, self.inputs.depth16):
            depth1_seconds.append(self.depth1_slice(single))
            self.calibration.append(proc.calibration_ms())
            depth16_seconds.append(self.depth16_slice(batched))
            self.calibration.append(proc.calibration_ms())
        return depth1_seconds, depth16_seconds

    def readback(self) -> float:
        """Every key, in batches, against the model; returns MB/s."""
        model, system = self.model, self.system
        total = len(model)
        work, seconds = [], []
        for first in range(0, total, LOAD_BATCH):
            count = min(LOAD_BATCH, total - first)
            before = time.perf_counter()
            got = system.readback(first, count)
            seconds.append(time.perf_counter() - before)
            expected = [model[index] for index in range(first, first + count)]
            self.failed += sum(1 for a, b in zip(got, expected) if a != b)
            self.failed += abs(len(got) - count)
            work.append(utf8_bytes(expected) / 1e6)
        self.attempted += total
        return _batched_rate(work, seconds)


def _latency_metrics(outcome: Outcome, name: str, samples: list[int], unit: str) -> None:
    """Slice-median p50 and p95, pooled p99 and the maximum of one latency
    class.  A class with no sample (a rare kind at a very small
    ``--seconds``) reports nothing."""
    if not samples:
        return
    scale = 1e3 if unit == "us" else 1e6
    values = [value / scale for value in samples]
    median, _ = estimators.slice_median_percentile(values, 0.50)
    tail, _ = estimators.slice_median_percentile(values, 0.95)
    ordered = sorted(values)
    outcome.put(f"diag.{name}_p50_{unit}", median, unit, len(values))
    outcome.put(f"diag.{name}_p95_{unit}", tail, unit, len(values))
    outcome.put(f"diag.{name}_p99_{unit}", estimators.percentile(ordered, 0.99), unit,
                len(values))
    outcome.put(f"diag.{name}_max_ms", max(samples) / 1e6, "ms", len(values))


def run(plan: Plan, inputs: Inputs, work: Path, cpus: proc.CpuPlan) -> Outcome:
    """Run every phase; returns the outcome (metrics + failure counts)."""
    outcome = Outcome()
    system, setup_seconds, load_rate = set_up(plan, inputs, work / "system", cpus)
    try:
        driver = Driver(inputs, system, plan.preload)
        driver.attempted += plan.preload
        # Objects alive now (inputs, model) are long-lived: keep the cyclic
        # collector from rescanning them in the middle of a timed slice.
        gc.collect()
        gc.freeze()

        driver.depth1_slice(inputs.warmup)
        for series in driver.latencies:
            series.clear()
        pid = system.pid
        sut_before = proc.sample(pid)
        driver_cpu_before = time.process_time()
        measured_from = time.perf_counter()
        depth1_seconds, depth16_seconds = driver.measure()
        measured_seconds = time.perf_counter() - measured_from
        sut_after = proc.sample(pid)
        driver_cpu = time.process_time() - driver_cpu_before

        system.settle()
        readback_rate = driver.readback()
        model = driver.model
        user_bytes = utf8_bytes(list(model.values()))
        value_ratio = system.compression_ratio(user_bytes)
        sut_final = proc.sample(pid)
        system.stop()
        footprint = system.footprint()

        checksum = records_checksum([model[index] for index in range(len(model))])
        probe_key = plan.preload // 2
        # The crash workload must give back every acknowledged write.
        restart_seconds, wrong = system.restart(
            probe_key, model[probe_key], len(model), checksum,
            driver.readback if plan.kill else None,
        )
        driver.failed += wrong
        driver.attempted += 2
    finally:
        gc.unfreeze()
        system.discard()

    depth1_count, depth16_count = len(inputs.depth1[0]), len(inputs.depth16[0])
    depth1_rates = estimators.slice_rates([depth1_count] * len(depth1_seconds), depth1_seconds)
    depth16_rates = estimators.slice_rates([depth16_count] * len(depth16_seconds), depth16_seconds)
    measured_ops = (depth1_count + depth16_count) * len(depth1_seconds)
    reads, writes, scans = driver.latencies
    # In-process, the driver *is* the process under test.
    sut_cpu = driver_cpu if pid is None else sut_after.cpu_seconds - sut_before.cpu_seconds

    # End to end: the metrics that hold their bound over ten seeds on this box.
    outcome.put("setup_s", setup_seconds, "s", 1)
    outcome.put("compression_ratio", value_ratio, "x", len(model))
    outcome.put("peak_rss_mb", sut_final.peak_rss_mb, "MB", 1)

    # The user-visible timings.  Between two runs the speed of this box
    # drifts by 3-4 % (machine.calib_ms_med), which alone puts their quartile
    # spread over ten seeds at 0.03-0.09: too close to a bound of a tenth, so
    # by the benchmark's own rule they are diag.*, not end-to-end (README).
    outcome.put("diag.load_mb_s", load_rate, "MB/s", plan.preload // LOAD_BATCH)
    outcome.put("diag.readback_mb_s", readback_rate, "MB/s", len(model))
    outcome.put("diag.ops_s", statistics.median(depth16_rates), "ops/s", len(depth16_rates))
    _latency_metrics(outcome, "read", reads, "us")
    _latency_metrics(outcome, "write", writes, "us")
    _latency_metrics(outcome, "scan", scans, "ms")
    outcome.put("diag.cpu_ms_per_op", sut_cpu * 1e3 / measured_ops, "ms", measured_ops)
    outcome.put("diag.restart_s", restart_seconds, "s", 1)
    outcome.put("diag.ops_s_pooled",
                estimators.pooled_rate([depth16_count] * len(depth16_seconds), depth16_seconds),
                "ops/s", depth16_count * len(depth16_seconds))
    outcome.put("diag.depth1_ops_s", statistics.median(depth1_rates), "ops/s", len(depth1_rates))
    outcome.put("diag.slice_cov", estimators.coefficient_of_variation(depth16_rates), "share",
                len(depth16_rates))
    outcome.put("diag.measured_s", measured_seconds, "s", 1)
    # What the stopped system left on disk; on LSM it depends on which merges
    # the background compactor got to, so it does not repeat within a tenth.
    outcome.put("diag.disk_ratio", user_bytes / footprint, "x", len(model))
    outcome.put("net.pipeline_gain",
                statistics.median(depth16_rates) / statistics.median(depth1_rates), "x",
                len(depth16_rates))
    outcome.put("proc.sut_cpu_s", sut_cpu, "s", 1)
    outcome.put("proc.driver_cpu_s", driver_cpu, "s", 1)
    outcome.put("proc.sut_rss_mb", sut_final.rss_mb, "MB", 1)
    outcome.put("proc.ctx_voluntary", sut_after.ctx_voluntary - sut_before.ctx_voluntary,
                "count", 1)
    outcome.put("proc.ctx_involuntary", sut_after.ctx_involuntary - sut_before.ctx_involuntary,
                "count", 1)
    outcome.put("proc.io_write_mb", (sut_after.write_chars - sut_before.write_chars) / 1e6,
                "MB", 1)
    for name, value in proc.calibration_summary(driver.calibration).items():
        outcome.put(name, value, "share" if name.endswith("share") else "ms",
                    len(driver.calibration))
    outcome.attempted = driver.attempted
    outcome.failed = driver.failed
    return outcome
