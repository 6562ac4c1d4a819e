"""Evidence-grade perf harness: experiment grids → committed ``BENCH_*.json``.

ROADMAP item 3's shape (after the run-table exemplars in SNIPPETS.md): a
**declared** experiment grid fills a flat run table — one row per
(cell, repetition) with throughput, latency percentiles and correctness
tallies — plus an environment fingerprint, so any analysis can be rebuilt
from the JSON alone and any two JSONs can be diffed by machine.

Two areas are registered:

* ``wire`` — closed-loop :func:`repro.loadgen.run_load` cells (the fixed
  GET/SET mix) over a live :class:`~repro.net.server.ThreadedKVServer`,
  spanning value codec × pipeline depth (0 = server-side MGET/MSET
  batching).  Latency percentiles are amortised round-trip times
  (``clock: "round-trip"``).
* ``service`` — open-loop YCSB scenario cells
  (:func:`repro.scenarios.runner.run_suite`), spanning backend × workload
  mix.  Latency percentiles are measured from each operation's *scheduled*
  release (``clock: "scheduled-release"``), so queueing under overload is
  visible, and the scenario oracle's lost/corrupt tallies ride along.

The committed documents also carry the speed campaign's **before/after
optimization pairs** under ``optimizations``.  Those are frozen history: a
pair is measured once, at the PR that lands the optimization, against the
parent commit — new documents carry none, and validation accepts both.

:func:`compare_documents` is the regression gate: cells are matched by
their dimension values, repetitions are averaged, and any cell whose
throughput drops by more than the threshold (or that disappeared) fails
the comparison.  CI runs a smoke grid and compares against the committed
baseline with a generous threshold (shared runners are noisy); local runs
can use a tight one.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.exceptions import ReproError

__all__ = [
    "AREAS",
    "BenchHarnessError",
    "ExperimentGrid",
    "PROFILE_TARGETS",
    "SCHEMA",
    "area_names",
    "compare_documents",
    "default_output_path",
    "env_fingerprint",
    "get_area",
    "load_document",
    "profile_target",
    "run_area",
    "validate_document",
]

#: schema marker stamped into (and required from) every benchmark document.
SCHEMA = "repro-bench/1"

#: metric keys present in every run-table row (beyond the cell dimensions).
ROW_METRIC_KEYS = (
    "repetition",
    "ops_per_second",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "lost",
    "corrupt",
    "clock",
)

#: required keys of the document envelope.
DOCUMENT_KEYS = ("schema", "area", "created_unix", "env", "config", "rows")

#: required keys of the environment fingerprint.
ENV_KEYS = ("python", "platform", "cpu_count", "git_sha")

#: required keys of one (frozen) optimization before/after pair.
PAIR_KEYS = ("name", "metric", "before", "after", "improvement")


class BenchHarnessError(ReproError):
    """A malformed benchmark document or an impossible comparison."""


# ----------------------------------------------------------------------- grid


@dataclass(frozen=True)
class ExperimentGrid:
    """A declared experiment area: dimensions × fixed base knobs.

    ``dimensions`` maps dimension name → the tuple of values it sweeps; the
    run table contains one row per element of the cartesian product per
    repetition.  ``base`` holds the fixed workload knobs (operation count,
    offered rate, …) that :func:`run_area` may override — scaling the
    workload down for a CI smoke run changes the *load*, never the cells,
    so a smoke table stays comparable against a committed baseline.
    """

    name: str
    description: str
    kind: str  # "closed_wire" | "open_scenario"
    dimensions: Mapping[str, tuple]
    base: Mapping[str, object] = field(default_factory=dict)

    def cells(self) -> list[dict]:
        """The cartesian product of :attr:`dimensions`, in declared order."""
        names = list(self.dimensions)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.dimensions[name] for name in names))
        ]

    def summary_row(self) -> dict:
        """One row for ``repro bench list``."""
        return {
            "area": self.name,
            "kind": self.kind,
            "cells": len(self.cells()),
            "dimensions": ", ".join(
                f"{name}={'/'.join(str(value) for value in values)}"
                for name, values in self.dimensions.items()
            ),
            "description": self.description,
        }


AREAS: dict[str, ExperimentGrid] = {
    grid.name: grid
    for grid in (
        ExperimentGrid(
            name="wire",
            description="RKV1 wire throughput: codec × pipeline depth, closed loop",
            kind="closed_wire",
            dimensions={"codec": ("none", "pbc_f"), "pipeline_depth": (0, 8)},
            base={
                "backend": "tierbase",
                "shards": 2,
                "sync_mode": "flush",
                "operations": 600,
                "values": 256,
                "clients": 2,
                "batch_size": 8,
                "get_fraction": 0.7,
                "dataset": "kv1",
                "seed": 2023,
            },
        ),
        ExperimentGrid(
            name="service",
            description="YCSB mixes over the full stack: backend × mix × shards, open loop",
            kind="open_scenario",
            dimensions={
                "backend": ("tierbase", "lsm"),
                "mix": ("ycsb_a", "ycsb_b"),
                "shards": (1, 4),
            },
            base={
                "codec": "pbc_f",
                "sync_mode": "flush",
                "shards": 2,
                "operations": 512,
                "rate": 2000.0,
                "workers": 4,
                "records": 256,
                "values": 256,
                "seed": 2023,
            },
        ),
        ExperimentGrid(
            name="sustained",
            description="sustained-write flatness: compaction mode, open-loop paced puts",
            kind="sustained_write",
            dimensions={"compaction": ("legacy", "inline", "background")},
            base={
                "seconds": 20.0,
                "window_seconds": 5.0,
                "warmup_seconds": 10.0,
                # modest offered rate: the claim is that background merges
                # run in the pacing *headroom*, so the grid offers a rate the
                # engine can absorb while a merge holds the GIL on one CPU —
                # the legacy mode still fails because its synchronous merge
                # blocks the writer entirely, at any offered rate.
                "rate": 1200.0,
                "value_bytes": 256,
                # effectively-unique keys: the store grows over the run, so
                # the legacy write-path merge's O(store) pauses lengthen —
                # the behavior the flatness score exists to expose.
                "keyspace": 1 << 30,
                "memtable_bytes": 512 * 1024,
                "compaction_trigger": 4,
                "sync_mode": "none",
                "seed": 2023,
            },
        ),
    )
}

def area_names() -> list[str]:
    """Registered area names, in registration order."""
    return list(AREAS)


def get_area(name: str) -> ExperimentGrid:
    """Return the grid registered under ``name``."""
    if name not in AREAS:
        raise BenchHarnessError(
            f"unknown bench area {name!r}; available: {area_names()}"
        )
    return AREAS[name]


def default_output_path(area: str, directory: str | Path = ".") -> Path:
    """The committed location of an area's document: ``BENCH_<area>.json``."""
    return Path(directory) / f"BENCH_{area}.json"


# ---------------------------------------------------------------- fingerprint


def env_fingerprint() -> dict:
    """Where this table was measured: interpreter, machine shape, commit."""
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha or "unknown",
    }


# ---------------------------------------------------------------- cell runners


def _run_wire_cell(cell: Mapping, base: Mapping) -> dict:
    """One closed-loop wire run against a fresh in-process server."""
    from repro.datasets import load_dataset
    from repro.loadgen import default_keys, mixed_operation, per_worker, preload, run_load
    from repro.net.client import KVClient
    from repro.net.server import ServerConfig, ThreadedKVServer
    from repro.service.service import KVService, ServiceConfig

    backend = str(cell.get("backend", base["backend"]))
    codec = str(cell.get("codec", base.get("codec", "pbc_f")))
    values = load_dataset(str(base["dataset"]), count=int(base["values"]), seed=int(base["seed"]))
    keys = default_keys(len(values))
    depth = int(cell["pipeline_depth"])
    operation, calls = mixed_operation(
        keys,
        values,
        int(base["operations"]),
        get_fraction=float(base["get_fraction"]),
        batch=depth or int(base["batch_size"]),
        pipeline=depth > 0,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
        config = ServiceConfig(
            shard_count=int(cell.get("shards", base["shards"])),
            backend=backend,
            compressor=codec,
            sync_mode=str(cell.get("sync_mode", base["sync_mode"])),
            directory=directory if backend == "lsm" else None,
        )
        service = KVService(config)
        try:
            if codec != "none":
                service.train(values)
            with ThreadedKVServer(service, ServerConfig(port=0)) as server:
                host, port = server.address
                with per_worker(lambda: KVClient(host, port, pool_size=1)) as connect:
                    preload(connect(), keys, values)
                    result = run_load(
                        connect, operation, calls, int(base["clients"]), seed=int(base["seed"])
                    )
        finally:
            service.close()
    return {
        "ops_per_second": round(result.ops_per_second, 1),
        "p50_ms": round(result.latency_ms(0.50), 3),
        "p95_ms": round(result.latency_ms(0.95), 3),
        "p99_ms": round(result.latency_ms(0.99), 3),
        "lost": result.lost,
        "corrupt": result.corrupt,
        "clock": "round-trip",
    }


def _run_scenario_cell(cell: Mapping, base: Mapping) -> dict:
    """One open-loop YCSB scenario run through the scenario suite."""
    from repro.scenarios.runner import run_suite

    results = run_suite(
        [str(cell["mix"])],
        backends=(str(cell.get("backend", base.get("backend", "tierbase"))),),
        operations=int(base["operations"]),
        rate=float(base["rate"]),
        workers=int(base["workers"]),
        records=int(base["records"]),
        value_count=int(base["values"]),
        seed=int(base["seed"]),
        shard_count=int(cell.get("shards", base["shards"])),
        compressor=str(cell.get("codec", base["codec"])),
    )
    row = results[0].row()
    return {
        "ops_per_second": row["achieved_rate"],
        "p50_ms": row["p50_ms"],
        "p95_ms": row["p95_ms"],
        "p99_ms": row["p99_ms"],
        "lost": row["lost"],
        "corrupt": row["corrupt"],
        "clock": "scheduled-release",
    }


def _run_sustained_cell(cell: Mapping, base: Mapping) -> dict:
    """One sustained-write flatness run against a fresh bare LSM engine."""
    from repro.bench.sustained import run_sustained_write

    if float(base["seconds"]) <= 0:
        raise BenchHarnessError("sustained run needs a positive --seconds")
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
        result = run_sustained_write(
            directory,
            mode=str(cell.get("compaction", "background")),
            seconds=float(base["seconds"]),
            window_seconds=float(base["window_seconds"]),
            warmup_seconds=float(base["warmup_seconds"]),
            rate=float(base["rate"]),
            value_bytes=int(base["value_bytes"]),
            keyspace=int(base["keyspace"]),
            memtable_bytes=int(base["memtable_bytes"]),
            compaction_trigger=int(base["compaction_trigger"]),
            sync_mode=str(base["sync_mode"]),
            seed=int(base["seed"]),
        )
    return {
        "ops_per_second": round(result.ops_per_second, 1),
        "p50_ms": round(result.p50_ms, 3),
        "p95_ms": round(result.p95_ms, 3),
        "p99_ms": round(result.p99_ms, 3),
        "lost": 0,
        "corrupt": 0,
        "clock": "scheduled-release",
        "offered_rate": result.offered_rate,
        "windows": [round(rate, 1) for rate in result.windows],
        "flatness": round(result.flatness, 4),
        "stall_seconds": round(result.stall_seconds, 3),
        "compactions": result.compactions,
    }


_CELL_RUNNERS: dict[str, Callable[[Mapping, Mapping], dict]] = {
    "closed_wire": _run_wire_cell,
    "open_scenario": _run_scenario_cell,
    "sustained_write": _run_sustained_cell,
}


# ------------------------------------------------------------------- run_area


def run_area(
    area: str,
    repetitions: int = 2,
    warmup: int = 1,
    overrides: Mapping[str, object] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Execute one area's grid and return its benchmark document.

    Every cell runs ``warmup`` throwaway repetitions followed by
    ``repetitions`` recorded ones (repetition ids count from 0 and are
    strictly increasing within a cell).  ``overrides`` replaces base
    workload knobs — e.g. ``{"operations": 128}`` for a CI smoke run —
    without changing the cell dimensions.
    """
    if repetitions < 1:
        raise BenchHarnessError("benchmark needs at least one repetition")
    if warmup < 0:
        raise BenchHarnessError("warmup repetitions cannot be negative")
    grid = get_area(area)
    runner = _CELL_RUNNERS[grid.kind]
    base = dict(grid.base)
    if overrides:
        unknown = set(overrides) - set(base)
        if unknown:
            raise BenchHarnessError(
                f"unknown base knob(s) {sorted(unknown)} for area {area!r}; "
                f"available: {sorted(base)}"
            )
        base.update(overrides)
    say = progress if progress is not None else (lambda _message: None)
    rows: list[dict] = []
    cells = grid.cells()
    for position, cell in enumerate(cells):
        label = ", ".join(f"{name}={value}" for name, value in cell.items())
        for _ in range(warmup):
            say(f"[{position + 1}/{len(cells)}] warmup   {label}")
            runner(cell, base)
        for repetition in range(repetitions):
            say(f"[{position + 1}/{len(cells)}] rep {repetition}    {label}")
            metrics = runner(cell, base)
            rows.append({**cell, "repetition": repetition, **metrics})
    document = {
        "schema": SCHEMA,
        "area": area,
        "created_unix": int(time.time()),
        "env": env_fingerprint(),
        "config": {
            "kind": grid.kind,
            "dimensions": {name: list(values) for name, values in grid.dimensions.items()},
            "base": base,
            "repetitions": repetitions,
            "warmup": warmup,
        },
        "rows": rows,
    }
    validate_document(document)
    return document


# ----------------------------------------------------------------- validation


def validate_document(document: Mapping) -> None:
    """Check the document envelope, row schema and repetition monotonicity."""
    for key in DOCUMENT_KEYS:
        if key not in document:
            raise BenchHarnessError(f"benchmark document is missing key {key!r}")
    if document["schema"] != SCHEMA:
        raise BenchHarnessError(
            f"unsupported schema {document['schema']!r} (expected {SCHEMA!r})"
        )
    for key in ENV_KEYS:
        if key not in document["env"]:
            raise BenchHarnessError(f"env fingerprint is missing key {key!r}")
    dimension_names = list(document["config"]["dimensions"])
    last_repetition: dict[tuple, int] = {}
    for row in document["rows"]:
        for key in ROW_METRIC_KEYS:
            if key not in row:
                raise BenchHarnessError(f"run-table row is missing key {key!r}: {row}")
        for name in dimension_names:
            if name not in row:
                raise BenchHarnessError(f"run-table row is missing dimension {name!r}: {row}")
        cell_key = _cell_key(row, dimension_names)
        previous = last_repetition.get(cell_key, -1)
        if row["repetition"] != previous + 1:
            raise BenchHarnessError(
                f"repetition ids of cell {dict(zip(dimension_names, cell_key))} are not "
                f"monotone: {row['repetition']} after {previous}"
            )
        last_repetition[cell_key] = row["repetition"]
    for pair in document.get("optimizations", ()):
        for key in PAIR_KEYS:
            if key not in pair:
                raise BenchHarnessError(f"optimization pair is missing key {key!r}: {pair}")


def load_document(path: str | Path) -> dict:
    """Read and validate one ``BENCH_*.json`` document."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise BenchHarnessError(f"{path} is not valid JSON: {error}") from error
    validate_document(document)
    return document


# ------------------------------------------------------------------ profiling


def _profile_frame_decode() -> Callable[[], None]:
    from repro.net.protocol import FrameDecoder, ValueResponse, encode_frame

    stream = encode_frame(ValueResponse(value=b"x" * 1024)) * 4000
    chunks = [stream[start : start + 65536] for start in range(0, len(stream), 65536)]

    def run() -> None:
        decoder = FrameDecoder()
        for chunk in chunks:
            decoder.feed(chunk)

    return run


def _profile_mvalue_decode() -> Callable[[], None]:
    from repro.net.protocol import FrameDecoder, MultiValueResponse, encode_frame

    frame = encode_frame(MultiValueResponse(values=tuple(b"y" * 256 for _ in range(64))))
    stream = frame * 800
    chunks = [stream[start : start + 65536] for start in range(0, len(stream), 65536)]

    def run() -> None:
        decoder = FrameDecoder()
        for chunk in chunks:
            decoder.feed(chunk)

    return run


def _profile_matcher() -> Callable[[], None]:
    from repro import PBCCompressor
    from repro.core.matcher import MultiPatternMatcher
    from repro.datasets import load_dataset

    dictionary = PBCCompressor().train(load_dataset("hdfs", count=512, seed=7)).dictionary
    population = load_dataset("hdfs", count=256, seed=11)
    workload = [population[index % len(population)] for index in range(8000)]
    matcher = MultiPatternMatcher(dictionary)

    def run() -> None:
        for record in workload:
            matcher.match(record)

    return run


def _profile_service_dispatch() -> Callable[[], None]:
    from repro.service.service import KVService, ServiceConfig

    def run() -> None:
        config = ServiceConfig(shard_count=2, compressor="none", cache_entries=1)
        with KVService(config) as service:
            keys = [f"prof:{index:05d}" for index in range(256)]
            for key in keys:
                service.set(key, key)
            for index in range(4000):
                key = keys[index % len(keys)]
                if index & 1:
                    service.get(key)
                else:
                    service.set(key, key)

    return run


#: named workloads for ``repro bench profile``: setup → zero-arg thunk.
PROFILE_TARGETS: dict[str, Callable[[], Callable[[], None]]] = {
    "frame-decode": _profile_frame_decode,
    "mvalue-decode": _profile_mvalue_decode,
    "matcher": _profile_matcher,
    "service-dispatch": _profile_service_dispatch,
}


def profile_target(target: str, top: int = 25, sort: str = "cumulative") -> str:
    """cProfile one named hot-path workload; returns the pstats report text."""
    import cProfile
    import io
    import pstats

    if target not in PROFILE_TARGETS:
        raise BenchHarnessError(
            f"unknown profile target {target!r}; available: {sorted(PROFILE_TARGETS)}"
        )
    workload = PROFILE_TARGETS[target]()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(top)
    return buffer.getvalue()


# ----------------------------------------------------------------- comparison


def _cell_key(row: Mapping, dimension_names: Sequence[str]) -> tuple:
    return tuple(row[name] for name in dimension_names)


def _mean_by_cell(document: Mapping, metric: str = "ops_per_second") -> dict[tuple, float]:
    dimension_names = list(document["config"]["dimensions"])
    totals: dict[tuple, list[float]] = {}
    for row in document["rows"]:
        totals.setdefault(_cell_key(row, dimension_names), []).append(
            float(row[metric])
        )
    return {key: sum(values) / len(values) for key, values in totals.items()}


def compare_documents(
    old: Mapping,
    new: Mapping,
    threshold: float = 0.15,
    latency_threshold: float | None = None,
) -> tuple[list[dict], int]:
    """Diff two benchmark documents; returns ``(report_rows, regressions)``.

    Cells are matched on their dimension values; repetitions are averaged.
    A cell regresses when its new mean throughput drops below
    ``old * (1 - threshold)``, or when it disappeared from the new table.
    With ``latency_threshold`` set, a cell also regresses when its new mean
    p99 latency grows past ``old * (1 + latency_threshold)`` — throughput
    that survives by queueing everything into the tail is still a
    regression.  Cells only present in the new table are reported but never
    fail.
    """
    if not 0.0 <= threshold < 1.0:
        raise BenchHarnessError("comparison threshold must be within [0, 1)")
    if latency_threshold is not None and latency_threshold < 0.0:
        raise BenchHarnessError("latency threshold cannot be negative")
    if old["area"] != new["area"]:
        raise BenchHarnessError(
            f"cannot compare area {old['area']!r} against {new['area']!r}"
        )
    dimension_names = list(old["config"]["dimensions"])
    old_means = _mean_by_cell(old)
    new_means = _mean_by_cell(new)
    old_p99 = _mean_by_cell(old, metric="p99_ms")
    new_p99 = _mean_by_cell(new, metric="p99_ms")
    report: list[dict] = []
    regressions = 0
    for cell_key, old_ops in old_means.items():
        label = ", ".join(
            f"{name}={value}" for name, value in zip(dimension_names, cell_key)
        )
        new_ops = new_means.get(cell_key)
        if new_ops is None:
            regressions += 1
            report.append(
                {"cell": label, "old_ops": round(old_ops, 1), "new_ops": None,
                 "delta": None, "status": "missing"}
            )
            continue
        delta = new_ops / old_ops - 1.0 if old_ops else 0.0
        regressed = new_ops < old_ops * (1.0 - threshold)
        cell_old_p99 = old_p99.get(cell_key, 0.0)
        cell_new_p99 = new_p99.get(cell_key, 0.0)
        slower = (
            latency_threshold is not None
            and cell_old_p99 > 0.0
            and cell_new_p99 > cell_old_p99 * (1.0 + latency_threshold)
        )
        if regressed or slower:
            regressions += 1
        report.append(
            {
                "cell": label,
                "old_ops": round(old_ops, 1),
                "new_ops": round(new_ops, 1),
                "delta": round(delta, 4),
                "old_p99_ms": round(cell_old_p99, 3),
                "new_p99_ms": round(cell_new_p99, 3),
                "status": (
                    "regressed" if regressed
                    else "slower" if slower
                    else "ok"
                ),
            }
        )
    for cell_key, new_ops in new_means.items():
        if cell_key in old_means:
            continue
        label = ", ".join(
            f"{name}={value}" for name, value in zip(dimension_names, cell_key)
        )
        report.append(
            {"cell": label, "old_ops": None, "new_ops": round(new_ops, 1),
             "delta": None, "status": "new"}
        )
    return report, regressions
