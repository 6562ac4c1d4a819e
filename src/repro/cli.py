"""Command-line interface for the PBC reproduction (installed as ``repro``/``pbc``).

The CLI wraps the offline/online split of the paper's Figure 1 into a small
file-based workflow:

* ``pbc train`` — offline pattern extraction from a sample file or a synthetic
  dataset; writes the pattern dictionary to disk.
* ``pbc compress`` / ``pbc decompress`` — per-record compression of a text file
  (one record per line) against a trained dictionary.
* ``pbc inspect`` — print the patterns of a trained dictionary.
* ``pbc datasets`` — list the synthetic Table 2 datasets.
* ``pbc codecs`` — list the registered baseline block codecs; ``pbc codecs
  list`` prints the :mod:`repro.codecs` registry table (id, name, magic byte,
  trainable) that every storage layer shares.
* ``pbc experiments`` / ``pbc experiment <id>`` — enumerate and run the
  registered paper experiments (tables and figures).
* ``pbc stream compress|decompress|inspect|get`` — the :mod:`repro.stream`
  subsystem: seekable containers with per-frame (optionally adaptive) codecs,
  a parallel compression pipeline, and single-frame random access.
* ``pbc serve-bench`` — the :mod:`repro.service` subsystem: drives a mixed,
  batched GET/SET workload against the sharded concurrent KV service and
  reports per-shard compression ratios, cache hit rate and latency
  percentiles.
* ``pbc serve`` / ``pbc client get|set|del|ping|stats|metrics|bench`` — the
  :mod:`repro.net` subsystem: the thread-per-connection ``RKV1`` wire server
  over the KV service (with a ``--metrics-port`` Prometheus sidecar and
  overload limits),
  and the pooled client (including the mixed wire workload driver with a
  pipelining-depth knob and an open-loop ``--rate`` mode).

Every command is a thin veneer over the library API, so anything the CLI does
can also be done programmatically.  Subsystems a command needs are imported
by its handler, so ``repro serve`` never loads the experiment registry or the
stream pipeline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro import ExtractionConfig, PatternDictionary, PBCCompressor, __version__
from repro.codecs import codec_names, trainable_codec_names
from repro.compressors import available_codecs
from repro.datasets import DATASET_SPECS, EXTRA_DATASET_SPECS, dataset_statistics, load_dataset
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.exceptions import ReproError
from repro.lsm.wal import SYNC_MODES

#: Magic prefix of compressed record files produced by ``pbc compress``.
_FILE_MAGIC = b"PBC1"


# ------------------------------------------------------------------ utilities


def render_table(rows, title: str | None = None) -> str:
    """:func:`repro.bench.render_table`, imported when a command prints one."""
    from repro.bench import render_table as render

    return render(rows, title=title)


def _read_records(path: Path) -> list[str]:
    """Read one record per line (the trailing newline is not part of the record)."""
    text = path.read_text(encoding="utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def _load_training_records(args: argparse.Namespace) -> list[str]:
    """Training records from ``--input`` or ``--dataset``."""
    if args.input is not None:
        return _read_records(Path(args.input))
    return load_dataset(args.dataset, count=args.count)


def _build_config(args: argparse.Namespace) -> ExtractionConfig:
    return ExtractionConfig(
        max_patterns=args.max_patterns,
        sample_size=args.sample_size,
        seed=args.seed,
    )


# ------------------------------------------------------------------- commands


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in DATASET_SPECS.items():
        row = {
            "dataset": name,
            "category": spec.category,
            "description": spec.description,
            "paper_records": f"{spec.paper_records:,.0f}",
            "paper_avg_len": spec.paper_avg_len,
        }
        if args.stats:
            statistics = dataset_statistics(name)
            row["generated_avg_len"] = round(statistics.avg_record_len, 1)
        rows.append(row)
    print(render_table(rows, title="Synthetic datasets (Table 2)"))
    return 0


def _cmd_codecs(_: argparse.Namespace) -> int:
    for name in available_codecs():
        print(name)
    return 0


def _cmd_codecs_list(_: argparse.Namespace) -> int:
    from repro.codecs import codec_inventory

    print(render_table(codec_inventory(), title="Registered codecs (repro.codecs)"))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    records = _load_training_records(args)
    if not records:
        print("error: no training records", file=sys.stderr)
        return 2
    compressor = PBCCompressor(config=_build_config(args))
    report = compressor.train(records)
    Path(args.output).write_bytes(report.dictionary.to_bytes())
    print(f"trained {len(report.dictionary)} patterns from {report.sample_count} sampled records")
    print(f"dictionary written to {args.output} ({Path(args.output).stat().st_size} bytes)")
    if args.verbose:
        for pattern in report.dictionary:
            print(f"  [{pattern.pattern_id}] {pattern.display()}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    dictionary = PatternDictionary.from_bytes(Path(args.dictionary).read_bytes())
    print(f"{len(dictionary)} patterns")
    for pattern in dictionary:
        print(f"  [{pattern.pattern_id}] {pattern.display()}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    dictionary = PatternDictionary.from_bytes(Path(args.dictionary).read_bytes())
    compressor = PBCCompressor(dictionary=dictionary)
    records = _read_records(Path(args.input))
    payloads = compressor.compress_many(records)
    out = bytearray(_FILE_MAGIC)
    out += encode_uvarint(len(payloads))
    for payload in payloads:
        out += encode_uvarint(len(payload))
        out += payload
    Path(args.output).write_bytes(bytes(out))
    original = sum(len(record.encode("utf-8")) for record in records)
    compressed = len(out)
    ratio = compressed / original if original else 1.0
    print(f"compressed {len(records)} records: {original} -> {compressed} bytes (ratio {ratio:.3f})")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    dictionary = PatternDictionary.from_bytes(Path(args.dictionary).read_bytes())
    compressor = PBCCompressor(dictionary=dictionary)
    data = Path(args.input).read_bytes()
    if not data.startswith(_FILE_MAGIC):
        print("error: input is not a pbc-compressed file", file=sys.stderr)
        return 2
    count, offset = decode_uvarint(data, len(_FILE_MAGIC))
    records: list[str] = []
    for _ in range(count):
        length, offset = decode_uvarint(data, offset)
        end = offset + length
        records.append(compressor.decompress(data[offset:end]))
        offset = end
    Path(args.output).write_text("\n".join(records) + ("\n" if records else ""), encoding="utf-8")
    print(f"decompressed {count} records to {args.output}")
    return 0


# ------------------------------------------------------------ stream commands


def _stream_input_records(args: argparse.Namespace) -> list[str]:
    """Records for ``stream compress`` from ``--input`` or ``--dataset``."""
    if args.input is not None:
        return _read_records(Path(args.input))
    return load_dataset(args.dataset, count=args.count)


def _cmd_stream_compress(args: argparse.Namespace) -> int:
    from repro.stream import AdaptiveConfig, StreamConfig, compress_stream

    records = _stream_input_records(args)
    if not records:
        print("error: no input records", file=sys.stderr)
        return 2
    config = StreamConfig(
        codec=args.codec,
        frame_records=args.frame_records,
        workers=args.workers,
        executor=args.executor,
        timed_stats=True,
        adaptive=AdaptiveConfig(sample_size=args.sample_size),
    )
    summary = compress_stream(records, Path(args.output), config)
    stats = summary.stats
    assert stats is not None
    usage = ", ".join(f"{name}×{count}" for name, count in sorted(summary.codec_usage.items()))
    print(
        f"compressed {stats.records} records into {len(summary.frames)} frames: "
        f"{stats.original_bytes} -> {Path(args.output).stat().st_size} bytes "
        f"(payload ratio {stats.ratio:.3f})"
    )
    print(f"frame codecs: {usage}; outliers {stats.outliers}; retrains {summary.retrain_count}")
    return 0


def _cmd_stream_decompress(args: argparse.Namespace) -> int:
    from repro.stream import decompress_stream

    records = decompress_stream(Path(args.input), workers=args.workers)
    Path(args.output).write_text("\n".join(records) + ("\n" if records else ""), encoding="utf-8")
    print(f"decompressed {len(records)} records to {args.output}")
    return 0


def _cmd_stream_inspect(args: argparse.Namespace) -> int:
    from repro.stream import StreamContainerReader, frame_codec_by_id

    with StreamContainerReader(Path(args.input)) as container:
        print(
            f"stream container v{container.version}: "
            f"{container.record_count} records in {container.frame_count} frames"
        )
        rows = [
            {
                "frame": position,
                "codec": frame_codec_by_id(frame.codec_id).name,
                "records": frame.record_count,
                "first_record": frame.first_record,
                "bytes": frame.length,
            }
            for position, frame in enumerate(container.frames)
        ]
        if rows:
            print(render_table(rows, title="Frames"))
    return 0


def _cmd_stream_get(args: argparse.Namespace) -> int:
    from repro.stream import StreamReader

    with StreamReader(Path(args.input)) as reader:
        record = reader.get(args.index)
        if args.verbose:
            print(
                f"record {args.index} (frame {reader.frame_for_record(args.index)}, "
                f"{reader.frames_decompressed} frame(s) decompressed):",
                file=sys.stderr,
            )
        print(record)
    return 0


# ------------------------------------------------------------- serve-bench


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.loadgen import default_keys, mixed_operation, preload, run_load
    from repro.service import KVService, ServiceConfig

    values = load_dataset(args.dataset, count=args.count)
    keys = default_keys(len(values))
    operation, calls = mixed_operation(
        keys, values, args.ops, get_fraction=args.get_fraction, batch=args.batch_size
    )
    directory = args.directory
    temporary = None
    if args.backend == "lsm" and directory is None:
        import tempfile

        temporary = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        directory = temporary.name
    config = ServiceConfig(
        shard_count=args.shards,
        backend=args.backend,
        compressor=args.compressor,
        directory=directory,
        cache_entries=args.cache_entries,
        train_size=args.train_size,
    )
    try:
        with KVService(config) as service:
            service.train(values[: config.train_size])
            preload(service, keys, values)
            result = run_load(lambda: service, operation, calls, args.clients, seed=args.seed)
            # The workers have joined, so the service is quiescent and the
            # snapshot's strict cross-counter invariants must hold.
            snapshot = service.snapshot().validate()
    finally:
        if temporary is not None:
            temporary.cleanup()
    print(
        f"{result.operations} mixed operations ({result.counts.get('GET', 0)} GET / "
        f"{result.counts.get('SET', 0)} SET) over {args.shards} {args.backend} shard(s) "
        f"with {args.clients} client(s): {result.ops_per_second:,.0f} ops/s"
    )
    print(render_table(snapshot.shard_rows(), title="Per-shard compression"))
    print(render_table(snapshot.summary_rows(), title="Service summary"))
    return 0 if result.clean and not result.errors else 1


# ------------------------------------------------------------- serve / client


def _build_service(args: argparse.Namespace):
    """Build (and optionally train) a KVService from serve-style arguments.

    Returns ``(service, reopened, cleanup)``: ``reopened`` is whether the
    data directory already held shard state — the shards then come back with
    their data and trained model epochs intact.  Pre-training is skipped only
    when *trained* state (``models.bin`` / ``snapshot.tbs``) actually exists:
    bare ``shard-*`` directories from a run killed before its first
    flush/train must not leave a restarted server silently untrained.
    ``cleanup`` disposes any temp dir auto-created for the lsm backend.
    """
    from repro.service import KVService, ServiceConfig

    directory = args.directory
    temporary = None
    if args.backend == "lsm" and directory is None:
        import tempfile

        temporary = tempfile.TemporaryDirectory(prefix="repro-serve-")
        directory = temporary.name
    base = Path(directory) if directory is not None else None
    trained_state = base is not None and (
        any(base.glob("shard-*/models.bin")) or any(base.glob("shard-*/snapshot.tbs"))
    )
    reopened = trained_state or (
        base is not None and any(base.glob("shard-*/sstable-*.sst"))
    )
    config = ServiceConfig(
        shard_count=args.shards,
        backend=args.backend,
        compressor=args.compressor,
        directory=directory,
        sync_mode=getattr(args, "sync_mode", "flush"),
        cache_entries=args.cache_entries,
        train_size=args.train_size,
    )
    service = KVService(config)
    if args.compressor != "none" and not trained_state:
        sample = load_dataset(args.train_dataset, count=args.train_count)
        service.train(sample)
    return service, reopened, (temporary.cleanup if temporary is not None else (lambda: None))


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.net import KVServer, ServerConfig

    service, reopened, cleanup = _build_service(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        metrics_port=args.metrics_port,
        max_value_bytes=args.max_value_bytes,
        max_batch_items=args.max_batch_items,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        slow_request_seconds=args.slow_ms / 1e3,
    )
    try:
        with KVServer(service, config) as server:
            try:
                # SIGTERM (kill, docker stop, systemd) drains like Ctrl-C from
                # before the `serving` line on.  A SIGINT that the shell set to
                # ignore (``repro serve &``) stays ignored, as Python leaves it.
                signal.signal(signal.SIGTERM, signal.default_int_handler)
                host, port = server.address
                state = (
                    f"reopened {len(service)} key(s) from {args.directory}" if reopened else "fresh"
                )
                print(
                    f"serving {args.shards} {args.backend} shard(s) "
                    f"({args.compressor} compression, {state}) on {host}:{port}",
                    flush=True,
                )
                if server.metrics_sidecar is not None:
                    metrics_host, metrics_port = server.metrics_address
                    print(f"metrics on http://{metrics_host}:{metrics_port}/metrics", flush=True)
                # Serve on the server's threads; this one only waits (forever
                # without --serve-seconds) for the deadline, Ctrl-C or SIGTERM.
                threading.Event().wait(args.serve_seconds)
            except KeyboardInterrupt:
                print("interrupted", file=sys.stderr)
            finally:
                # A second signal must not tear the drain below half way.
                for signum in (signal.SIGINT, signal.SIGTERM):
                    signal.signal(signum, signal.SIG_IGN)
        print(
            f"drained: {server.connections_served} connection(s) served, "
            f"{len(service)} key(s) stored"
        )
    finally:
        service.close()
        cleanup()
    return 0


def _client(args: argparse.Namespace):
    from repro.net import KVClient

    return KVClient(args.host, args.port, timeout=args.timeout)


def _cmd_client_get(args: argparse.Namespace) -> int:
    with _client(args) as client:
        value = client.get(args.key)
    if value is None:
        print(f"(key {args.key!r} not found)", file=sys.stderr)
        return 1
    print(value)
    return 0


def _cmd_client_set(args: argparse.Namespace) -> int:
    with _client(args) as client:
        client.set(args.key, args.value)
    print("OK")
    return 0


def _cmd_client_del(args: argparse.Namespace) -> int:
    with _client(args) as client:
        existed = client.delete(args.key)
    print("deleted" if existed else "(key did not exist)")
    return 0


def _cmd_client_scan(args: argparse.Namespace) -> int:
    count = 0
    with _client(args) as client:
        for key, value in client.scan(args.start, args.end, limit=args.limit):
            print(f"{key}\t{value}")
            count += 1
    print(f"({count} result(s))", file=sys.stderr)
    return 0


def _cmd_client_ping(args: argparse.Namespace) -> int:
    import time

    with _client(args) as client:
        started = time.perf_counter()
        client.ping()
        elapsed = time.perf_counter() - started
    print(f"PONG in {elapsed * 1e3:.2f} ms")
    return 0


def _cmd_client_stats(args: argparse.Namespace) -> int:
    with _client(args) as client:
        stats = client.stats()
    if args.raw:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    shards = stats.pop("shards", [])
    print(render_table([{"metric": key, "value": value} for key, value in stats.items()],
                       title="Service stats"))
    if shards:
        print(render_table(shards, title="Per-shard"))
    return 0


def _cmd_client_metrics(args: argparse.Namespace) -> int:
    with _client(args) as client:
        text = client.metrics()
    if args.raw:
        # The exposition text exactly as the HTTP sidecar would serve it.
        sys.stdout.write(text)
        return 0
    from repro.obs import parse_text

    rows = [
        {
            "name": name,
            "labels": ",".join(f"{label}={value}" for label, value in labels) or "-",
            "value": f"{value:g}",
        }
        for (name, labels), value in sorted(parse_text(text).items())
    ]
    if not rows:
        print("(metrics disabled on this server)")
        return 0
    print(render_table(rows, title="Server metrics"))
    return 0


def _cmd_client_bench(args: argparse.Namespace) -> int:
    from repro.loadgen import default_keys, mixed_operation, per_worker, preload, run_load
    from repro.net import KVClient

    values = load_dataset(args.dataset, count=args.count)
    keys = default_keys(len(values))
    # Open loop issues single-key frames; closed loop batches — one
    # mget/mset per round trip, or --depth pipelined single-key frames.
    batch = 1 if args.rate else args.depth or args.batch_size
    operation, calls = mixed_operation(
        keys,
        values,
        args.ops,
        get_fraction=args.get_fraction,
        batch=batch,
        pipeline=not args.rate and args.depth > 0,
    )
    with per_worker(
        lambda: KVClient(args.host, args.port, pool_size=1, timeout=args.timeout)
    ) as connect:
        if not args.no_preload:
            preload(connect(), keys, values)
        result = run_load(
            connect, operation, calls, args.clients, rate=args.rate or None, seed=args.seed
        )
    if args.rate:
        print(
            f"open loop: offered {result.rate:,.0f} ops/s, achieved "
            f"{result.ops_per_second:,.0f} ops/s ({result.completed}/{result.offered} "
            f"completed, {result.errors} error(s))"
        )
    else:
        mode = f"pipeline depth {args.depth}" if args.depth else "mget/mset batches"
        print(
            f"{result.operations} wire operations ({result.counts.get('GET', 0)} GET / "
            f"{result.counts.get('SET', 0)} SET) from {args.clients} client(s), {mode}: "
            f"{result.ops_per_second:,.0f} ops/s"
        )
    print(render_table(result.summary_rows(), title="Wire workload"))
    if not result.clean:
        print("error: lost or corrupted responses detected", file=sys.stderr)
        return 1
    if result.errors and not args.rate:
        # A closed loop has no overload to probe: a failed round trip is a fault.
        print(f"error: {result.errors} round trip(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import run_suite, scenario_names

    names = args.mixes or scenario_names()
    results = run_suite(
        names,
        backends=tuple(args.backends),
        operations=args.ops,
        rate=args.rate,
        workers=args.clients,
        records=args.records,
        value_count=args.values,
        seed=args.seed,
        shard_count=args.shards,
        compressor=args.compressor,
    )
    rows = [result.row() for result in results]
    if args.output:
        Path(args.output).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} row(s) to {args.output}", file=sys.stderr)
    if args.raw:
        for row in rows:
            print(json.dumps(row))
    else:
        table_rows = [
            {
                "scenario": row["scenario"],
                "backend": row["backend"],
                "ops": row["operations"],
                "errors": row["errors"],
                "achieved/s": f"{row['achieved_rate']:,.0f}",
                "p50 ms": f"{row['p50_ms']:.3f}",
                "p95 ms": f"{row['p95_ms']:.3f}",
                "p99 ms": f"{row['p99_ms']:.3f}",
                "scans": row["scan_count"],
                "avg len": row["avg_scan_len"],
                "lost": row["lost"],
                "corrupt": row["corrupt"],
            }
            for row in rows
        ]
        print(render_table(table_rows, title="Scenario suite"))
    dirty = [result for result in results if not result.clean]
    if dirty:
        for result in dirty:
            print(
                f"error: scenario {result.scenario!r} on {result.backend}: "
                f"{result.load.lost} lost, {result.load.corrupt} corrupt, "
                f"{result.load.unordered} unordered",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.bench.registry import EXPERIMENTS

    rows = [
        {
            "id": experiment.experiment_id,
            "artifact": experiment.paper_artifact,
            "description": experiment.description,
            "bench": experiment.bench_module,
        }
        for experiment in EXPERIMENTS.values()
    ]
    print(render_table(rows, title="Registered experiments"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench.registry import get_experiment

    experiment = get_experiment(args.id)
    rows = experiment.runner()
    print(render_table(rows, title=f"{experiment.paper_artifact}: {experiment.description}"))
    return 0


def _cmd_oplog_dump(args: argparse.Namespace) -> int:
    from repro.oplog import OP_CHECKPOINT, OP_DELETE, OP_PUT, iter_records

    op_names = {OP_PUT: "put", OP_DELETE: "delete", OP_CHECKPOINT: "checkpoint"}
    data = Path(args.file).read_bytes()
    rows = []
    for record in iter_records(data, start_lsn=args.start_lsn):
        rows.append(
            {
                "lsn": record.lsn,
                "op": op_names.get(record.op, f"op{record.op}"),
                "key": record.key,
                "value_bytes": len(record.value),
                "epoch": record.epoch,
            }
        )
    if args.raw:
        import json

        print(json.dumps(rows, indent=2))
    else:
        print(render_table(rows, title=f"oplog {args.file} ({len(rows)} records)"))
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="pbc",
        description="Pattern-Based Compression (SIGMOD 2023 reproduction) command-line tool.",
    )
    parser.add_argument("--version", action="version", version=f"pbc {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="list the synthetic Table 2 datasets")
    datasets.add_argument("--stats", action="store_true", help="also generate and measure each dataset")
    datasets.set_defaults(func=_cmd_datasets)

    codecs = subparsers.add_parser(
        "codecs",
        help="list codecs (bare: baseline block codecs; 'list': the repro.codecs registry)",
    )
    codecs.set_defaults(func=_cmd_codecs)
    codecs_sub = codecs.add_subparsers(dest="codecs_command", required=False)
    codecs_list = codecs_sub.add_parser(
        "list", help="table of every registered codec: id, name, magic, trainable"
    )
    codecs_list.set_defaults(func=_cmd_codecs_list)

    train = subparsers.add_parser("train", help="extract a pattern dictionary (offline phase)")
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="training file with one record per line")
    source.add_argument(
        "--dataset",
        choices=sorted(DATASET_SPECS) + sorted(EXTRA_DATASET_SPECS),
        help="synthetic dataset name",
    )
    train.add_argument("--count", type=int, default=None, help="records to generate for --dataset")
    train.add_argument("--output", required=True, help="path for the trained dictionary")
    train.add_argument("--max-patterns", type=int, default=16, help="pattern budget (default 16)")
    train.add_argument("--sample-size", type=int, default=256, help="training sample size (default 256)")
    train.add_argument("--seed", type=int, default=2023, help="sampling seed")
    train.add_argument("--verbose", action="store_true", help="print the extracted patterns")
    train.set_defaults(func=_cmd_train)

    inspect = subparsers.add_parser("inspect", help="print the patterns of a trained dictionary")
    inspect.add_argument("--dictionary", required=True, help="dictionary file produced by 'pbc train'")
    inspect.set_defaults(func=_cmd_inspect)

    compress = subparsers.add_parser("compress", help="compress a record file with a trained dictionary")
    compress.add_argument("--dictionary", required=True, help="dictionary file produced by 'pbc train'")
    compress.add_argument("--input", required=True, help="text file with one record per line")
    compress.add_argument("--output", required=True, help="output file for the compressed records")
    compress.set_defaults(func=_cmd_compress)

    decompress = subparsers.add_parser("decompress", help="decompress a file produced by 'pbc compress'")
    decompress.add_argument("--dictionary", required=True, help="dictionary file produced by 'pbc train'")
    decompress.add_argument("--input", required=True, help="compressed file")
    decompress.add_argument("--output", required=True, help="output text file")
    decompress.set_defaults(func=_cmd_decompress)

    stream = subparsers.add_parser("stream", help="seekable stream containers (repro.stream)")
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)

    stream_compress = stream_sub.add_parser(
        "compress", help="compress records into a seekable stream container"
    )
    stream_source = stream_compress.add_mutually_exclusive_group(required=True)
    stream_source.add_argument("--input", help="text file with one record per line")
    stream_source.add_argument(
        "--dataset",
        choices=sorted(DATASET_SPECS) + sorted(EXTRA_DATASET_SPECS),
        help="synthetic dataset name",
    )
    stream_compress.add_argument("--count", type=int, default=None, help="records for --dataset")
    stream_compress.add_argument("--output", required=True, help="output container file")
    stream_compress.add_argument(
        "--codec",
        default="adaptive",
        choices=["adaptive"] + codec_names(),
        help="frame codec, or 'adaptive' for per-frame selection (default)",
    )
    stream_compress.add_argument(
        "--frame-records", type=int, default=2048, help="records per frame (default 2048)"
    )
    stream_compress.add_argument(
        "--workers", type=int, default=0, help="parallel frame-compression workers (0 = inline)"
    )
    stream_compress.add_argument(
        "--executor",
        default="auto",
        choices=["auto", "thread", "process", "serial"],
        help="worker pool kind (default auto)",
    )
    stream_compress.add_argument(
        "--sample-size", type=int, default=64, help="adaptive scoring sample per frame"
    )
    stream_compress.set_defaults(func=_cmd_stream_compress)

    stream_decompress = stream_sub.add_parser(
        "decompress", help="decompress a stream container back to text"
    )
    stream_decompress.add_argument("--input", required=True, help="stream container file")
    stream_decompress.add_argument("--output", required=True, help="output text file")
    stream_decompress.add_argument(
        "--workers", type=int, default=0, help="parallel frame-decompression workers"
    )
    stream_decompress.set_defaults(func=_cmd_stream_decompress)

    stream_inspect = stream_sub.add_parser(
        "inspect", help="print the frame index of a stream container"
    )
    stream_inspect.add_argument("--input", required=True, help="stream container file")
    stream_inspect.set_defaults(func=_cmd_stream_inspect)

    stream_get = stream_sub.add_parser(
        "get", help="random-access one record (decompresses a single frame)"
    )
    stream_get.add_argument("--input", required=True, help="stream container file")
    stream_get.add_argument("--index", type=int, required=True, help="record index")
    stream_get.add_argument("--verbose", action="store_true", help="report the frame touched")
    stream_get.set_defaults(func=_cmd_stream_get)

    serve_bench = subparsers.add_parser(
        "serve-bench", help="benchmark the sharded concurrent KV service (repro.service)"
    )
    serve_bench.add_argument(
        "--dataset",
        default="kv1",
        choices=sorted(DATASET_SPECS) + sorted(EXTRA_DATASET_SPECS),
        help="synthetic dataset providing the values (default kv1)",
    )
    serve_bench.add_argument("--count", type=int, default=2000, help="values to load (default 2000)")
    serve_bench.add_argument("--shards", type=int, default=4, help="shard count (default 4)")
    serve_bench.add_argument(
        "--backend",
        default="tierbase",
        choices=["tierbase", "lsm"],
        help="shard backend (default tierbase)",
    )
    # "none" + every trainable registry codec — the same menu the service's
    # COMPRESSOR_CHOICES derives (pinned by a test); computed here from the
    # registry directly so the CLI does not import the service stack eagerly.
    serve_bench.add_argument(
        "--compressor",
        default="pbc_f",
        choices=["none", *trainable_codec_names()],
        help="per-shard value compressor, from the codec registry (default pbc_f)",
    )
    serve_bench.add_argument(
        "--directory", default=None, help="base directory for the lsm backend (default: temp dir)"
    )
    serve_bench.add_argument("--ops", type=int, default=4096, help="mixed operations (default 4096)")
    serve_bench.add_argument(
        "--get-fraction", type=float, default=0.7, help="fraction of GET batches (default 0.7)"
    )
    serve_bench.add_argument("--batch-size", type=int, default=16, help="mget/mset batch size")
    serve_bench.add_argument("--clients", type=int, default=2, help="client threads (default 2)")
    serve_bench.add_argument(
        "--cache-entries", type=int, default=1024, help="compressed read-cache entries"
    )
    serve_bench.add_argument(
        "--train-size", type=int, default=256, help="training/retraining sample size"
    )
    serve_bench.add_argument("--seed", type=int, default=2023, help="workload seed")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    serve = subparsers.add_parser(
        "serve", help="serve the sharded KV service over the RKV1 wire protocol (repro.net)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9100, help="TCP port (default 9100; 0 = ephemeral)")
    serve.add_argument("--shards", type=int, default=4, help="shard count (default 4)")
    serve.add_argument(
        "--backend", default="tierbase", choices=["tierbase", "lsm"],
        help="shard backend (default tierbase)",
    )
    serve.add_argument(
        "--compressor",
        default="pbc_f",
        choices=["none", *trainable_codec_names()],
        help="per-shard value compressor (default pbc_f)",
    )
    serve.add_argument(
        "--data-dir", "--directory", dest="directory", default=None,
        help="persistent data directory: shards (both backends) reopen from it on "
             "restart with data, models and epochs intact (default: lsm uses a "
             "temp dir, tierbase stays in-memory)",
    )
    serve.add_argument(
        "--sync-mode", default="flush", choices=list(SYNC_MODES),
        help="lsm WAL durability per acknowledged write: none (buffered), flush "
             "(survives process kill; default), fsync (survives machine crash)",
    )
    serve.add_argument("--cache-entries", type=int, default=1024, help="compressed read-cache entries")
    serve.add_argument("--train-size", type=int, default=256, help="retraining reservoir size")
    serve.add_argument(
        "--train-dataset",
        default="kv1",
        choices=sorted(DATASET_SPECS) + sorted(EXTRA_DATASET_SPECS),
        help="dataset used to pre-train the shard compressors (default kv1)",
    )
    serve.add_argument("--train-count", type=int, default=256, help="pre-training sample size")
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="pipelined requests in flight per connection before backpressure",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="serve for N seconds then drain and exit (default: until interrupted)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus text on http://HOST:PORT/metrics (0 = ephemeral; "
             "default: no HTTP sidecar — the METRICS opcode always works)",
    )
    serve.add_argument(
        "--max-value-bytes", type=int, default=0,
        help="reject SET/MSET values larger than this (0 = unlimited)",
    )
    serve.add_argument(
        "--max-batch-items", type=int, default=0,
        help="reject MGET/MSET batches larger than this (0 = unlimited)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-connection request budget in req/s (0 = unlimited)",
    )
    serve.add_argument(
        "--rate-burst", type=int, default=0,
        help="token-bucket burst capacity (0 = max(1, rate))",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=0.0,
        help="log requests slower than this many milliseconds (0 = off)",
    )
    serve.set_defaults(func=_cmd_serve)

    client = subparsers.add_parser("client", help="talk to a running 'repro serve' endpoint")
    client.add_argument("--host", default="127.0.0.1", help="server host (default 127.0.0.1)")
    client.add_argument("--port", type=int, default=9100, help="server port (default 9100)")
    client.add_argument("--timeout", type=float, default=30.0, help="socket timeout seconds")
    client_sub = client.add_subparsers(dest="client_command", required=True)

    client_get = client_sub.add_parser("get", help="fetch one key")
    client_get.add_argument("key")
    client_get.set_defaults(func=_cmd_client_get)

    client_set = client_sub.add_parser("set", help="store one key")
    client_set.add_argument("key")
    client_set.add_argument("value")
    client_set.set_defaults(func=_cmd_client_set)

    client_del = client_sub.add_parser("del", help="delete one key")
    client_del.add_argument("key")
    client_del.set_defaults(func=_cmd_client_del)

    client_scan = client_sub.add_parser(
        "scan", help="range scan: ordered key/value pairs in [START, END)"
    )
    client_scan.add_argument("start", nargs="?", default=None, help="inclusive start bound (omit for open)")
    client_scan.add_argument("end", nargs="?", default=None, help="exclusive end bound (omit for open)")
    client_scan.add_argument("--limit", type=int, default=0, help="max pairs to return (0 = unlimited)")
    client_scan.set_defaults(func=_cmd_client_scan)

    client_ping = client_sub.add_parser("ping", help="round-trip latency check")
    client_ping.set_defaults(func=_cmd_client_ping)

    client_stats = client_sub.add_parser("stats", help="service-wide statistics tables")
    client_stats.add_argument(
        "--raw", action="store_true", help="print the raw JSON document instead of tables"
    )
    client_stats.set_defaults(func=_cmd_client_stats)

    client_metrics = client_sub.add_parser(
        "metrics", help="server metrics over the METRICS opcode (no HTTP needed)"
    )
    client_metrics.add_argument(
        "--raw", action="store_true",
        help="print the Prometheus exposition text instead of a table",
    )
    client_metrics.set_defaults(func=_cmd_client_metrics)

    client_bench = client_sub.add_parser(
        "bench", help="mixed GET/SET wire workload (throughput, latency, pipelining)"
    )
    client_bench.add_argument(
        "--dataset",
        default="kv1",
        choices=sorted(DATASET_SPECS) + sorted(EXTRA_DATASET_SPECS),
        help="synthetic dataset providing the values (default kv1)",
    )
    client_bench.add_argument("--count", type=int, default=1000, help="values to preload")
    client_bench.add_argument("--ops", type=int, default=2048, help="mixed operations")
    client_bench.add_argument("--get-fraction", type=float, default=0.7, help="GET fraction")
    client_bench.add_argument("--batch-size", type=int, default=8, help="mget/mset batch size")
    client_bench.add_argument("--clients", type=int, default=2, help="client threads")
    client_bench.add_argument(
        "--depth", type=int, default=0,
        help="pipeline depth for single-key frames (0 = use mget/mset batches)",
    )
    client_bench.add_argument("--seed", type=int, default=2023, help="workload seed")
    client_bench.add_argument(
        "--no-preload", action="store_true", help="skip the initial mset preload"
    )
    client_bench.add_argument(
        "--rate", type=float, default=0.0,
        help="open-loop mode: offer this many single-key ops/s on a fixed "
             "timetable and report offered vs achieved rate (0 = closed loop)",
    )
    client_bench.set_defaults(func=_cmd_client_bench)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="run the YCSB-style scenario suite against in-process servers",
    )
    scenarios.add_argument(
        "--mixes", nargs="*", default=None,
        help="scenario names to run (default: the whole registry)",
    )
    scenarios.add_argument(
        "--backends", nargs="*", default=["tierbase", "lsm"],
        choices=["tierbase", "lsm"], help="backends to run the matrix against",
    )
    scenarios.add_argument("--ops", type=int, default=512, help="operations per mix")
    scenarios.add_argument("--rate", type=float, default=2000.0, help="offered arrival rate (ops/s)")
    scenarios.add_argument("--clients", type=int, default=4, help="load-generator worker threads")
    scenarios.add_argument("--records", type=int, default=256, help="records preloaded per mix")
    scenarios.add_argument("--values", type=int, default=256, help="dataset values generated per mix")
    scenarios.add_argument("--shards", type=int, default=2, help="service shard count")
    scenarios.add_argument(
        "--compressor", default="pbc_f",
        choices=["none", *trainable_codec_names()],
        help="per-shard value compressor (default pbc_f)",
    )
    scenarios.add_argument("--seed", type=int, default=2023, help="workload seed")
    scenarios.add_argument("--raw", action="store_true", help="print one JSON row per mix instead of a table")
    scenarios.add_argument("--output", default=None, help="write the per-mix rows to this JSON file")
    scenarios.set_defaults(func=_cmd_scenarios)

    experiments = subparsers.add_parser("experiments", help="list the registered paper experiments")
    experiments.set_defaults(func=_cmd_experiments)

    experiment = subparsers.add_parser("experiment", help="run one registered experiment")
    experiment.add_argument("id", help="experiment id (see 'pbc experiments')")
    experiment.set_defaults(func=_cmd_experiment)

    oplog = subparsers.add_parser(
        "oplog", help="inspect LSN-stamped operation-log artifacts"
    )
    oplog_sub = oplog.add_subparsers(dest="oplog_command", required=True)

    oplog_dump = oplog_sub.add_parser(
        "dump", help="decode a WAL/oplog file record by record (stops at torn tail)"
    )
    oplog_dump.add_argument("file", help="path to the log file")
    oplog_dump.add_argument(
        "--start-lsn", type=int, default=0,
        help="LSN the file is expected to continue from (default 0)",
    )
    oplog_dump.add_argument("--raw", action="store_true", help="print records as JSON")
    oplog_dump.set_defaults(func=_cmd_oplog_dump)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
