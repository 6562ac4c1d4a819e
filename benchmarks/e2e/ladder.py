"""The traced run: one op stream replayed down the layer ladder.

    wire (KVClient -> ``repro serve``)  ->  KVService in-process  ->  bare
    TierBase / LSMEngine  ->  OperationLog  ->  record codec  ->  core
    compressors  ->  wire frames

Every rung is called from this file's own wrapper, which records one span per
op — name, start, end, parent span, op id — in memory and writes them as JSON
lines when the run ends.  The same op id names the same op on every rung, so
a layer's *self time* is its rung's span minus the span of the rung below
(``net.self_get_us = wire - service``, ``service.self_get_us = service -
store``): the self times of a ladder sum to the wire rung by construction.

End-to-end metrics never come from here; a traced run reports the per-layer
metrics only.  ``trace.overhead_share`` is measured on the wire rung itself:
the stream's reads again, each chunk once untraced and once traced.

The ladder is smaller than the workload (a quarter of the preload, 3 000 ops
of its mix) so that a traced run still fits the run budget; spans inside
``src/repro`` are a later change (ROADMAP item 4).
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import proc
import workloads
from protocol import READ, SCAN, WRITE, Inputs, Outcome, Plan, set_up
from systems import COMPRESSOR, SCAN_RECORDS, SHARDS

#: share of the workload's preload the ladder loads, and the ops of the
#: workload's mix it replays at ``--seconds 20`` (scaled like every count).
PRELOAD_SHARE = 0.25
LADDER_OPS = 3_000
#: reads per chunk of the tracing-overhead probe.
OVERHEAD_CHUNK = 50
PINGS = 400
MGETS = 20
FLUSH_ROUNDS = 5
FLUSH_RECORDS = 300
KINDS = ("get", "set", "scan")


class Tracer:
    """In-memory span log; a span's id is its index."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent id or None, op id or None)
        self.spans: list[tuple] = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append((name, time.perf_counter_ns(), 0, parent, None))
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        name, start, _, parent, op = self.spans[span]
        self.spans[span] = (name, start, time.perf_counter_ns(), parent, op)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "op": op}) + "\n")


def replay(tracer: Tracer, rung: str, parent: int, ops, first_op: int,
           read, write, scan, model: dict) -> tuple[dict[str, list[int]], int]:
    """One span per op through one rung; returns per-kind durations (ns) by
    op id and the number of reads that disagreed with ``model``."""
    clock, spans = time.perf_counter_ns, tracer.spans
    names = tuple(f"{rung}.{kind}" for kind in KINDS)
    durations: dict[str, list[int]] = {kind: [] for kind in KINDS}
    wrong = 0
    for op, (kind, key, value) in enumerate(ops, first_op):
        start = clock()
        if kind == READ:
            got = read(key)
        elif kind == WRITE:
            got = write(key, value)
        else:
            got = scan(key)
        end = clock()
        spans.append((names[kind], start, end, parent, op))
        durations[KINDS[kind]].append(end - start)
        if kind == READ:
            wrong += got != model[key]
        elif kind == WRITE:
            model[key] = value
    return durations, wrong


def _median_us(samples: list[int]) -> float:
    return statistics.median(samples) / 1e3 if samples else 0.0


def _per_record_us(function, items) -> tuple[float, list]:
    """Run ``function`` over ``items``; microseconds per item, and results."""
    started = time.perf_counter_ns()
    results = [function(item) for item in items]
    return (time.perf_counter_ns() - started) / 1e3 / len(items), results


def _rung_metrics(outcome: Outcome, prefix: str, durations: dict[str, list[int]],
                  write: str = "set") -> None:
    outcome.put(f"{prefix}.get_us", _median_us(durations["get"]), "us", len(durations["get"]))
    outcome.put(f"{prefix}.{write}_us", _median_us(durations["set"]), "us", len(durations["set"]))
    outcome.put(f"{prefix}.scan100_ms", _median_us(durations["scan"]) / 1e3, "ms",
                len(durations["scan"]))


# ------------------------------------------------------------------ store rungs


def _wire_rung(tracer, root, small, inputs, ops, work, cpus, outcome) -> dict:
    wire = dataclasses.replace(small, system="wire", kill=True)
    system, _, _ = set_up(wire, inputs, work / "ladder-wire", cpus)
    try:
        model = dict(enumerate(inputs.values[: small.preload]))
        rung = tracer.open("wire", root)
        durations, wrong = replay(tracer, "wire", rung, ops, 0, system.read, system.write,
                                  system.scan, model)
        outcome.failed += wrong
        # Tracing overhead on like for like: the same reads, untraced and
        # traced back to back, the order alternating from chunk to chunk.
        reads = [op for op in ops if op[0] == READ]
        ratios = []
        for index, start in enumerate(range(0, len(reads) - OVERHEAD_CHUNK + 1, OVERHEAD_CHUNK)):
            chunk = reads[start : start + OVERHEAD_CHUNK]
            seconds = {}
            for traced in (index % 2, 1 - index % 2):
                began = time.perf_counter()
                if traced:
                    replay(tracer, "wire", rung, chunk, len(ops), system.read, None, None, model)
                else:
                    for _, key, _ in chunk:
                        system.read(key)
                seconds[traced] = time.perf_counter() - began
            ratios.append(seconds[1] / seconds[0])
        tracer.close(rung)
        pings = []
        for _ in range(PINGS):
            began = time.perf_counter_ns()
            system.ping()
            pings.append(time.perf_counter_ns() - began)
    finally:
        system.discard()
    outcome.attempted += len(ops)
    outcome.put("net.ping_us", _median_us(pings), "us", len(pings))
    outcome.put("trace.overhead_share", statistics.median(ratios) - 1.0 if ratios else 0.0,
                "share", len(ratios))
    return durations


def _service_rung(tracer, root, small, inputs, ops, work, cpus, outcome) -> dict:
    service = dataclasses.replace(small, system="service")
    system, _, _ = set_up(service, inputs, work / "ladder-service", cpus)
    try:
        model = dict(enumerate(inputs.values[: small.preload]))
        rung = tracer.open("service", root)
        durations, wrong = replay(tracer, "service", rung, ops, 0, system.read,
                                  system.write, system.scan, model)
        tracer.close(rung)
        outcome.failed += wrong
        hit_share = system.cache_hit_share()
        mgets = []
        for index in range(MGETS):
            first = index * SCAN_RECORDS % (small.preload - SCAN_RECORDS)
            began = time.perf_counter_ns()
            system.readback(first, SCAN_RECORDS)
            mgets.append((time.perf_counter_ns() - began) / SCAN_RECORDS)
    finally:
        system.discard()
    outcome.attempted += len(ops)
    _rung_metrics(outcome, "service", durations)
    outcome.put("service.mget100_us_per_key", _median_us(mgets), "us", len(mgets))
    outcome.put("service.cache_hit_share", hit_share, "share", len(durations["get"]))
    return durations


def _tierbase_rung(tracer, root, preload, inputs, ops, work, outcome) -> dict:
    from repro.service import make_value_compressor
    from repro.tierbase import TierBase

    keys, values = inputs.keys, inputs.values
    store = TierBase(compressor=make_value_compressor(COMPRESSOR))
    store.train(inputs.training)
    for index in preload:
        store.set(keys[index], values[index])
    model = {index: values[index] for index in preload}
    rung = tracer.open("tierbase", root)
    durations, wrong = replay(
        tracer, "tierbase", rung, ops, 0,
        lambda key: store.get(keys[key]),
        lambda key, value: store.set(keys[key], value),
        lambda key: list(store.scan(keys[key], None, SCAN_RECORDS)),
        model,
    )
    tracer.close(rung)
    outcome.failed += wrong
    stats = store.stats()
    path = work / "ladder-tierbase.tbs"
    began = time.perf_counter()
    store.save(path)
    saved = time.perf_counter() - began
    began = time.perf_counter()
    reloaded = TierBase.load(path, compressor=make_value_compressor(COMPRESSOR))
    loaded = time.perf_counter() - began
    outcome.failed += len(reloaded) != len(store)
    _rung_metrics(outcome, "tierbase", durations)
    outcome.put("tierbase.bytes_per_key", stats.memory_bytes / stats.keys, "B", stats.keys)
    outcome.put("tierbase.value_ratio", stats.value_ratio, "share", stats.keys)
    outcome.put("tierbase.save_s", saved, "s", 1)
    outcome.put("tierbase.load_s", loaded, "s", 1)
    return durations


def _lsm_rung(tracer, root, preload, inputs, ops, work, outcome) -> dict:
    from repro.compressors import GzipCodec
    from repro.lsm import BlockCompressionPolicy, LSMEngine, PlainPolicy, RecordCompressionPolicy
    from repro.service import make_value_compressor

    keys, values = inputs.keys, inputs.values
    directory = work / "ladder-lsm"

    def open_engine():
        # The tiering a service shard uses: L0 plain, L1 gzip blocks, L2+
        # per-record pbc_f; flush-mode WAL, background compaction.
        return LSMEngine(
            directory, policy=policy, background_compaction=True,
            level_policies={0: PlainPolicy(), 1: BlockCompressionPolicy(GzipCodec()), 2: policy},
        )

    compressor = make_value_compressor(COMPRESSOR)
    compressor.train(inputs.training)
    policy = RecordCompressionPolicy(compressor)
    engine = open_engine()
    try:
        io_before = proc.sample().write_chars
        user_bytes = 0
        for index in preload:
            engine.put(keys[index], values[index])
            user_bytes += len(values[index])
        model = {index: values[index] for index in preload}
        rung = tracer.open("lsm", root)
        durations, wrong = replay(
            tracer, "lsm", rung, ops, 0,
            lambda key: engine.get(keys[key]),
            lambda key, value: engine.put(keys[key], value),
            lambda key: list(engine.scan(keys[key], None, SCAN_RECORDS)),
            model,
        )
        tracer.close(rung)
        outcome.failed += wrong
        user_bytes += sum(len(value) for kind, _, value in ops if kind == WRITE)
        misses = [f"m{index:08d}" for index in range(len(durations["get"]) or 1)]
        miss_us, found = _per_record_us(engine.get, misses)
        outcome.failed += sum(1 for value in found if value is not None)
        flushes = []
        for round_ in range(FLUSH_ROUNDS):
            for index in range(FLUSH_RECORDS):
                engine.put(f"f{round_}-{index:06d}", values[index])
                user_bytes += len(values[index])
            began = time.perf_counter()
            engine.flush()
            flushes.append((time.perf_counter() - began) * 1e3)
        deadline = time.monotonic() + 30
        while engine.disk_stats().pending_compaction_bytes and time.monotonic() < deadline:
            time.sleep(0.02)
        stats, disk = engine.stats(), engine.disk_stats()
        written = proc.sample().write_chars - io_before
    finally:
        engine.close()
    began = time.perf_counter()
    engine = open_engine()
    recovered = time.perf_counter() - began
    engine.close()
    _rung_metrics(outcome, "lsm", durations, write="put")
    outcome.put("lsm.get_miss_us", miss_us, "us", len(misses))
    outcome.put("lsm.flush_ms", statistics.median(flushes), "ms", len(flushes))
    outcome.put("lsm.recover_s", recovered, "s", 1)
    outcome.put("lsm.flushes", stats.flushes, "count", 1)
    outcome.put("lsm.compactions", disk.compactions, "count", 1)
    outcome.put("lsm.stall_s", disk.compaction_stall_seconds, "s", 1)
    outcome.put("lsm.sstables", disk.sstable_count, "count", 1)
    outcome.put("lsm.levels", disk.levels, "count", 1)
    outcome.put("lsm.space_ratio", stats.space_ratio, "share", 1)
    outcome.put("lsm.write_amp", written / user_bytes, "x", user_bytes)
    return durations


# ------------------------------------------------------------- lower rungs


def _oplog_rung(tracer, root, inputs, ops, work, outcome) -> None:
    from repro.oplog import OP_PUT, DiskSink, OperationLog, OpRecord, encode_record

    writes = [(inputs.keys[key], value.encode("utf-8"))
              for kind, key, value in ops if kind == WRITE]
    path = work / "ladder-oplog.log"
    sink = DiskSink(path, sync_mode="flush")
    log = OperationLog(sinks=[sink])
    rung = tracer.open("oplog", root)
    append_us, _ = _per_record_us(lambda item: log.append(OP_PUT, item[0], item[1]), writes)
    tracer.close(rung)
    size, fsyncs = sink.size_bytes, sink.fsyncs
    sink.close()
    encode_us, _ = _per_record_us(
        lambda item: encode_record(OpRecord(lsn=1, op=OP_PUT, key=item[0], value=item[1])), writes
    )
    reader = DiskSink(path, sync_mode="flush")
    began = time.perf_counter_ns()
    replayed = sum(1 for _ in reader.replay())
    replay_us = (time.perf_counter_ns() - began) / 1e3 / len(writes)
    reader.close()
    outcome.failed += replayed != len(writes)
    outcome.put("oplog.encode_us", encode_us, "us", len(writes))
    outcome.put("oplog.append_us", append_us, "us", len(writes))
    outcome.put("oplog.replay_us_per_rec", replay_us, "us", len(writes))
    outcome.put("oplog.bytes_per_rec", size / len(writes), "B", len(writes))
    outcome.put("oplog.fsyncs", fsyncs, "count", 1)


def _codec_rungs(tracer, root, inputs, records, outcome) -> None:
    from repro import PBCCompressor, PBCFCompressor
    from repro.codecs import DEFAULT_EXTRACTION, codec_by_name, versioned_codec

    sample = inputs.training
    total = sum(len(record.encode("utf-8")) for record in records)

    rung = tracer.open("core", root)
    plain = PBCCompressor(config=DEFAULT_EXTRACTION)
    began = time.perf_counter()
    plain.train(sample)
    outcome.put("core.train_s", time.perf_counter() - began, "s", len(sample))
    plain_c, payloads = _per_record_us(plain.compress, records)
    plain_d, restored = _per_record_us(plain.decompress, payloads)
    outcome.failed += restored != records
    plain_ratio = sum(map(len, payloads)) / total
    tracer.close(rung)
    outcome.put("core.compress_us_per_rec", plain_c, "us", len(records))
    outcome.put("core.decompress_us_per_rec", plain_d, "us", len(records))
    outcome.put("core.patterns", len(plain.dictionary), "count", 1)
    outcome.put("core.outlier_share", plain.outlier_rate, "share", len(records))
    outcome.put("core.ratio", plain_ratio, "share", len(records))

    rung = tracer.open("compressors", root)
    residual = PBCFCompressor(dictionary=plain.dictionary)
    residual.train_residual(sample)
    full_c, payloads = _per_record_us(residual.compress, records)
    full_d, restored = _per_record_us(residual.decompress, payloads)
    outcome.failed += restored != records
    tracer.close(rung)
    outcome.put("compressors.residual_compress_us_per_rec", full_c - plain_c, "us", len(records))
    outcome.put("compressors.residual_decompress_us_per_rec", full_d - plain_d, "us",
                len(records))
    outcome.put("compressors.residual_ratio_gain",
                plain_ratio / (sum(map(len, payloads)) / total), "x", len(records))

    rung = tracer.open("codecs", root)
    codec = codec_by_name(COMPRESSOR)
    began = time.perf_counter()
    model = codec.train(sample)
    outcome.put("codecs.train_s", time.perf_counter() - began, "s", len(sample))
    began = time.perf_counter()
    codec.record_coder(model)
    outcome.put("codecs.model_load_ms", (time.perf_counter() - began) * 1e3, "ms", 1)
    outcome.put("codecs.model_bytes", len(model), "B", 1)
    versioned = versioned_codec(COMPRESSOR)
    versioned.models.install(model, trained_records=len(sample))
    encode, payloads = _per_record_us(versioned.compress_record, records)
    decode, restored = _per_record_us(versioned.decompress_record, payloads)
    outcome.failed += restored != records
    tracer.close(rung)
    outcome.put("codecs.encode_us_per_rec", encode, "us", len(records))
    outcome.put("codecs.decode_us_per_rec", decode, "us", len(records))
    outcome.put("codecs.self_encode_us_per_rec", encode - full_c, "us", len(records))
    outcome.attempted += 3 * len(records)


def _frame_rung(tracer, root, inputs, ops, outcome) -> None:
    from repro.net import FrameDecoder, GetRequest, OkResponse, SetRequest, ValueResponse
    from repro.net.protocol import encode_frame

    messages = []
    for kind, key, value in ops:
        name = inputs.keys[key].encode("utf-8")
        if kind == READ:
            messages += [GetRequest(key=name),
                         ValueResponse(value=inputs.values[key % len(inputs.values)].encode())]
        elif kind == WRITE:
            messages += [SetRequest(key=name, value=value.encode("utf-8")), OkResponse()]
    rung = tracer.open("frames", root)
    encode_us, frames = _per_record_us(encode_frame, messages)
    decoder = FrameDecoder()
    decode_us, decoded = _per_record_us(decoder.feed, frames)
    tracer.close(rung)
    outcome.failed += sum(1 for message in decoded if len(message) != 1)
    outcome.put("net.encode_us_per_frame", encode_us, "us", len(frames))
    outcome.put("net.decode_us_per_frame", decode_us, "us", len(frames))
    outcome.put("net.bytes_per_op", 2 * sum(map(len, frames)) / len(frames), "B", len(frames) // 2)


# ------------------------------------------------------------------------- run


def run(plan: Plan, scale: float, work: Path, cpus: proc.CpuPlan, outcome: Outcome,
        seed: int) -> None:
    """Replay the ladder; adds every ladder metric to ``outcome``."""
    from repro.service import ShardRouter

    small = dataclasses.replace(
        plan,
        backend=plan.backend or "tierbase",
        datasets=plan.datasets[:1],
        preload=int(plan.preload * PRELOAD_SHARE),
        depth1_ops=int(LADDER_OPS * scale),
        depth16_ops=0,
    )
    inputs: Inputs = workloads.generate(small, seed)
    # Every generated op, in generation order: the key space grows with it.
    ops = list(inputs.warmup)
    for single, batched in zip(inputs.depth1, inputs.depth16):
        ops += single + batched
    tracer = Tracer()
    root = tracer.open("ladder")
    wire = _wire_rung(tracer, root, small, inputs, ops, work, cpus, outcome)
    service = _service_rung(tracer, root, small, inputs, ops, work, cpus, outcome)
    # A bare store holds what one of the service's shards holds: the keys
    # (and the point ops on them) that the service routes to shard 0.
    router = ShardRouter(SHARDS)
    mine = [router.shard_for(key) == 0 for key in inputs.keys]
    preload = [index for index in range(small.preload) if mine[index]]
    shard_ops = [op for op in ops if op[0] == SCAN or mine[op[1]]]
    stores = {
        "tierbase": _tierbase_rung(tracer, root, preload, inputs, shard_ops, work, outcome),
        "lsm": _lsm_rung(tracer, root, preload, inputs, shard_ops, work, outcome),
    }
    store = stores[small.backend]
    _oplog_rung(tracer, root, inputs, ops, work, outcome)
    _codec_rungs(tracer, root, inputs, inputs.values[: len(ops)], outcome)
    _frame_rung(tracer, root, inputs, ops, outcome)
    tracer.close(root)

    _rung_metrics(outcome, "net", wire)
    for kind in ("get", "set"):
        top, middle, bottom = (_median_us(rung[kind]) for rung in (wire, service, store))
        outcome.put(f"net.self_{kind}_us", top - middle, "us", len(wire[kind]))
        outcome.put(f"service.self_{kind}_us", middle - bottom, "us", len(service[kind]))
    outcome.put("trace.spans", len(tracer.spans), "count", 1)
    tracer.write(proc.TRACES / f"{plan.workload}-seed{seed}.jsonl")
