"""The one load driver: every transport, both loops, any operation source.

:func:`run_load` fans ``workers`` threads out over a shared operation
counter.  Three things vary between the runs this repo makes, and each is an
argument rather than a copy of the loop:

* **transport** is the object ``connect()`` returns — anything with the
  ``get``/``set``/``mget``/``mset``/``scan`` surface that
  :class:`~repro.service.KVService` (in-process) and
  :class:`~repro.net.KVClient` (over the wire) share.  ``connect`` is called
  once per worker; the caller owns what it returns (:func:`per_worker` turns
  a client factory into a ``connect`` that closes every client it opened);
* **loop** is ``rate``: ``None`` is *closed loop* — a worker issues its next
  call the moment the previous one answers, and latency runs from the send —
  while a number is the *open-loop* timetable: call ``i`` is released at
  ``start + i / rate`` whether or not earlier calls have answered, and
  latency runs from that **scheduled** instant, so queueing under overload
  shows up as latency instead of silently slowing the offered load;
* **operation source** is the ``operation(target, rng, index)`` callback,
  which performs one round trip and returns ``(label, n_ops)``.
  :func:`mixed_operation` is the fixed GET/SET mix; the
  :mod:`repro.scenarios` mixes are callbacks of the same shape.

Call ``i`` always draws from ``Random(f"{seed}:{i}")`` whichever worker runs
it, so one seed issues the same operations in-process and over the wire.

This module imports only the standard library and :mod:`repro.exceptions`:
a server process never loads it.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterable, Iterator, Sequence

from repro.exceptions import LoadError

__all__ = [
    "LoadResult",
    "Operation",
    "Oracle",
    "default_keys",
    "mixed_operation",
    "per_worker",
    "preload",
    "run_load",
]

#: ``operation(target, rng, index) -> (label, n_ops)``: one round trip.
Operation = Callable[[object, random.Random, int], "tuple[str, int]"]


class Oracle:
    """The lost / corrupt / unordered check every read goes through.

    A read of a key that must exist answering ``None`` is **lost**; a value
    outside the universe of values ever written is **corrupt** (a torn or
    stale decode); a scan whose keys do not strictly ascend is **unordered**.
    Checks are lock-free; only an anomaly takes the lock to be tallied.
    """

    def __init__(self, values: Iterable[str]) -> None:
        self._universe = frozenset(values)
        self._lock = threading.Lock()
        self.lost = 0
        self.corrupt = 0
        self.unordered = 0

    def check_value(self, value: str | None) -> None:
        """One point read of a key the caller knows was written."""
        if value is None:
            with self._lock:
                self.lost += 1
        elif value not in self._universe:
            with self._lock:
                self.corrupt += 1

    def check_scan(self, pairs: Sequence[tuple[str, str]], expected: int, limit: int) -> None:
        """One range scan that must hold ``expected <= len(pairs) <= limit`` records."""
        unordered = 0
        previous = None
        for key, value in pairs:
            if previous is not None and key <= previous:
                unordered += 1
            previous = key
            self.check_value(value)
        missing = max(expected - len(pairs), 0)
        surplus = max(len(pairs) - limit, 0)
        if unordered or missing or surplus:
            with self._lock:
                self.unordered += unordered
                self.lost += missing
                self.corrupt += surplus


@dataclass
class LoadResult:
    """Outcome of one :func:`run_load` run."""

    #: calls the run released (== the requested count).
    offered: int
    #: calls that returned / that raised; ``completed + errors == offered``.
    completed: int
    errors: int
    elapsed_seconds: float
    workers: int
    #: the open-loop arrival rate in calls/second; ``None`` for a closed loop.
    rate: float | None
    #: operations completed per label (the sum of each call's ``n_ops``) — the
    #: client-side tally server counters reconcile against.
    counts: dict[str, int] = field(default_factory=dict)
    #: per-label latencies in seconds, **sorted**; one sample per call,
    #: divided by its ``n_ops`` (a batch amortises its round trip).
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: error tallies by exception kind ("RateLimitedError", ...).
    error_kinds: dict[str, int] = field(default_factory=dict)
    #: the operation's :class:`Oracle` tallies (0 when it carries none).
    lost: int = 0
    corrupt: int = 0
    unordered: int = 0

    @property
    def operations(self) -> int:
        """Operations completed across every label."""
        return sum(self.counts.values())

    @property
    def ops_per_second(self) -> float:
        """Completed operations per second actually sustained."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds

    @property
    def clean(self) -> bool:
        """True when the oracle saw zero anomalies."""
        return self.lost == 0 and self.corrupt == 0 and self.unordered == 0

    def latency_ms(self, fraction: float, label: str | None = None) -> float:
        """Nearest-rank latency percentile in milliseconds (every label if ``None``)."""
        if label is None:
            samples = sorted(itertools.chain.from_iterable(self.latencies.values()))
        else:
            samples = self.latencies.get(label, [])
        if not samples:
            return 0.0
        rank = max(0, min(len(samples) - 1, round(fraction * (len(samples) - 1))))
        return samples[rank] * 1e3

    def summary_rows(self) -> list[dict]:
        """Rows for :func:`repro.bench.render_table`."""
        rows = [
            {"metric": "offered_calls", "value": f"{self.offered:,}"},
            {"metric": "completed_calls", "value": f"{self.completed:,}"},
            {"metric": "errors", "value": self.errors},
            {"metric": "operations", "value": f"{self.operations:,}"},
            {"metric": "workers", "value": self.workers},
            {
                "metric": "offered_rate",
                "value": "closed loop" if self.rate is None else f"{self.rate:,.0f}/s",
            },
            {"metric": "ops_per_second", "value": f"{self.ops_per_second:,.0f}"},
        ]
        for label in sorted(self.latencies):
            for name, fraction in (("p50", 0.50), ("p99", 0.99)):
                rows.append(
                    {
                        "metric": f"{label.lower()}_{name}_ms",
                        "value": f"{self.latency_ms(fraction, label):.3f}",
                    }
                )
        for kind in sorted(self.error_kinds):
            rows.append({"metric": f"errors[{kind}]", "value": self.error_kinds[kind]})
        rows.append({"metric": "lost_responses", "value": self.lost})
        rows.append({"metric": "corrupt_responses", "value": self.corrupt})
        return rows


def default_keys(count: int) -> list[str]:
    """The key space :func:`mixed_operation` runs reuse across preload and load."""
    return [f"kv:{index}" for index in range(count)]


@contextmanager
def per_worker(factory: Callable[[], ContextManager]) -> Iterator[Callable[[], object]]:
    """Yield a ``connect()`` that opens one ``factory()`` target per call and
    closes them all on exit — one wire client per worker, owned by the caller::

        with per_worker(lambda: KVClient(host, port, pool_size=1)) as connect:
            preload(connect(), keys, values)
            result = run_load(connect, operation, calls, workers)
    """
    with ExitStack() as opened:
        yield lambda: opened.enter_context(factory())


def preload(target, keys: Sequence[str], values: Sequence[str], batch: int = 64) -> int:
    """``mset`` ``keys[i] -> values[i % len(values)]`` in frames of ``batch``.

    Returns the number of ``mset`` frames sent — the count a server's
    ``repro_requests_total{opcode="MSET"}`` must reconcile against.
    """
    if not keys or not values:
        raise LoadError("cannot preload an empty key or value set")
    if batch < 1:
        raise LoadError("preload batch must be at least 1")
    frames = 0
    for start in range(0, len(keys), batch):
        target.mset(
            [
                (keys[index], values[index % len(values)])
                for index in range(start, min(start + batch, len(keys)))
            ]
        )
        frames += 1
    return frames


def mixed_operation(
    keys: Sequence[str],
    values: Sequence[str],
    operations: int,
    get_fraction: float = 0.7,
    batch: int = 1,
    pipeline: bool = False,
) -> tuple[Operation, int]:
    """The fixed GET/SET mix over ``keys``; returns ``(operation, calls)``.

    Each call is all-GET with probability ``get_fraction``, else all-SET
    (overwrites with values from ``values``, not inserts, so cache
    invalidation stays exercised), over uniformly random keys.  ``batch == 1``
    issues single ``get``/``set`` frames; a larger batch issues one
    ``mget``/``mset`` of that size per call, or — with ``pipeline`` —
    ``batch`` single-key frames through ``target.pipeline()`` in one round
    trip.  ``calls`` is how many calls issue exactly ``operations``
    operations (the last one is short when ``batch`` does not divide them);
    pass it to :func:`run_load`.  Every GET result goes through the
    operation's :class:`Oracle`.
    """
    if operations < 1:
        raise LoadError("workload needs at least one operation")
    if not 0.0 <= get_fraction <= 1.0:
        raise LoadError("get fraction must be within [0, 1]")
    if batch < 1:
        raise LoadError("batch size and pipeline depth must be at least 1")
    if not keys or not values:
        raise LoadError("workload needs at least one key and one value")
    oracle = Oracle(values)

    def operation(target, rng: random.Random, index: int) -> tuple[str, int]:
        size = min(batch, operations - index * batch)
        is_get = rng.random() < get_fraction
        picked = [keys[rng.randrange(len(keys))] for _ in range(size)]
        if is_get:
            if pipeline:
                pipe = target.pipeline()
                for key in picked:
                    pipe.get(key)
                results = pipe.execute()
            elif batch == 1:
                results = [target.get(picked[0])]
            else:
                results = target.mget(picked)
            for result in results:
                oracle.check_value(result)
            return "GET", size
        items = [(key, values[rng.randrange(len(values))]) for key in picked]
        if pipeline:
            pipe = target.pipeline()
            for key, value in items:
                pipe.set(key, value)
            pipe.execute()
        elif batch == 1:
            target.set(*items[0])
        else:
            target.mset(items)
        return "SET", size

    operation.oracle = oracle
    return operation, -(-operations // batch)


def run_load(
    connect: Callable[[], object],
    operation: Operation,
    operations: int,
    workers: int,
    rate: float | None = None,
    seed: int = 2023,
) -> LoadResult:
    """Issue exactly ``operations`` calls of ``operation`` from ``workers`` threads.

    Workers pull the next call index from one shared counter, so the count
    is exact and the open-loop timetable is global, not per-worker.  An
    exception raised by ``operation`` is tallied under its ``kind`` (the
    server-side name for relayed errors, else the exception's type name) and
    the run goes on; anything else that kills a worker — ``connect()``
    failing, a malformed return value — is re-raised here after every worker
    has joined.  When ``operation`` carries an ``oracle`` attribute, its
    tallies are copied into the result.
    """
    if operations < 1:
        raise LoadError("workload needs at least one operation")
    if workers < 1:
        raise LoadError("workload needs at least one worker")
    if rate is not None and rate <= 0:
        raise LoadError("open-loop rate must be positive")

    next_index = itertools.count()
    index_lock = threading.Lock()
    # Per-worker tallies, merged after the join: nothing shared on the hot path.
    counts = [Counter() for _ in range(workers)]
    latencies = [defaultdict(list) for _ in range(workers)]
    error_kinds = [Counter() for _ in range(workers)]
    crashes: list[BaseException] = []
    start_time = time.perf_counter()

    def worker_loop(worker_id: int) -> None:
        try:
            target = connect()
            while True:
                with index_lock:
                    index = next(next_index)
                if index >= operations:
                    return
                if rate is None:
                    released = time.perf_counter()
                else:
                    # A worker that falls behind issues late calls at once;
                    # the lateness is part of what open loop measures.
                    released = start_time + index / rate
                    delay = released - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                rng = random.Random(f"{seed}:{index}")
                try:
                    outcome = operation(target, rng, index)
                except Exception as error:  # noqa: BLE001 — tallied, run continues
                    kind = getattr(error, "kind", type(error).__name__)
                    error_kinds[worker_id][kind] += 1
                    continue
                label, n_ops = outcome
                latencies[worker_id][label].append(
                    (time.perf_counter() - released) / n_ops
                )
                counts[worker_id][label] += n_ops
        except BaseException as error:  # noqa: BLE001 — re-raised after join
            crashes.append(error)

    threads = [
        threading.Thread(target=worker_loop, args=(worker_id,), name=f"loadgen-{worker_id}")
        for worker_id in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start_time
    if crashes:
        raise crashes[0]

    merged_latencies: dict[str, list[float]] = defaultdict(list)
    for per_worker in latencies:
        for label, samples in per_worker.items():
            merged_latencies[label].extend(samples)
    for samples in merged_latencies.values():
        samples.sort()
    merged_errors = sum(error_kinds, Counter())
    oracle = getattr(operation, "oracle", None)
    return LoadResult(
        offered=operations,
        completed=sum(len(samples) for samples in merged_latencies.values()),
        errors=sum(merged_errors.values()),
        elapsed_seconds=elapsed,
        workers=workers,
        rate=rate,
        counts=dict(sum(counts, Counter())),
        latencies=dict(merged_latencies),
        error_kinds=dict(merged_errors),
        lost=oracle.lost if oracle else 0,
        corrupt=oracle.corrupt if oracle else 0,
        unordered=oracle.unordered if oracle else 0,
    )
