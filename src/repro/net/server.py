"""Blocking ``RKV1`` server fronting a :class:`~repro.service.KVService`.

One accept thread, plus one thread per connection.  A connection thread runs
``recv`` → :class:`~repro.net.protocol.FrameDecoder` → dispatch inline: the
service call runs on the connection's own thread (``KVService`` takes the
shard lock on its caller), and the whole burst of responses goes back in one
``sendall``.

* **pipelining** — a client may send many frames before reading; the thread
  answers them in request order.  Execution is *sequential per connection*
  (the RESP model): pipelining amortises network round trips, it does not
  reorder effects — two pipelined SETs of one key land in request order.
  Requests on different connections run concurrently, and a single
  ``MGET``/``MSET`` frame still fans out across shards inside
  :class:`KVService`;
* **backpressure** — at most ``max_inflight`` frames per connection are
  decoded but not yet answered; the thread does not read the socket while it
  executes them, so a client that pipelines faster than the service answers
  fills its TCP window, not server memory.

Server-side exceptions never tear down a connection: they are relayed as
:class:`~repro.net.protocol.ErrorResponse` frames carrying the exception class
name (``ModelEpochError``, ``ServiceError``, …) and message.  The one
exception is a :class:`~repro.exceptions.ProtocolError` from the decoder —
after malformed bytes the stream cannot be re-synchronised, so the server
answers the frames decoded before them, sends a final ERR frame and closes
that connection (others are unaffected).

Observability and overload protection (:mod:`repro.obs`): every dispatch is
counted and timed into the server's :class:`~repro.obs.MetricsRegistry`
(``repro_requests_total`` / ``repro_request_latency_seconds`` by opcode), the
registry is scrapeable over both the ``METRICS`` opcode and the optional
``GET /metrics`` HTTP sidecar (``ServerConfig.metrics_port``), and
:meth:`KVServer._enforce_limits` refuses over-budget or oversized requests
with typed :class:`~repro.exceptions.RateLimitedError` /
:class:`~repro.exceptions.LimitExceededError` ERR frames — rejections refuse
one request, never the connection, and each increments a labelled
``repro_rejections_total`` sample (docs/ARCHITECTURE.md, "Observability").

``stop(drain=True)`` is a graceful drain: stop accepting, wake every blocked
read with ``shutdown(SHUT_RD)``, answer every request already received, join
the connection threads within ``drain_timeout``, and finally
``KVService.flush()`` the shards so every answered write is durable before
the process exits (the ``repro serve --data-dir`` restart contract).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

from repro.exceptions import (
    LimitExceededError,
    NetError,
    ProtocolError,
    RateLimitedError,
    ServiceError,
)
from repro.net.protocol import (
    DEFAULT_MAX_BODY,
    CountResponse,
    DeleteRequest,
    ErrorResponse,
    FrameDecoder,
    GetRequest,
    Message,
    MetricsRequest,
    MetricsResponse,
    MGetRequest,
    MSetRequest,
    MultiKeyValueResponse,
    MultiValueResponse,
    OkResponse,
    PingRequest,
    PongResponse,
    ScanRequest,
    SetRequest,
    StatsRequest,
    StatsResponse,
    ValueResponse,
    encode_frame,
)
from repro.obs.exposition import AcceptLoop, MetricsHTTPServer, render_text
from repro.obs.limits import RequestLimits, SlowRequestLog, TokenBucket
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.service.service import KVService

#: Socket read chunk size.
_READ_CHUNK = 64 * 1024

#: SCAN response chunking: a chunk closes at this many pairs or this many
#: payload bytes, whichever comes first.  Bounded chunks keep any single
#: frame small, so a huge range cannot head-of-line-block the responses
#: pipelined behind it on the same connection.
SCAN_CHUNK_PAIRS = 256
SCAN_CHUNK_BYTES = 64 * 1024

#: Cap on emitted slow-request log lines per second.
SLOW_LOG_PER_SECOND = 1.0


def _chunk_scan_results(results: list[tuple[str, str]]) -> list[MultiKeyValueResponse]:
    """Split scan results into bounded MKVALUE frames, the last one final."""
    frames: list[MultiKeyValueResponse] = []
    pairs: list[tuple[bytes, bytes]] = []
    chunk_bytes = 0
    for key, value in results:
        pair = (key.encode("utf-8"), value.encode("utf-8"))
        pairs.append(pair)
        chunk_bytes += len(pair[0]) + len(pair[1])
        if len(pairs) >= SCAN_CHUNK_PAIRS or chunk_bytes >= SCAN_CHUNK_BYTES:
            frames.append(MultiKeyValueResponse(pairs=tuple(pairs), final=False))
            pairs, chunk_bytes = [], 0
    frames.append(MultiKeyValueResponse(pairs=tuple(pairs), final=True))
    return frames


@dataclass(frozen=True)
class ServerConfig:
    """Configuration of a :class:`KVServer`."""

    #: interface to bind ("127.0.0.1" keeps the bench/test server local).
    host: str = "127.0.0.1"
    #: TCP port; 0 picks an ephemeral port (read it back from ``address``).
    port: int = 0
    #: pipelined requests decoded but not yet answered per connection; the
    #: connection's thread reads no more until they are (backpressure).
    max_inflight: int = 64
    #: frame body size limit handed to the decoder.
    max_body: int = DEFAULT_MAX_BODY
    #: seconds ``stop(drain=True)`` waits before force-closing connections.
    drain_timeout: float = 10.0
    #: whether the server records metrics at all (``False`` swaps the whole
    #: registry for no-op instruments — the bench-comparison baseline).
    metrics_enabled: bool = True
    #: port for the ``GET /metrics`` HTTP sidecar (``None`` = no sidecar,
    #: 0 = ephemeral; the ``METRICS`` opcode works either way).
    metrics_port: int | None = None
    #: largest accepted SET / MSET value in bytes (0 = unlimited).
    max_value_bytes: int = 0
    #: largest accepted MGET / MSET batch item count (0 = unlimited).
    max_batch_items: int = 0
    #: per-connection request budget in requests/second (0 = unlimited).
    rate_limit: float = 0.0
    #: token-bucket burst capacity (0 = ``max(1, rate_limit)``).
    rate_burst: int = 0
    #: slow-request log threshold in seconds (0 disables the slow log).
    slow_request_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise NetError("max_inflight must be at least 1")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise NetError("metrics_port must be >= 0 (or None to disable)")
        if self.slow_request_seconds < 0:
            raise NetError("slow_request_seconds must be >= 0 (0 disables)")
        # RequestLimits re-validates the size/rate fields; building it here
        # surfaces a bad value at config time, not at first connection.
        self.limits()

    def limits(self) -> RequestLimits:
        """The per-connection protection policy this config describes."""
        return RequestLimits(
            max_value_bytes=self.max_value_bytes,
            max_batch_items=self.max_batch_items,
            rate_limit=self.rate_limit,
            rate_burst=self.rate_burst,
        )


def _decode_text(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"{what} is not valid UTF-8: {error}") from None


class KVServer:
    """Serve a :class:`KVService` over the ``RKV1`` protocol.

    ``start()`` binds and returns the ``(host, port)`` actually bound;
    ``stop()`` drains gracefully.  Usable as a context manager:

    >>> service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    >>> with KVServer(service) as server:    # doctest: +SKIP
    ...     host, port = server.address     # port 0 = ephemeral
    """

    def __init__(
        self,
        service: KVService,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self._accept: AcceptLoop | None = None
        #: open connections and the thread serving each; ``_lock`` guards it,
        #: the counters below and ``_stopped``.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopped = False
        self.connections_served = 0
        self.protocol_errors = 0
        #: decoded requests not yet answered, and the most there ever were
        self.inflight = self.inflight_high_water = 0
        self._limits = self.config.limits()
        self._slow_log = (
            SlowRequestLog(self.config.slow_request_seconds, per_second=SLOW_LOG_PER_SECOND)
            if self.config.slow_request_seconds > 0
            else None
        )
        #: the server's metric registry; pass one in to share it, or rely on
        #: ``config.metrics_enabled=False`` to make every instrument a no-op.
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=self.config.metrics_enabled)
        )
        self.metrics_sidecar: MetricsHTTPServer | None = None
        # Per-opcode (counter, histogram) children, resolved once per opcode
        # and held — the dispatch hot path skips the labels() lookups.
        self._opcode_cells: dict[str, tuple] = {}
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Create every metric family eagerly (docs pin the full inventory)."""
        registry = self.registry
        self._requests = registry.counter(
            "repro_requests_total",
            "Requests dispatched, by opcode (rejected and errored included).",
            ("opcode",),
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Server-side request latency, by opcode.",
            ("opcode",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._rejections = registry.counter(
            "repro_rejections_total",
            "Requests refused by overload protection, by opcode and reason.",
            ("opcode", "reason"),
        )
        self._slow_requests = registry.counter(
            "repro_slow_requests_total",
            "Requests slower than the slow-request threshold, by opcode.",
            ("opcode",),
        )
        self._inflight = registry.gauge(
            "repro_inflight_requests",
            "Decoded requests queued or executing, summed over connections.",
        )
        self._connections_active = registry.gauge(
            "repro_connections_active", "Currently open client connections."
        )
        self._connections_total = registry.counter(
            "repro_connections_total", "Client connections accepted since start."
        )
        self._protocol_errors = registry.counter(
            "repro_protocol_errors_total",
            "Connections dropped after undecodable bytes.",
        )
        shard_labels = ("shard", "backend", "codec")
        self._shard_keys = registry.gauge(
            "repro_shard_keys", "Live keys per shard.", shard_labels
        )
        self._shard_ratio = registry.gauge(
            "repro_shard_compression_ratio",
            "Stored/original bytes per shard (lower is better).",
            shard_labels,
        )
        self._shard_outliers = registry.gauge(
            "repro_shard_outlier_rate",
            "Fraction of values that matched no trained pattern, per shard.",
            shard_labels,
        )
        self._shard_disk = registry.gauge(
            "repro_shard_bytes_on_disk",
            "Durable footprint per shard (SSTables + WAL, or TBS2 snapshot).",
            shard_labels,
        )
        self._shard_sstables = registry.gauge(
            "repro_shard_sstables", "SSTable file count per shard.", shard_labels
        )
        self._shard_epoch = registry.gauge(
            "repro_shard_model_epoch",
            "Model epoch new writes are stamped with, per shard.",
            shard_labels,
        )
        self._shard_epoch_age = registry.gauge(
            "repro_shard_model_epoch_age_seconds",
            "Seconds since the current model epoch was installed, per shard.",
            shard_labels,
        )
        self._shard_retrains = registry.gauge(
            "repro_shard_retrain_events", "Retraining events per shard.", shard_labels
        )
        self._shard_wal_fsyncs = registry.gauge(
            "repro_shard_wal_fsyncs", "WAL fsync barriers taken, per shard.", shard_labels
        )
        self._shard_wal_fsync_seconds = registry.gauge(
            "repro_shard_wal_fsync_seconds",
            "Cumulative WAL fsync wall time, per shard.",
            shard_labels,
        )
        self._shard_levels = registry.gauge(
            "repro_shard_levels", "Distinct live SSTable levels per shard.", shard_labels
        )
        self._shard_pending_compaction = registry.gauge(
            "repro_shard_pending_compaction_bytes",
            "Bytes in levels at/over the compaction trigger (merge backlog), per shard.",
            shard_labels,
        )
        self._shard_stall_seconds = registry.gauge(
            "repro_shard_compaction_stall_seconds",
            "Cumulative seconds writes spent throttled by L0 admission control, per shard.",
            shard_labels,
        )
        self._shard_compactions = registry.gauge(
            "repro_shard_compactions", "Compaction merges performed, per shard.", shard_labels
        )
        self._shard_last_lsn = registry.gauge(
            "repro_shard_last_lsn",
            "Newest operation-log LSN applied, per shard (read-your-writes watermark).",
            shard_labels,
        )
        self._oplog_subscriber_lag = registry.gauge(
            "repro_oplog_subscriber_lag_records",
            "Worst operation-log subscriber backlog in records, per shard.",
            shard_labels,
        )
        self._cache_hit_rate = registry.gauge(
            "repro_cache_hit_rate", "Service cache hit rate over its lifetime."
        )
        self._cache_entries = registry.gauge(
            "repro_cache_entries", "Entries resident in the service cache."
        )
        self._service_keys = registry.gauge(
            "repro_service_keys", "Live keys across all shards."
        )
        registry.register_collector(self._collect_service_gauges)

    def _collect_service_gauges(self) -> None:
        """Scrape-time bridge: mirror the service snapshot into gauges.

        Runs on the scraping thread (the connection's thread for the
        ``METRICS`` opcode, the sidecar's accept thread for HTTP).  A service that is closed
        or mid-shutdown simply keeps the previous gauge values — a scrape must
        never take a server down.
        """
        if self.service.closed:
            return
        snapshot = self.service.snapshot()
        for shard in snapshot.shards:
            labels = (str(shard.shard_id), shard.backend, shard.compressor)
            self._shard_keys.labels(*labels).set(shard.keys)
            self._shard_ratio.labels(*labels).set(shard.ratio)
            self._shard_outliers.labels(*labels).set(shard.outlier_rate)
            self._shard_disk.labels(*labels).set(shard.bytes_on_disk)
            self._shard_sstables.labels(*labels).set(shard.sstables)
            self._shard_epoch.labels(*labels).set(shard.model_epoch)
            self._shard_epoch_age.labels(*labels).set(shard.model_epoch_age_seconds)
            self._shard_retrains.labels(*labels).set(shard.retrain_events)
            self._shard_wal_fsyncs.labels(*labels).set(shard.wal_fsyncs)
            self._shard_wal_fsync_seconds.labels(*labels).set(shard.wal_fsync_seconds)
            self._shard_levels.labels(*labels).set(shard.levels)
            self._shard_pending_compaction.labels(*labels).set(shard.pending_compaction_bytes)
            self._shard_stall_seconds.labels(*labels).set(shard.compaction_stall_seconds)
            self._shard_compactions.labels(*labels).set(shard.compactions)
            self._shard_last_lsn.labels(*labels).set(shard.last_lsn)
            self._oplog_subscriber_lag.labels(*labels).set(shard.oplog_lag_records)
        self._cache_hit_rate.set(snapshot.cache.hit_rate)
        self._cache_entries.set(snapshot.cache.entries)
        self._service_keys.set(snapshot.keys)

    def render_metrics(self) -> str:
        """The Prometheus exposition text — one renderer for both transports."""
        return render_text(self.registry)

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> tuple[str, int]:
        """Bind, start accepting connections, and return :attr:`address`."""
        if self._accept is not None:
            raise NetError("server is already started")
        if self._stopped:
            raise NetError("server was stopped and cannot be restarted")
        accept = AcceptLoop(
            self.config.host, self.config.port, self._on_connection, "kv-net-accept", "server"
        )
        if self.config.metrics_port is not None:
            sidecar = MetricsHTTPServer(
                self.render_metrics, host=self.config.host, port=self.config.metrics_port
            )
            try:
                sidecar.start()
            except NetError:
                accept.close()
                raise
            self.metrics_sidecar = sidecar
        self._accept = accept
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves an ephemeral port)."""
        if self._accept is None:
            raise NetError("server is not listening")
        return self._accept.address

    @property
    def metrics_address(self) -> tuple[str, int]:
        """``(host, port)`` of the metrics sidecar (raises without one)."""
        if self.metrics_sidecar is None:
            raise NetError("server has no metrics sidecar (set metrics_port)")
        return self.metrics_sidecar.address

    def stop(self, drain: bool = True) -> None:
        """Stop accepting and close every connection.

        With ``drain`` (the default) every request already received is
        answered before its connection closes, bounded by ``drain_timeout``;
        without it, connections are torn down immediately.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        if self.metrics_sidecar is not None:
            self.metrics_sidecar.stop()
        if self._accept is not None:
            self._accept.close()
            self._accept = None
        # The accept thread is joined: no connection registers from here on.
        with self._lock:
            connections = dict(self._connections)
        for connection in connections:
            _shutdown(connection, socket.SHUT_RD if drain else socket.SHUT_RDWR)
        deadline = time.monotonic() + self.config.drain_timeout
        for connection, thread in connections.items():
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                _shutdown(connection, socket.SHUT_RDWR)  # the drain timed out
        if drain and not self.service.closed:
            # Every answered request is now durable: persistent shards write
            # their WAL barrier / TBS2 snapshot before the server exits, so a
            # restart on the same data directory serves every acknowledged key.
            try:
                self.service.flush()
            except ServiceError:
                # The owner closed the service between the check and the
                # flush; close() flushes itself, so nothing was lost.
                if not self.service.closed:
                    raise

    def __enter__(self) -> "KVServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -------------------------------------------------------------- connections

    def _on_connection(self, connection: socket.socket) -> None:
        """Accept-thread callback: hand the connection to a thread of its own."""
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            if self._stopped:
                connection.close()
                return
            thread = threading.Thread(
                target=self._serve,
                args=(connection,),
                name=f"kv-net-conn-{self.connections_served}",
                daemon=True,
            )
            self._connections[connection] = thread
            self.connections_served += 1
            # Started under the lock, so stop() never joins an unstarted thread.
            thread.start()
        self._connections_total.inc()
        self._connections_active.inc()

    def _serve(self, connection: socket.socket) -> None:
        """One connection: decode up to ``max_inflight`` frames, answer them
        in one ``sendall``, read again — until EOF, a protocol error, or
        ``stop()`` shutting the read side."""
        decoder = FrameDecoder(max_body=self.config.max_body)
        # Each connection gets its own token bucket: one greedy client being
        # throttled must not starve its peers' budgets.
        limiter = self._limits.bucket()
        limit = self.config.max_inflight
        data = b""
        try:
            while True:
                try:
                    requests = decoder.feed(data, limit)
                except ProtocolError as error:
                    requests, failure = [], error
                else:
                    # Good frames decoded before malformed bytes are still
                    # answered: the outcome cannot depend on TCP segmentation.
                    failure = decoder.failure
                if requests or failure is not None:
                    self._answer(connection, requests, failure, limiter)
                if failure is not None:
                    with self._lock:
                        self.protocol_errors += 1
                    self._protocol_errors.inc()
                    return
                if len(requests) == limit:
                    data = b""  # more complete frames may be buffered already
                    continue
                data = connection.recv(_READ_CHUNK)
                if not data:
                    return
        except OSError:
            return  # the client vanished, or stop(drain=False) tore it down
        finally:
            with self._lock:
                del self._connections[connection]
            self._connections_active.dec()
            connection.close()

    def _answer(
        self,
        connection: socket.socket,
        requests: list[Message],
        failure: ProtocolError | None,
        limiter: TokenBucket | None,
    ) -> None:
        """Execute a burst in request order and send every response at once.

        A chunked SCAN answer is several frames; they stay together, so the
        per-connection response order is untouched.  After a protocol error
        the final ERR frame follows the answers of the frames before it.
        """
        count = len(requests)
        with self._lock:
            self.inflight += count
            self.inflight_high_water = max(self.inflight_high_water, self.inflight)
        self._inflight.inc(count)
        try:
            frames: list[bytes] = []
            for request in requests:
                response = self._dispatch(request, limiter)
                if isinstance(response, list):
                    frames.extend(encode_frame(frame) for frame in response)
                else:
                    frames.append(encode_frame(response))
            if failure is not None:
                frames.append(
                    encode_frame(ErrorResponse(kind="ProtocolError", message=str(failure)))
                )
        finally:
            # Before the send: a client that holds its last reply must never
            # read these requests as still in flight.
            with self._lock:
                self.inflight -= count
            self._inflight.dec(count)
        connection.sendall(b"".join(frames))

    # ----------------------------------------------------------------- dispatch

    @staticmethod
    def _key_count(request: Message) -> int:
        """Logical keys a request touches (the slow log's batch-size column)."""
        if isinstance(request, MGetRequest):
            return len(request.keys)
        if isinstance(request, MSetRequest):
            return len(request.items)
        if isinstance(request, (GetRequest, SetRequest, DeleteRequest)):
            return 1
        if isinstance(request, ScanRequest):
            return request.limit
        return 0

    def _enforce_limits(self, request: Message, limiter: TokenBucket | None) -> None:
        """Refuse over-budget or oversized requests with typed errors.

        The rate check runs first — a flooded server must shed load before it
        spends any time inspecting payloads.  Each refusal increments exactly
        one labelled ``repro_rejections_total`` sample and refuses only the
        offending request; the connection stays usable.
        """
        if limiter is not None and not limiter.try_acquire():
            self._rejections.labels(request.wire_name, "rate").inc()
            raise RateLimitedError(
                f"connection exceeded its {self._limits.rate_limit:g} req/s budget"
            )
        max_value = self._limits.max_value_bytes
        if max_value:
            values: tuple[bytes, ...] = ()
            if isinstance(request, SetRequest):
                values = (request.value,)
            elif isinstance(request, MSetRequest):
                values = tuple(value for _, value in request.items)
            for value in values:
                if len(value) > max_value:
                    self._rejections.labels(request.wire_name, "value_bytes").inc()
                    raise LimitExceededError(
                        f"value of {len(value)} bytes exceeds the server's "
                        f"max_value_bytes={max_value}"
                    )
        max_items = self._limits.max_batch_items
        if max_items:
            count = 0
            if isinstance(request, MGetRequest):
                count = len(request.keys)
            elif isinstance(request, MSetRequest):
                count = len(request.items)
            if count > max_items:
                self._rejections.labels(request.wire_name, "batch_items").inc()
                raise LimitExceededError(
                    f"batch of {count} items exceeds the server's "
                    f"max_batch_items={max_items}"
                )
            # A scan is a batch read: its result budget falls under the same
            # cap, and an unbounded scan (limit 0) is over any finite cap.
            if isinstance(request, ScanRequest) and (
                request.limit == 0 or request.limit > max_items
            ):
                self._rejections.labels(request.wire_name, "batch_items").inc()
                limit = request.limit if request.limit else "unlimited"
                raise LimitExceededError(
                    f"scan limit {limit} exceeds the server's "
                    f"max_batch_items={max_items}"
                )

    def _dispatch(
        self, request: Message, limiter: TokenBucket | None = None
    ) -> Message | list[Message]:
        """Run one request; every failure becomes a typed ERR response.

        Most handlers return one frame; the SCAN handler returns the chunked
        frame list, sent in order.
        """
        started = time.perf_counter()
        try:
            self._enforce_limits(request, limiter)
            if isinstance(request, PingRequest):
                return PongResponse()
            handler = self._HANDLERS.get(type(request))
            if handler is None:
                raise ProtocolError(
                    f"frame {request.wire_name} is not a request"
                )
            return handler(self, request)
        except Exception as error:  # noqa: BLE001 — relayed, never fatal
            return ErrorResponse(kind=type(error).__name__, message=str(error))
        finally:
            # Count after execution, so a scrape via the METRICS opcode does
            # not see itself: both transports render identical text when the
            # registry is otherwise quiet.
            elapsed = time.perf_counter() - started
            opcode = request.wire_name
            cells = self._opcode_cells.get(opcode)
            if cells is None:
                # Resolve the per-opcode children once and hold them: the
                # steady-state path is then two bound-method calls.
                cells = (self._requests.labels(opcode), self._latency.labels(opcode))
                self._opcode_cells[opcode] = cells
            cells[0].inc()
            cells[1].observe(elapsed)
            if self._slow_log is not None and self._slow_log.record(
                opcode, self._key_count(request), elapsed
            ):
                self._slow_requests.labels(opcode).inc()

    # The handlers below run on the connection's thread.

    def _handle_get(self, request: GetRequest) -> Message:
        value = self.service.get(_decode_text(request.key, "key"))
        return ValueResponse(value=None if value is None else value.encode("utf-8"))

    def _handle_set(self, request: SetRequest) -> Message:
        self.service.set(
            _decode_text(request.key, "key"), _decode_text(request.value, "value")
        )
        return OkResponse()

    def _handle_delete(self, request: DeleteRequest) -> Message:
        existed = self.service.delete(_decode_text(request.key, "key"))
        return CountResponse(count=1 if existed else 0)

    def _handle_mget(self, request: MGetRequest) -> Message:
        keys = [_decode_text(key, "key") for key in request.keys]
        values = self.service.mget(keys)
        return MultiValueResponse(
            values=tuple(
                None if value is None else value.encode("utf-8") for value in values
            )
        )

    def _handle_mset(self, request: MSetRequest) -> Message:
        items = [
            (_decode_text(key, "key"), _decode_text(value, "value"))
            for key, value in request.items
        ]
        self.service.mset(items)
        return OkResponse()

    def _handle_stats(self, _: StatsRequest) -> Message:
        snapshot = self.service.snapshot()
        document = {
            "keys": snapshot.keys,
            "gets": snapshot.gets,
            "sets": snapshot.sets,
            "deletes": snapshot.deletes,
            "cache_hits": snapshot.cache_hits,
            "cache_hit_rate": snapshot.cache.hit_rate,
            "cache_entries": snapshot.cache.entries,
            "ratio": snapshot.ratio,
            "retrain_events": snapshot.retrain_events,
            "get_p50_ms": snapshot.get_latency.p50_ms,
            "get_p99_ms": snapshot.get_latency.p99_ms,
            "set_p50_ms": snapshot.set_latency.p50_ms,
            "set_p99_ms": snapshot.set_latency.p99_ms,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "backend": shard.backend,
                    "compressor": shard.compressor,
                    "keys": shard.keys,
                    "ratio": shard.ratio,
                    "outlier_rate": shard.outlier_rate,
                    "retrain_events": shard.retrain_events,
                }
                for shard in snapshot.shards
            ],
        }
        return StatsResponse(payload=json.dumps(document).encode("utf-8"))

    def _handle_metrics(self, _: MetricsRequest) -> Message:
        # Same render_text call the HTTP sidecar makes, so both transports
        # return byte-identical exposition text for the same registry state.
        return MetricsResponse(payload=self.render_metrics().encode("utf-8"))

    def _handle_scan(self, request: ScanRequest) -> list[Message]:
        start = (
            _decode_text(request.start, "scan start bound")
            if request.start is not None
            else None
        )
        end = (
            _decode_text(request.end, "scan end bound")
            if request.end is not None
            else None
        )
        limit = request.limit if request.limit > 0 else None
        return list(_chunk_scan_results(self.service.scan(start, end, limit)))

    _HANDLERS = {
        GetRequest: _handle_get,
        SetRequest: _handle_set,
        DeleteRequest: _handle_delete,
        MGetRequest: _handle_mget,
        MSetRequest: _handle_mset,
        StatsRequest: _handle_stats,
        MetricsRequest: _handle_metrics,
        ScanRequest: _handle_scan,
    }


def _shutdown(connection: socket.socket, how: int) -> None:
    """``shutdown`` that tolerates a socket its thread has already closed."""
    try:
        connection.shutdown(how)
    except OSError:
        pass
