"""The synchronous ``RKV1`` client for the :mod:`repro.net` KV server.

:class:`KVClient` is the synchronous client: a small LIFO connection pool
(sockets are created lazily, reused, and discarded on any transport error), a
string-typed API mirroring :class:`~repro.service.KVService`
(``get``/``set``/``delete``/``mget``/``mset``/``ping``/``stats``), and a
:class:`Pipeline` that sends many frames in one write and reads the responses
back in order — one round trip for ``depth`` requests, the client half of the
server's pipelining contract.

Failures are typed:

* transport problems (refused, reset, closed mid-frame) raise
  :class:`~repro.exceptions.NetError` (mid-frame truncation raises its
  subclass :class:`~repro.exceptions.ProtocolError`);
* a server-relayed failure raises a :class:`~repro.exceptions.RemoteError`
  that *also* subclasses the original exception type when the kind names a
  known :mod:`repro.exceptions` class — ``except ModelEpochError`` (or
  ``ServiceError``, …) catches the same failure locally and across the wire.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Callable, Iterator, Sequence

from repro import exceptions as _exceptions
from repro.exceptions import NetError, ProtocolError, RemoteError, ReproError
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

_READ_CHUNK = 64 * 1024

#: Cache of dynamically-built RemoteError subclasses, keyed by kind.
_REMOTE_TYPES: dict[str, type[RemoteError]] = {}
_REMOTE_TYPES_LOCK = threading.Lock()


def remote_error(kind: str, message: str) -> RemoteError:
    """Build the typed exception for a server-relayed error.

    When ``kind`` names a :class:`~repro.exceptions.ReproError` subclass, the
    returned error inherits **both** :class:`RemoteError` and that class, so
    existing ``except`` clauses keep matching across the wire.
    """
    with _REMOTE_TYPES_LOCK:
        error_type = _REMOTE_TYPES.get(kind)
        if error_type is None:
            base = getattr(_exceptions, kind, None)
            if (
                isinstance(base, type)
                and issubclass(base, ReproError)
                and not issubclass(base, RemoteError)
            ):
                error_type = type(f"Remote{kind}", (RemoteError, base), {})
            else:
                error_type = RemoteError
            _REMOTE_TYPES[kind] = error_type
    return error_type(kind, message)


def _expect(response: Message, expected: type[Message]) -> Message:
    if isinstance(response, ErrorResponse):
        raise remote_error(response.kind, response.message)
    if not isinstance(response, expected):
        raise NetError(
            f"expected {expected.wire_name} response, got {response.wire_name}"
        )
    return response


def _encode_text(value: str, what: str) -> bytes:
    if not isinstance(value, str):
        raise NetError(f"{what} must be str, got {type(value).__name__}")
    return value.encode("utf-8")


def _decode_optional(value: bytes | None) -> str | None:
    return None if value is None else value.decode("utf-8")


# -------------------------------------------------------------- sync transport


class _Connection:
    """One pooled socket with its own incremental decoder."""

    def __init__(self, host: str, port: int, timeout: float, max_body: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder(max_body=max_body)
        self.pending: list[Message] = []

    def send(self, payload: bytes) -> None:
        try:
            self.sock.sendall(payload)
        except OSError as error:
            raise NetError(f"send failed: {error}") from error

    def receive(self) -> Message:
        while not self.pending:
            try:
                data = self.sock.recv(_READ_CHUNK)
            except OSError as error:
                # Timeouts, resets, broken pipes: all typed NetError so both
                # 'except NetError' callers and the CLI's one-line error
                # contract hold on every transport failure, not just connect.
                raise NetError(f"receive failed: {error}") from error
            if not data:
                self.decoder.eof()  # raises ProtocolError on a partial frame
                raise NetError("connection closed by server")
            self.pending.extend(self.decoder.feed(data))
        return self.pending.pop(0)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class KVClient:
    """Synchronous pooled client for a ``repro serve`` endpoint.

    >>> with KVClient("127.0.0.1", 9100) as client:   # doctest: +SKIP
    ...     client.set("k", "v")
    ...     assert client.get("k") == "v"
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9100,
        pool_size: int = 2,
        timeout: float = 30.0,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        if pool_size < 1:
            raise NetError("pool_size must be at least 1")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout = timeout
        self.max_body = max_body
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------- pool

    def _acquire(self) -> _Connection:
        if self._closed:
            raise NetError("client is closed")
        with self._lock:
            if self._idle:
                return self._idle.pop()
        try:
            return _Connection(self.host, self.port, self.timeout, self.max_body)
        except OSError as error:
            raise NetError(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error

    def _release(self, connection: _Connection, healthy: bool) -> None:
        if not healthy or connection.pending or connection.decoder.buffered:
            connection.close()
            return
        with self._lock:
            if self._closed or len(self._idle) >= self.pool_size:
                connection.close()
            else:
                self._idle.append(connection)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- requests

    def _roundtrip(self, requests: Sequence[Message]) -> list[Message]:
        """Send every frame in one write; read the responses back in order."""
        connection = self._acquire()
        try:
            connection.send(b"".join(encode_frame(request) for request in requests))
            responses = [connection.receive() for _ in requests]
        except (OSError, NetError):
            self._release(connection, healthy=False)
            raise
        self._release(connection, healthy=True)
        return responses

    def _request(self, request: Message, expected: type[Message]) -> Message:
        return _expect(self._roundtrip([request])[0], expected)

    # --------------------------------------------------------------------- api

    def ping(self) -> bool:
        self._request(PingRequest(), PongResponse)
        return True

    def get(self, key: str) -> str | None:
        response = self._request(GetRequest(key=_encode_text(key, "key")), ValueResponse)
        return _decode_optional(response.value)

    def set(self, key: str, value: str) -> None:
        self._request(
            SetRequest(key=_encode_text(key, "key"), value=_encode_text(value, "value")),
            OkResponse,
        )

    def delete(self, key: str) -> bool:
        response = self._request(
            DeleteRequest(key=_encode_text(key, "key")), CountResponse
        )
        return response.count > 0

    def mget(self, keys: Sequence[str]) -> list[str | None]:
        if not keys:
            return []
        response = self._request(
            MGetRequest(keys=tuple(_encode_text(key, "key") for key in keys)),
            MultiValueResponse,
        )
        if len(response.values) != len(keys):
            raise NetError(
                f"MGET answered {len(response.values)} values for {len(keys)} keys"
            )
        return [_decode_optional(value) for value in response.values]

    def mset(self, items: Sequence[tuple[str, str]]) -> None:
        if not items:
            return
        self._request(
            MSetRequest(
                items=tuple(
                    (_encode_text(key, "key"), _encode_text(value, "value"))
                    for key, value in items
                )
            ),
            OkResponse,
        )

    def stats(self) -> dict:
        response = self._request(StatsRequest(), StatsResponse)
        return json.loads(response.payload.decode("utf-8"))

    def metrics(self) -> str:
        """Prometheus exposition text over the wire (no HTTP sidecar needed)."""
        response = self._request(MetricsRequest(), MetricsResponse)
        return response.payload.decode("utf-8")

    def scan(
        self, start: str | None = None, end: str | None = None, limit: int = 0
    ) -> Iterator[tuple[str, str]]:
        """Range scan: ``(key, value)`` pairs with ``start <= key < end`` in key order.

        Streams the server's chunked MKVALUE response: pairs are yielded as
        each chunk arrives, so a large range never needs to fit in client
        memory at once.  ``limit == 0`` means unlimited (the server may still
        refuse that under its batch-item cap).  The scan owns one pooled
        connection until the final chunk; abandoning the iterator early
        discards that connection rather than resynchronising the stream.
        """
        request = ScanRequest(
            start=None if start is None else _encode_text(start, "start bound"),
            end=None if end is None else _encode_text(end, "end bound"),
            limit=limit,
        )
        connection = self._acquire()
        completed = False
        try:
            connection.send(encode_frame(request))
            while True:
                response = _expect(connection.receive(), MultiKeyValueResponse)
                for key, value in response.pairs:
                    yield key.decode("utf-8"), value.decode("utf-8")
                if response.final:
                    completed = True
                    return
        finally:
            self._release(connection, healthy=completed)

    def pipeline(self) -> "Pipeline":
        """Queue many operations locally, then :meth:`Pipeline.execute` them
        in a single round trip."""
        return Pipeline(self)


class Pipeline:
    """Client-side pipelining: N queued requests, one write, N ordered reads.

    Results come back positionally from :meth:`execute`.  A per-operation
    server error does not abort the batch on the wire — every response is
    read (keeping the connection usable) and the first error is raised after
    the batch completes.
    """

    def __init__(self, client: KVClient) -> None:
        self._client = client
        self._requests: list[Message] = []
        self._converters: list[Callable[[Message], object]] = []

    def __len__(self) -> int:
        return len(self._requests)

    def _queue(
        self, request: Message, expected: type[Message], convert: Callable[[Message], object]
    ) -> "Pipeline":
        self._requests.append(request)
        self._converters.append(lambda response: convert(_expect(response, expected)))
        return self

    def ping(self) -> "Pipeline":
        return self._queue(PingRequest(), PongResponse, lambda _: True)

    def get(self, key: str) -> "Pipeline":
        return self._queue(
            GetRequest(key=_encode_text(key, "key")),
            ValueResponse,
            lambda response: _decode_optional(response.value),
        )

    def set(self, key: str, value: str) -> "Pipeline":
        return self._queue(
            SetRequest(key=_encode_text(key, "key"), value=_encode_text(value, "value")),
            OkResponse,
            lambda _: None,
        )

    def delete(self, key: str) -> "Pipeline":
        return self._queue(
            DeleteRequest(key=_encode_text(key, "key")),
            CountResponse,
            lambda response: response.count > 0,
        )

    def execute(self) -> list:
        """Send every queued frame in one round trip; return ordered results."""
        if not self._requests:
            return []
        requests, self._requests = self._requests, []
        converters, self._converters = self._converters, []
        responses = self._client._roundtrip(requests)
        results: list = []
        first_error: Exception | None = None
        for convert, response in zip(converters, responses):
            try:
                results.append(convert(response))
            except (RemoteError, NetError) as error:
                results.append(error)
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results
