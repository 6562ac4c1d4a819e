"""Prometheus text-format 0.0.4 exposition, plus the ``/metrics`` sidecar.

Two consumers render the same registry:

* the **HTTP sidecar** (:class:`MetricsHTTPServer`) started by
  ``repro serve --metrics-port`` — ``GET /metrics`` returns the exposition
  text, ``GET /healthz`` a liveness ``ok``.  One blocking accept thread
  (:class:`AcceptLoop`, the same one the KV server listens with) reads each
  request and renders on that thread;
* the ``METRICS`` **wire opcode** (:mod:`repro.net`) — the same text as a
  length-prefixed RKV1 frame, so ``repro client metrics`` needs no second
  port.  Both paths call :func:`render_text`, which is what makes them
  byte-identical for the same registry state (docs/FORMATS.md §9).

:func:`parse_text` is the inverse used by tests and the CLI table printer; it
understands exactly what :func:`render_text` emits (HELP/TYPE comments,
labelled samples, histogram ``_bucket``/``_sum``/``_count`` series).
"""

from __future__ import annotations

import socket
import threading
from typing import Callable

from repro.exceptions import NetError, ObsError
from repro.obs.metrics import INF, Histogram, MetricsRegistry

#: Content type of the exposition format this module renders.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Socket-level cap on an HTTP request head the sidecar will buffer.
_MAX_REQUEST_BYTES = 8 * 1024

#: Seconds the sidecar waits on a silent HTTP client before dropping it.
_CLIENT_TIMEOUT = 5.0


def format_value(value: float) -> str:
    """Canonical sample-value rendering: integral floats drop the ``.0``."""
    if value == INF:
        return "+Inf"
    if value == -INF:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in (*zip(labelnames, labelvalues), *extra)
    ]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def render_text(registry: MetricsRegistry) -> str:
    """Render every family as Prometheus text format 0.0.4.

    Runs the registry's bridge collectors first, so gauges mirroring external
    state (service snapshots, engine disk stats) are as fresh as the scrape.
    A disabled registry renders to the empty string.
    """
    if not registry.enabled:
        return ""
    registry.run_collectors()
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labelvalues, child in family.items():
            if isinstance(child, Histogram):
                cumulative, total, count = child.snapshot()
                bounds = (*child.bounds, INF)
                for bound, running in zip(bounds, cumulative):
                    labels = _render_labels(
                        family.labelnames, labelvalues, (("le", format_value(bound)),)
                    )
                    lines.append(f"{family.name}_bucket{labels} {running}")
                labels = _render_labels(family.labelnames, labelvalues)
                lines.append(f"{family.name}_sum{labels} {format_value(total)}")
                lines.append(f"{family.name}_count{labels} {count}")
            else:
                labels = _render_labels(family.labelnames, labelvalues)
                lines.append(f"{family.name}{labels} {format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


# -------------------------------------------------------------------- parsing


def _parse_label_block(block: str, where: str) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    position = 0
    while position < len(block):
        equals = block.index("=", position)
        name = block[position:equals]
        if block[equals + 1] != '"':
            raise ObsError(f"unquoted label value in {where!r}")
        value_chars: list[str] = []
        cursor = equals + 2
        while True:
            char = block[cursor]
            if char == "\\":
                escape = block[cursor + 1]
                value_chars.append({"n": "\n", "\\": "\\", '"': '"'}.get(escape, escape))
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        pairs.append((name, "".join(value_chars)))
        position = cursor + 1
        if position < len(block) and block[position] == ",":
            position += 1
    return tuple(pairs)


def parse_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, sorted_label_pairs): value}``.

    Histogram series come back under their rendered sample names
    (``*_bucket`` with an ``le`` label, ``*_sum``, ``*_count``).  Comment and
    blank lines are skipped; a malformed sample raises
    :class:`~repro.exceptions.ObsError`.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ObsError(f"malformed exposition line {line!r}")
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            if not rest.endswith("}"):
                raise ObsError(f"unterminated label block in {line!r}")
            labels = _parse_label_block(rest[:-1], line)
        else:
            name, labels = name_part, ()
        try:
            value = float(value_part.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as error:
            raise ObsError(f"bad sample value in {line!r}: {error}") from None
        samples[(name, tuple(sorted(labels)))] = value
    return samples


# ----------------------------------------------------------------- HTTP sidecar


class AcceptLoop:
    """A bound listening socket and the one thread that accepts on it.

    ``handle(connection)`` runs on the accept thread for every connection;
    the KV server hands each one to a thread of its own, the HTTP sidecar
    answers it inline.  :meth:`close` wakes the blocked ``accept`` with
    ``shutdown`` and joins the thread, so no connection is handled after it
    returns.
    """

    def __init__(
        self, host: str, port: int, handle: Callable[[socket.socket], None],
        name: str, what: str,
    ) -> None:
        try:
            family, _, _, _, address = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
            )[0]
            self.socket = socket.create_server(address, family=family, backlog=128)
        except OSError as error:
            raise NetError(f"cannot bind {what} {host}:{port}: {error}") from error
        #: ``(host, port)`` actually bound (resolves an ephemeral port).
        self.address: tuple[str, int] = self.socket.getsockname()[:2]
        self._closed = False
        self._thread = threading.Thread(target=self._run, args=(handle,), name=name, daemon=True)
        self._thread.start()

    def _run(self, handle: Callable[[socket.socket], None]) -> None:
        while True:
            try:
                connection, _ = self.socket.accept()
            except OSError:
                if self._closed:
                    return
                continue  # the peer gave up between SYN and accept
            handle(connection)

    def close(self) -> None:
        self._closed = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join()
        self.socket.close()


class MetricsHTTPServer:
    """Minimal HTTP/1.1 sidecar: ``GET /metrics`` and ``GET /healthz``.

    Deliberately not a web framework: it answers exactly two GET paths, sets
    ``Connection: close`` on every response, and rejects anything else with
    400/404/405.  One accept thread reads each request and answers it before
    accepting the next, so ``render`` (a blocking callable: scrape collectors
    snapshot the service) never runs twice at once; a client that stalls
    longer than ``_CLIENT_TIMEOUT`` is dropped.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self.host = host
        self.port = port
        self._loop: AcceptLoop | None = None
        self.scrapes = 0

    def start(self) -> None:
        if self._loop is not None:
            raise NetError("metrics sidecar is already started")
        self._loop = AcceptLoop(
            self.host, self.port, self._on_connection, "kv-metrics-http", "metrics sidecar"
        )

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves an ephemeral port)."""
        if self._loop is None:
            raise NetError("metrics sidecar is not listening")
        return self._loop.address

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.close()
            self._loop = None

    def _on_connection(self, connection: socket.socket) -> None:
        with connection:
            connection.settimeout(_CLIENT_TIMEOUT)
            try:
                self._answer(connection)
            except OSError:
                pass

    def _answer(self, connection: socket.socket) -> None:
        head = b""
        while b"\r\n\r\n" not in head:
            if len(head) > _MAX_REQUEST_BYTES:
                self._respond(connection, 400, "request too large\n")
                return
            chunk = connection.recv(_MAX_REQUEST_BYTES)
            if not chunk:
                return
            head += chunk
        parts = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ")
        if len(parts) != 3:
            self._respond(connection, 400, "malformed request line\n")
            return
        method, path, _ = parts
        path = path.split("?", 1)[0]
        if method != "GET":
            self._respond(connection, 405, "only GET is supported\n")
        elif path == "/healthz":
            self._respond(connection, 200, "ok\n")
        elif path == "/metrics":
            body = self._render()
            self.scrapes += 1
            self._respond(connection, 200, body, content_type=CONTENT_TYPE)
        else:
            self._respond(connection, 404, f"unknown path {path}\n")

    @staticmethod
    def _respond(
        connection: socket.socket,
        status: int,
        body: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        connection.sendall(head.encode("latin-1") + payload)
