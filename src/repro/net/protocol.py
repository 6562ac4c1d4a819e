"""The ``RKV1`` wire protocol: length-prefixed binary frames over TCP.

RESP-inspired, but length-prefixed instead of line-delimited so that frames
can carry arbitrary binary keys and values (including empty ones and values
far larger than a read buffer).  Every frame — request or response — has the
same envelope (docs/FORMATS.md §7)::

    magic   "RKV1"            4 bytes
    opcode  u8                request 0x01–0x09 / response 0x80–0xBF
    length  uvarint           body byte count (bounded by ``max_body``)
    body    `length` bytes    per-opcode layout below

Body layouts use the same LEB128 uvarints as every other on-disk format in
the repository (:mod:`repro.entropy.varint`).  Responses arrive **in request
order** on a connection — that is what makes client-side pipelining a pure
framing concern with no request ids.

The :class:`FrameDecoder` is incremental: it can be fed arbitrary chunks
(one byte at a time, or many frames at once) and yields complete messages as
they become available.  Malformed input — wrong magic, unknown opcode, a
declared length above the limit, or a body whose internal lengths do not add
up — raises the typed :class:`~repro.exceptions.ProtocolError` as soon as the
offending bytes are seen; the decoder never waits for more input to reject a
frame that is already provably bad, and never reads past the declared body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.entropy.varint import encode_uvarint
from repro.exceptions import ProtocolError

#: Frame envelope magic (every frame, both directions).
MAGIC = b"RKV1"
_MAGIC_LEN = len(MAGIC)

#: Default ceiling on a frame's declared body length (16 MiB).  A frame
#: declaring more is rejected *before* any body byte is buffered.
DEFAULT_MAX_BODY = 16 * 1024 * 1024

#: A uvarint longer than this many bytes cannot fit in 64 bits.
_MAX_UVARINT_BYTES = 10


# ---------------------------------------------------------------- body cursor


class _Cursor:
    """Strict reader over one frame body inside the receive buffer.

    The cursor reads the body *in place*: ``raw`` is the whole receive
    buffer (indexed directly for control bytes — flags and uvarints — since
    integer indexing is fastest on ``bytes``/``bytearray``), ``view`` is a
    ``memoryview`` over the same buffer used to slice blob payloads, so the
    only ``bytes`` materialised are the blobs a message actually keeps.
    Standalone use (``_Cursor(body)``) works on a plain ``bytes`` body.

    Every overrun is a :class:`ProtocolError`: by the time a body is parsed
    the decoder holds exactly ``length`` bytes, so running out means the
    frame's internal lengths contradict its declared length.
    """

    __slots__ = ("_raw", "_view", "_offset", "_end")

    def __init__(
        self,
        raw: bytes | bytearray,
        view: "memoryview | bytes | bytearray | None" = None,
        start: int = 0,
        end: int | None = None,
    ) -> None:
        self._raw = raw
        self._view = raw if view is None else view
        self._offset = start
        self._end = len(raw) if end is None else end

    def read_uvarint(self) -> int:
        raw = self._raw
        limit = self._end
        offset = self._offset
        result = 0
        shift = 0
        while True:
            if offset >= limit:
                raise ProtocolError("frame body ends inside a uvarint")
            byte = raw[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._offset = offset
                return result
            shift += 7
            if shift > 63:
                raise ProtocolError("frame body uvarint does not fit in 64 bits")

    def read_bytes(self, count: int) -> bytes:
        offset = self._offset
        end = offset + count
        if end > self._end:
            raise ProtocolError(
                f"frame body declares {count} bytes where only "
                f"{self._end - offset} remain"
            )
        self._offset = end
        return bytes(self._view[offset:end])

    def read_u8(self) -> int:
        offset = self._offset
        if offset >= self._end:
            raise ProtocolError("frame body declares 1 bytes where only 0 remain")
        self._offset = offset + 1
        return self._raw[offset]

    def read_blob(self) -> bytes:
        return self.read_bytes(self.read_uvarint())

    def read_blobs(self, count: int) -> tuple[bytes, ...]:
        """``count`` length-prefixed blobs in one pass (MGET key lists).

        The batched readers hoist the per-item method and attribute traffic
        of ``read_blob`` into a tight local-variable loop — on
        multi-hundred-item MVALUE / MKVALUE bodies that is the difference
        the ``mvalue_batch_decode`` row of the frozen-history table in
        ``docs/BENCHMARKS.md`` records.
        """
        raw = self._raw
        view = self._view
        limit = self._end
        position = self._offset
        blobs: list[bytes] = []
        append = blobs.append
        for _ in range(count):
            result = 0
            shift = 0
            while True:
                if position >= limit:
                    raise ProtocolError("frame body ends inside a uvarint")
                byte = raw[position]
                position += 1
                result |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise ProtocolError("frame body uvarint does not fit in 64 bits")
            end = position + result
            if end > limit:
                raise ProtocolError(
                    f"frame body declares {result} bytes where only "
                    f"{limit - position} remain"
                )
            append(bytes(view[position:end]))
            position = end
        self._offset = position
        return tuple(blobs)

    def read_flagged_blobs(self, count: int, wire_name: str) -> tuple[bytes | None, ...]:
        """``count`` presence-flagged blobs (the MVALUE body layout)."""
        raw = self._raw
        view = self._view
        limit = self._end
        position = self._offset
        values: list[bytes | None] = []
        append = values.append
        for _ in range(count):
            if position >= limit:
                raise ProtocolError("frame body declares 1 bytes where only 0 remain")
            flag = raw[position]
            position += 1
            if flag == 0:
                append(None)
                continue
            if flag != 1:
                raise ProtocolError(
                    f"{wire_name} frame has invalid presence flag {flag}"
                )
            result = 0
            shift = 0
            while True:
                if position >= limit:
                    raise ProtocolError("frame body ends inside a uvarint")
                byte = raw[position]
                position += 1
                result |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise ProtocolError("frame body uvarint does not fit in 64 bits")
            end = position + result
            if end > limit:
                raise ProtocolError(
                    f"frame body declares {result} bytes where only "
                    f"{limit - position} remain"
                )
            append(bytes(view[position:end]))
            position = end
        self._offset = position
        return tuple(values)

    def read_pairs(self, count: int) -> tuple[tuple[bytes, bytes], ...]:
        """``count`` blob pairs in one pass (MSET items, MKVALUE pairs)."""
        raw = self._raw
        view = self._view
        limit = self._end
        position = self._offset
        pairs: list[tuple[bytes, bytes]] = []
        append = pairs.append
        for _ in range(count):
            first: bytes | None = None
            for _half in range(2):
                result = 0
                shift = 0
                while True:
                    if position >= limit:
                        raise ProtocolError("frame body ends inside a uvarint")
                    byte = raw[position]
                    position += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise ProtocolError(
                            "frame body uvarint does not fit in 64 bits"
                        )
                end = position + result
                if end > limit:
                    raise ProtocolError(
                        f"frame body declares {result} bytes where only "
                        f"{limit - position} remain"
                    )
                blob = bytes(view[position:end])
                position = end
                if first is None:
                    first = blob
                else:
                    append((first, blob))
        self._offset = position
        return tuple(pairs)

    def finish(self) -> None:
        if self._offset != self._end:
            raise ProtocolError(
                f"frame body has {self._end - self._offset} trailing bytes"
            )


def _blob(data: bytes) -> bytes:
    return encode_uvarint(len(data)) + data


# ------------------------------------------------------------------- messages


@dataclass(frozen=True)
class Message:
    """Base class of every typed wire message (request or response)."""

    #: opcode byte on the wire.
    opcode: ClassVar[int]
    #: opcode mnemonic used in docs and error messages.
    wire_name: ClassVar[str]
    #: "request" (client → server) or "response" (server → client).
    direction: ClassVar[str]

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "Message":
        return cls()


@dataclass(frozen=True)
class PingRequest(Message):
    opcode = 0x01
    wire_name = "PING"
    direction = "request"


@dataclass(frozen=True)
class GetRequest(Message):
    opcode = 0x02
    wire_name = "GET"
    direction = "request"

    key: bytes = b""

    def encode_body(self) -> bytes:
        return _blob(self.key)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "GetRequest":
        return cls(key=cursor.read_blob())


@dataclass(frozen=True)
class SetRequest(Message):
    opcode = 0x03
    wire_name = "SET"
    direction = "request"

    key: bytes = b""
    value: bytes = b""

    def encode_body(self) -> bytes:
        return _blob(self.key) + _blob(self.value)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "SetRequest":
        return cls(key=cursor.read_blob(), value=cursor.read_blob())


@dataclass(frozen=True)
class DeleteRequest(Message):
    opcode = 0x04
    wire_name = "DEL"
    direction = "request"

    key: bytes = b""

    def encode_body(self) -> bytes:
        return _blob(self.key)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "DeleteRequest":
        return cls(key=cursor.read_blob())


@dataclass(frozen=True)
class MGetRequest(Message):
    opcode = 0x05
    wire_name = "MGET"
    direction = "request"

    keys: tuple[bytes, ...] = ()

    def encode_body(self) -> bytes:
        parts = [encode_uvarint(len(self.keys))]
        parts.extend(_blob(key) for key in self.keys)
        return b"".join(parts)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "MGetRequest":
        return cls(keys=cursor.read_blobs(cursor.read_uvarint()))


@dataclass(frozen=True)
class MSetRequest(Message):
    opcode = 0x06
    wire_name = "MSET"
    direction = "request"

    items: tuple[tuple[bytes, bytes], ...] = ()

    def encode_body(self) -> bytes:
        parts = [encode_uvarint(len(self.items))]
        for key, value in self.items:
            parts.append(_blob(key))
            parts.append(_blob(value))
        return b"".join(parts)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "MSetRequest":
        return cls(items=cursor.read_pairs(cursor.read_uvarint()))


@dataclass(frozen=True)
class StatsRequest(Message):
    opcode = 0x07
    wire_name = "STATS"
    direction = "request"


@dataclass(frozen=True)
class MetricsRequest(Message):
    """Ask for the Prometheus exposition text (see docs/FORMATS.md §9)."""

    opcode = 0x08
    wire_name = "METRICS"
    direction = "request"


@dataclass(frozen=True)
class ScanRequest(Message):
    """Ordered range scan: optional ``start``/``end`` bounds plus a limit.

    ``start`` is inclusive, ``end`` exclusive; an absent bound is open.
    ``limit == 0`` means unlimited (subject to the server's batch-item cap).
    The response is a *stream* of MKVALUE chunks, the last one flagged final.
    """

    opcode = 0x09
    wire_name = "SCAN"
    direction = "request"

    start: bytes | None = None
    end: bytes | None = None
    limit: int = 0

    def encode_body(self) -> bytes:
        parts = []
        for bound in (self.start, self.end):
            if bound is None:
                parts.append(b"\x00")
            else:
                parts.append(b"\x01" + _blob(bound))
        parts.append(encode_uvarint(self.limit))
        return b"".join(parts)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "ScanRequest":
        bounds: list[bytes | None] = []
        for _ in range(2):
            flag = cursor.read_u8()
            if flag == 0:
                bounds.append(None)
            elif flag == 1:
                bounds.append(cursor.read_blob())
            else:
                raise ProtocolError(f"SCAN frame has invalid presence flag {flag}")
        return cls(start=bounds[0], end=bounds[1], limit=cursor.read_uvarint())


@dataclass(frozen=True)
class OkResponse(Message):
    """Acknowledges SET / MSET."""

    opcode = 0x80
    wire_name = "OK"
    direction = "response"


@dataclass(frozen=True)
class PongResponse(Message):
    opcode = 0x81
    wire_name = "PONG"
    direction = "response"


@dataclass(frozen=True)
class ValueResponse(Message):
    """GET result: a one-byte presence flag, then the value blob if present."""

    opcode = 0x82
    wire_name = "VALUE"
    direction = "response"

    value: bytes | None = None

    def encode_body(self) -> bytes:
        if self.value is None:
            return b"\x00"
        return b"\x01" + _blob(self.value)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "ValueResponse":
        flag = cursor.read_u8()
        if flag == 0:
            return cls(value=None)
        if flag == 1:
            return cls(value=cursor.read_blob())
        raise ProtocolError(f"VALUE frame has invalid presence flag {flag}")


@dataclass(frozen=True)
class CountResponse(Message):
    """DEL result (0/1 for existed) — a bare uvarint counter."""

    opcode = 0x83
    wire_name = "COUNT"
    direction = "response"

    count: int = 0

    def encode_body(self) -> bytes:
        return encode_uvarint(self.count)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "CountResponse":
        return cls(count=cursor.read_uvarint())


@dataclass(frozen=True)
class MultiValueResponse(Message):
    """MGET result: per-key presence flag + value blob, in request key order."""

    opcode = 0x84
    wire_name = "MVALUE"
    direction = "response"

    values: tuple[bytes | None, ...] = ()

    def encode_body(self) -> bytes:
        parts = [encode_uvarint(len(self.values))]
        for value in self.values:
            if value is None:
                parts.append(b"\x00")
            else:
                parts.append(b"\x01" + _blob(value))
        return b"".join(parts)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "MultiValueResponse":
        count = cursor.read_uvarint()
        return cls(values=cursor.read_flagged_blobs(count, "MVALUE"))


@dataclass(frozen=True)
class StatsResponse(Message):
    """STATS result: a UTF-8 JSON document (see ``KVServer._handle_stats``)."""

    opcode = 0x85
    wire_name = "STATSV"
    direction = "response"

    payload: bytes = b"{}"

    def encode_body(self) -> bytes:
        return _blob(self.payload)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "StatsResponse":
        return cls(payload=cursor.read_blob())


@dataclass(frozen=True)
class MetricsResponse(Message):
    """METRICS result: UTF-8 Prometheus text format 0.0.4.

    Byte-identical to what the HTTP sidecar's ``GET /metrics`` serves for
    the same registry state — both render through
    :func:`repro.obs.exposition.render_text`.
    """

    opcode = 0x86
    wire_name = "METRICSV"
    direction = "response"

    payload: bytes = b""

    def encode_body(self) -> bytes:
        return _blob(self.payload)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "MetricsResponse":
        return cls(payload=cursor.read_blob())


@dataclass(frozen=True)
class MultiKeyValueResponse(Message):
    """One SCAN result chunk: ``(key, value)`` pairs plus a final-chunk flag.

    A scan's response is one or more MKVALUE frames on the wire, in key
    order, with ``final`` set only on the last — the chunking keeps any
    single frame small so a huge range cannot head-of-line-block the other
    responses pipelined behind it.  An empty result is a single final frame
    with zero pairs.
    """

    opcode = 0x87
    wire_name = "MKVALUE"
    direction = "response"

    pairs: tuple[tuple[bytes, bytes], ...] = ()
    final: bool = True

    def encode_body(self) -> bytes:
        parts = [b"\x01" if self.final else b"\x00", encode_uvarint(len(self.pairs))]
        for key, value in self.pairs:
            parts.append(_blob(key))
            parts.append(_blob(value))
        return b"".join(parts)

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "MultiKeyValueResponse":
        flag = cursor.read_u8()
        if flag > 1:
            raise ProtocolError(f"MKVALUE frame has invalid final flag {flag}")
        return cls(pairs=cursor.read_pairs(cursor.read_uvarint()), final=bool(flag))


@dataclass(frozen=True)
class ErrorResponse(Message):
    """A server-side failure: the exception class name and its message."""

    opcode = 0xBF
    wire_name = "ERR"
    direction = "response"

    kind: str = "ReproError"
    message: str = ""

    def encode_body(self) -> bytes:
        return _blob(self.kind.encode("utf-8")) + _blob(self.message.encode("utf-8"))

    @classmethod
    def decode_body(cls, cursor: _Cursor) -> "ErrorResponse":
        kind = cursor.read_blob().decode("utf-8", errors="replace")
        message = cursor.read_blob().decode("utf-8", errors="replace")
        return cls(kind=kind, message=message)


#: Every frame type, in opcode order — the registry the decoder dispatches on
#: and the table docs/FORMATS.md §7 is pinned to by ``tests/test_docs.py``.
FRAME_TYPES: tuple[type[Message], ...] = (
    PingRequest,
    GetRequest,
    SetRequest,
    DeleteRequest,
    MGetRequest,
    MSetRequest,
    StatsRequest,
    MetricsRequest,
    ScanRequest,
    OkResponse,
    PongResponse,
    ValueResponse,
    CountResponse,
    MultiValueResponse,
    StatsResponse,
    MetricsResponse,
    MultiKeyValueResponse,
    ErrorResponse,
)

_FRAME_BY_OPCODE: dict[int, type[Message]] = {cls.opcode: cls for cls in FRAME_TYPES}
assert len(_FRAME_BY_OPCODE) == len(FRAME_TYPES), "duplicate opcode in FRAME_TYPES"


def opcode_table() -> list[dict]:
    """Rows describing every frame type (the ``repro serve`` docs table)."""
    return [
        {
            "opcode": f"0x{cls.opcode:02X}",
            "name": cls.wire_name,
            "direction": cls.direction,
            "type": cls.__name__,
        }
        for cls in FRAME_TYPES
    ]


# ------------------------------------------------------------------- encoding


def encode_frame(message: Message) -> bytes:
    """Serialise one message into a complete wire frame."""
    body = message.encode_body()
    return MAGIC + bytes([message.opcode]) + encode_uvarint(len(body)) + body


# ------------------------------------------------------------------- decoding


class FrameDecoder:
    """Incremental frame parser tolerating arbitrary chunk boundaries.

    Feed it whatever the socket produced; it returns every complete message
    and buffers the rest.  All validation happens as early as the bytes
    allow: a wrong magic byte fails on the first mismatching byte, an unknown
    opcode fails as soon as the opcode byte arrives, and an oversized declared
    length fails before a single body byte is read.
    """

    def __init__(self, max_body: int = DEFAULT_MAX_BODY) -> None:
        if max_body < 1:
            raise ProtocolError("max_body must be positive")
        self.max_body = max_body
        self._buffer = bytearray()
        self._failure: ProtocolError | None = None

    @property
    def buffered(self) -> int:
        """Bytes currently held waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def failure(self) -> ProtocolError | None:
        """The error that poisoned this decoder, if any (see :meth:`feed`)."""
        return self._failure

    def feed(
        self, data: bytes | bytearray | memoryview, limit: int | None = None
    ) -> list[Message]:
        """Consume ``data`` and return every message completed by it.

        With ``limit``, at most that many are returned and the rest stay
        buffered for the next call (``feed(b"", limit)`` resumes): the server
        decodes no more frames than it lets be in flight.

        ``data`` may be ``bytes``, a ``bytearray`` or a ``memoryview`` (the
        fuzz suite feeds all three).  Parsing walks the receive buffer with
        an offset and a ``memoryview`` — frame bodies are sliced lazily, so
        neither the magic check nor the body extraction copies, and the
        buffer is compacted once per call instead of once per frame.

        Frames decoded *before* malformed bytes in the same chunk are never
        lost: when a chunk carries good frames followed by garbage, they are
        returned and the error is held — readable via :attr:`failure`
        immediately, and raised by the next :meth:`feed`/:meth:`eof` call —
        so outcomes do not depend on how TCP happened to segment the stream.
        A chunk whose *first* frame is malformed raises directly.
        """
        if self._failure is not None:
            raise self._failure
        buffer = self._buffer
        buffer.extend(data)
        messages: list[Message] = []
        offset = 0
        view = memoryview(buffer)
        try:
            while limit is None or len(messages) < limit:
                try:
                    parsed = self._try_parse(buffer, view, offset)
                except ProtocolError as error:
                    self._failure = error
                    if messages:
                        return messages
                    raise
                if parsed is None:
                    return messages
                message, offset = parsed
                messages.append(message)
            return messages
        finally:
            view.release()
            if offset:
                # Replace rather than ``del buffer[:offset]``: a held failure
                # can keep body views alive through its traceback, and a
                # resize of an exported bytearray would raise BufferError.
                self._buffer = buffer[offset:]

    def eof(self) -> None:
        """Declare end-of-stream; held failures and partial frames error."""
        if self._failure is not None:
            raise self._failure
        if self._buffer:
            raise ProtocolError(
                f"stream ended mid-frame with {len(self._buffer)} byte(s) buffered"
            )

    def _try_parse(
        self, buffer: bytearray, view: memoryview, offset: int
    ) -> tuple[Message, int] | None:
        """Parse one frame at ``offset``; returns ``(message, next_offset)``.

        Validation stays as eager as the copying parser's: a partial magic
        prefix is checked byte-by-byte so the first wrong byte still raises
        without waiting for the rest of the envelope.
        """
        available = len(buffer) - offset
        if available < _MAGIC_LEN:
            for index in range(available):
                if buffer[offset + index] != MAGIC[index]:
                    prefix = bytes(buffer[offset : offset + available])
                    raise ProtocolError(
                        f"bad frame magic {prefix!r} (expected {MAGIC!r})"
                    )
            return None
        if view[offset : offset + _MAGIC_LEN] != MAGIC:
            prefix = bytes(buffer[offset : offset + _MAGIC_LEN])
            raise ProtocolError(f"bad frame magic {prefix!r} (expected {MAGIC!r})")
        if available < _MAGIC_LEN + 1:
            return None
        opcode = buffer[offset + _MAGIC_LEN]
        frame_type = _FRAME_BY_OPCODE.get(opcode)
        if frame_type is None:
            raise ProtocolError(f"unknown opcode 0x{opcode:02X}")
        length = self._read_header_uvarint(buffer, offset + _MAGIC_LEN + 1)
        if length is None:
            return None
        body_length, body_start = length
        if body_length > self.max_body:
            raise ProtocolError(
                f"declared body length {body_length} exceeds the "
                f"{self.max_body}-byte limit"
            )
        end = body_start + body_length
        if len(buffer) < end:
            return None
        cursor = _Cursor(buffer, view, body_start, end)
        message = frame_type.decode_body(cursor)
        cursor.finish()
        return message, end

    @staticmethod
    def _read_header_uvarint(buffer: bytearray, offset: int) -> tuple[int, int] | None:
        """Parse the body-length uvarint; ``None`` while bytes are missing."""
        result = 0
        shift = 0
        position = offset
        length = len(buffer)
        while True:
            if position - offset >= _MAX_UVARINT_BYTES:
                raise ProtocolError("frame length uvarint does not fit in 64 bits")
            if position >= length:
                return None
            byte = buffer[position]
            position += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, position
            shift += 7


def decode_frames(data: bytes, max_body: int = DEFAULT_MAX_BODY) -> list[Message]:
    """Decode a complete byte string into messages; partial trailing data errors."""
    decoder = FrameDecoder(max_body=max_body)
    messages = decoder.feed(data)
    decoder.eof()
    return messages
