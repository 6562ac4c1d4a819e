"""``repro.net`` — the ``RKV1`` wire protocol, server, and clients.

Puts the sharded :class:`~repro.service.KVService` on a TCP socket — the wire
the ROADMAP's "serve heavy traffic" north star needs, modelled on the paper's
Section 7.5 production deployment of a compressed KV store behind network
traffic:

* :mod:`repro.net.protocol` — length-prefixed binary frames (magic ``RKV1``,
  u8 opcode, uvarint lengths), typed request/response dataclasses, and an
  incremental :class:`FrameDecoder` that tolerates partial reads and maps
  every malformed input to a typed :class:`~repro.exceptions.ProtocolError`;
* :mod:`repro.net.server` — the blocking :class:`KVServer`: one accept
  thread plus one thread per connection that decodes, dispatches inline and
  answers each burst with one ``sendall`` (request pipelining, at most
  ``max_inflight`` frames decoded per connection for backpressure, graceful
  drain on shutdown); a context manager whose ``start()`` returns the bound
  address;
* :mod:`repro.net.client` — the pooled synchronous :class:`KVClient` (with
  :class:`Pipeline` for N-requests-per-round-trip); server errors come back as typed
  :class:`~repro.exceptions.RemoteError` subclasses that also inherit the
  original exception type (``ModelEpochError`` stays catchable).

Load is generated by :mod:`repro.loadgen`, which takes a :class:`KVClient`
as its target; this package does not import it.

The server is instrumented end to end with :mod:`repro.obs`: per-opcode
counters and latency histograms, a ``METRICS`` opcode answering the same
Prometheus exposition text as the optional ``--metrics-port`` HTTP sidecar,
and per-connection overload protection (token-bucket rate limiting plus
value/batch size caps) whose rejections reach clients as typed
:class:`~repro.exceptions.RateLimitedError` /
:class:`~repro.exceptions.LimitExceededError`.

Quick start::

    from repro.service import KVService, ServiceConfig
    from repro.net import KVClient, KVServer, ServerConfig

    service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    with KVServer(service, ServerConfig(port=0)) as server:
        host, port = server.address
        with KVClient(host, port) as client:
            client.set("k", "v")
            assert client.get("k") == "v"
    service.close()

Or from the command line: ``repro serve --port 9100`` then
``repro client --port 9100 get k``.
"""

from repro.net.client import KVClient, Pipeline, remote_error
from repro.net.protocol import (
    DEFAULT_MAX_BODY,
    MAGIC,
    FRAME_TYPES,
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
    decode_frames,
    encode_frame,
    opcode_table,
)
from repro.net.server import KVServer, ServerConfig

__all__ = [
    "CountResponse",
    "DEFAULT_MAX_BODY",
    "DeleteRequest",
    "ErrorResponse",
    "FRAME_TYPES",
    "FrameDecoder",
    "GetRequest",
    "KVClient",
    "KVServer",
    "MAGIC",
    "MGetRequest",
    "MSetRequest",
    "Message",
    "MetricsRequest",
    "MetricsResponse",
    "MultiKeyValueResponse",
    "MultiValueResponse",
    "OkResponse",
    "Pipeline",
    "PingRequest",
    "PongResponse",
    "ScanRequest",
    "ServerConfig",
    "SetRequest",
    "StatsRequest",
    "StatsResponse",
    "ValueResponse",
    "decode_frames",
    "encode_frame",
    "opcode_table",
    "remote_error",
]
