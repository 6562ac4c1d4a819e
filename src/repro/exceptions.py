"""Exception hierarchy for the PBC reproduction library.

Every error raised by the library derives from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while still distinguishing
the individual failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EncodingError(ReproError):
    """A field value cannot be encoded by the selected field encoder."""


class DecodingError(ReproError):
    """A compressed payload is malformed or truncated."""


class PatternError(ReproError):
    """A pattern definition is invalid (e.g. empty, or mismatched encoder list)."""


class MatchError(ReproError):
    """A record could not be matched against a pattern it was expected to match."""


class ClusteringError(ReproError):
    """The clustering stage received invalid input (e.g. empty sample set)."""


class DictionaryError(ReproError):
    """A pattern dictionary is inconsistent (duplicate ids, unknown pattern id)."""


class CompressorError(ReproError):
    """A compressor was used before training or with incompatible options."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""


class StoreError(ReproError):
    """A storage substrate (block store / TierBase) operation failed."""


class StreamError(ReproError):
    """Base class for errors raised by the :mod:`repro.stream` subsystem."""


class StreamFormatError(StreamError):
    """A stream container file is malformed, truncated, or not a stream file."""


class FrameCorruptionError(StreamFormatError):
    """A frame (or the footer) failed its CRC32 integrity check."""


class ServiceError(ReproError):
    """A :mod:`repro.service` operation failed (bad configuration, closed service)."""


class LoadError(ReproError):
    """A :mod:`repro.loadgen` run was asked for something impossible (no
    operations, no workers, a non-positive rate, an empty key space)."""


class CodecError(ReproError):
    """A :mod:`repro.codecs` registry or codec operation failed."""


class UnknownCodecError(CodecError, StreamFormatError):
    """A codec id or name is not present in the :mod:`repro.codecs` registry.

    Also a :class:`StreamFormatError`: an unknown codec id read from a stream
    frame header means the container cannot be decoded, and pre-registry
    callers catch the stream hierarchy.
    """


class MissingModelError(CompressorError, StreamFormatError):
    """A trained model payload is required but absent (empty/untrained).

    Dual-typed on purpose: an untrained value compressor historically raised
    :class:`CompressorError`, while a stream frame missing its dictionary
    payload historically raised :class:`StreamFormatError` — both contracts
    are preserved.
    """


class ObsError(ReproError):
    """A :mod:`repro.obs` metrics operation failed (bad metric name, kind or
    label mismatch on re-registration, negative counter increment)."""


class NetError(ReproError):
    """Base class for errors raised by the :mod:`repro.net` wire layer."""


class LimitExceededError(NetError):
    """A request exceeded a server-enforced size limit.

    Raised by the server when a SET/MSET value is larger than
    ``max_value_bytes`` or an MGET/MSET batch has more than
    ``max_batch_items`` entries; relayed to clients as a typed ERR frame,
    so ``except LimitExceededError`` works across the wire.  The offending
    request is rejected but the connection stays open.
    """


class RateLimitedError(NetError):
    """A connection exceeded its per-connection token-bucket rate limit.

    Relayed to clients as a typed ERR frame (``except RateLimitedError``
    works across the wire).  Only the over-budget request is rejected; the
    connection stays open and recovers as the bucket refills.
    """


class ProtocolError(NetError):
    """A wire frame is malformed: bad magic, unknown opcode, an oversized or
    inconsistent declared length, or a stream that ends mid-frame."""


class RemoteError(NetError):
    """A server-side error relayed over the wire to a :mod:`repro.net` client.

    ``kind`` names the exception class raised inside the server (for example
    ``"ModelEpochError"`` or ``"ServiceError"``); ``remote_message`` carries
    its message.  For kinds that name a known :mod:`repro.exceptions` class,
    the client raises a subclass that *also* inherits the original type, so
    ``except ModelEpochError`` keeps working across the wire.
    """

    def __init__(self, kind: str, remote_message: str) -> None:
        super().__init__(f"{kind}: {remote_message}")
        self.kind = kind
        self.remote_message = remote_message


class OplogError(ReproError):
    """A :mod:`repro.oplog` operation failed (closed sink/subscription, bad
    sequencer or ring configuration)."""


class SubscriberLagError(OplogError):
    """An operation-log subscriber was overrun: the bounded ring evicted
    records it had not read yet.

    The subscriber's cursor is resynchronised to the oldest retained record,
    but the stream it sees now has a gap — a follower must re-seed from a
    snapshot rather than keep applying.  ``missed`` counts the evicted
    records.
    """

    def __init__(self, message: str, missed: int = 0) -> None:
        super().__init__(message)
        self.missed = missed


class ModelEpochError(CodecError):
    """A payload references a trained-model epoch that is no longer retained.

    Raised on decompression when the epoch stamped into a versioned payload
    header has been pruned from the :class:`repro.codecs.ModelStore` — e.g. a
    cached payload outliving every live reference to its training epoch.
    """
