"""Golden pins: trained ``pbc_f`` models and payloads, byte for byte.

The values were recorded before the FSST tokenizer and the merge DP were
rewritten, under ``PYTHONHASHSEED`` 0, 1 and ``random``.  A change to training
(clustering order, DP tie-breaks, FSST symbol ranking) moves the model pin; a
change to the per-record encode (pattern choice, field encoders, FSST codes)
moves the payload pin.  Either one also moves ``compression_ratio`` in the
end-to-end benchmark, which must stay bit-identical.
"""

import hashlib

import pytest

from repro.codecs import codec_by_name
from repro.datasets import load_dataset

# dataset -> (model length, sha256 of the model, sha256 of 2000 concatenated payloads)
GOLDEN = {
    "kv1": (
        1955,
        "0a5b305ff8a70249a58aa82aad690fce9c79d20b8a8326bb801993ec1a002750",
        "8eedd4e14f785b7002b56a5ced8458a9dfccadb0f7d4217522909aaac64b429a",
    ),
    "kv2": (
        5684,
        "33f3190c4338a3a2e653cbd434313b3260bcd79c3b7a092cd3820c1baa4387a6",
        "646a70e837b6449b656f802e054cd42e14e9d8507a7611bda66ba6e34da2bb73",
    ),
    "hdfs": (
        1525,
        "f99cb8553eb15f8636a7d1e6afb9dabf9a39112f6fc4472dbab9565e2b1e220c",
        "36736d243f8b00765606b755c9e950ac9033821238ad75a1079392e2fadc5b5c",
    ),
    "alilogs": (
        2070,
        "27215c90dfc71c5c552b5ddf50c87f6a7094c9b5c515724b51f2c546a23f891f",
        "0639fd6eca81e756d74d717dfebbd88ec67fa1669ac64e1bce8527702395bc8c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trained_model_and_payloads_are_byte_identical(name):
    length, model_digest, payload_digest = GOLDEN[name]
    codec = codec_by_name("pbc_f")
    model = codec.train(load_dataset(name, count=512))
    assert (len(model), hashlib.sha256(model).hexdigest()) == (length, model_digest)

    coder = codec.record_coder(model)
    records = load_dataset(name, count=2000, seed=1)
    payloads = [coder.compress(record) for record in records]
    assert hashlib.sha256(b"".join(payloads)).hexdigest() == payload_digest
    assert [coder.decompress(payload) for payload in payloads] == list(records)
