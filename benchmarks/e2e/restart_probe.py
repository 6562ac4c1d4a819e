"""The fresh process of a restart measurement (in-process workloads).

Spawned by :mod:`systems` with the checkout's ``src`` on ``PYTHONPATH``; it
opens the state the stopped system left behind, answers with one JSON line —
the value of one key, the key count and (codec state) a checksum over every
decoded record — and only then closes the store.  The parent's clock stops
at the answer line.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

from systems import COMPRESSOR, open_service, read_codec_state


def probe_codec(state_path: Path, key: int) -> dict:
    """Load the serialised models, decode every payload."""
    from repro.codecs import codec_by_name

    models, payloads = read_codec_state(state_path)
    codec = codec_by_name(COMPRESSOR)
    coders = [codec.record_coder(model) for model in models]
    crc = 0
    first = None
    for index, payload in enumerate(payloads):
        record = coders[index % len(coders)].decompress(payload)
        if index == key:
            first = record
        crc = zlib.crc32(record.encode("utf-8"), crc)
    return {"first": first, "keys": len(payloads), "checksum": crc}


def main(arguments: list[str]) -> int:
    if arguments[0] == "codec":
        print(json.dumps(probe_codec(Path(arguments[1]), int(arguments[2]))), flush=True)
        return 0
    directory, backend, key = arguments[1:4]
    service = open_service(Path(directory), backend)
    try:
        answer = {"first": service.get(key), "keys": len(service)}
        print(json.dumps(answer), flush=True)
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
