"""Shared infrastructure for the synthetic dataset generators.

The paper evaluates on proprietary production key-value datasets, public log
corpora and JSON corpora (Table 2).  None of those can ship with this
reproduction, so each dataset is replaced by a *seeded synthetic generator*
that emits records with the same structural character: a handful of
machine-generated templates per dataset, realistic field value distributions,
matching average record lengths, and a small outlier fraction (docs/ARCHITECTURE.md,
substitution 1).

Generators are plain functions ``fn(count, rng) -> list[str]`` registered in a
dataset registry together with the paper's Table 2 statistics, so benchmarks
can report paper-vs-generated statistics side by side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import DatasetError

#: Word pool used to synthesise identifiers, hostnames and message fragments.
_WORDS = (
    "alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda",
    "orders", "payment", "billing", "charging", "account", "session", "cache",
    "router", "gateway", "worker", "scheduler", "replica", "shard", "bucket",
    "index", "search", "metrics", "trace", "audit", "batch", "stream", "queue",
    "user", "client", "tenant", "service", "cluster", "node", "region", "zone",
)

_HEX_DIGITS = "0123456789abcdef"


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one dataset.

    ``paper_records`` and ``paper_avg_len`` are the Table 2 statistics of the
    original corpus; ``default_count`` is the record count the reproduction
    generates by default (scaled down to laptop size).
    """

    name: str
    category: str  # "kv", "log", "json" or "misc"
    description: str
    generator: Callable[[int, random.Random], list[str]]
    default_count: int
    paper_records: float
    paper_avg_len: float


@dataclass(frozen=True)
class DatasetStatistics:
    """Basic statistics of a generated dataset (the Table 2 columns)."""

    name: str
    records: int
    total_bytes: int
    avg_record_len: float
    min_record_len: int
    max_record_len: int


def compute_statistics(name: str, records: Sequence[str]) -> DatasetStatistics:
    """Compute the Table 2 statistics columns for a list of records."""
    if not records:
        raise DatasetError(f"dataset {name!r} generated no records")
    lengths = [len(record.encode("utf-8")) for record in records]
    return DatasetStatistics(
        name=name,
        records=len(records),
        total_bytes=sum(lengths),
        avg_record_len=sum(lengths) / len(lengths),
        min_record_len=min(lengths),
        max_record_len=max(lengths),
    )


# --------------------------------------------------------------------- helpers


def pick_word(rng: random.Random) -> str:
    """Random identifier word."""
    return rng.choice(_WORDS)


def hex_token(rng: random.Random, length: int) -> str:
    """Random fixed-length lowercase hex string."""
    return "".join(rng.choice(_HEX_DIGITS) for _ in range(length))


def digits(rng: random.Random, length: int) -> str:
    """Random fixed-length decimal digit string (leading zeros allowed)."""
    return "".join(rng.choice("0123456789") for _ in range(length))


def epoch_seconds(rng: random.Random) -> int:
    """Random Unix timestamp inside a plausible 2021-2023 window."""
    return rng.randint(1_609_459_200, 1_703_980_800)


def ip_address(rng: random.Random) -> str:
    """Random dotted-quad IPv4 address."""
    return ".".join(str(rng.randint(1, 254)) for _ in range(4))


def uuid4_string(rng: random.Random) -> str:
    """RFC-4122 style random UUID rendered as the canonical 36-character string."""
    raw = [rng.randint(0, 15) for _ in range(32)]
    raw[12] = 4  # version nibble
    raw[16] = (raw[16] & 0x3) | 0x8  # variant nibble
    text = "".join(_HEX_DIGITS[nibble] for nibble in raw)
    return f"{text[0:8]}-{text[8:12]}-{text[12:16]}-{text[16:20]}-{text[20:32]}"
