"""Docs-consistency checks: the documentation suite cannot silently rot.

These tests pin the documentation to the code: every ``src/repro`` package
must be mentioned in ``docs/ARCHITECTURE.md`` and the README's module index,
the byte layouts documented in ``docs/FORMATS.md`` must match the magic
numbers and codec ids in the source, and documented CLI commands must exist.
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _read(relative: str) -> str:
    path = REPO_ROOT / relative
    assert path.exists(), f"{relative} is missing"
    return path.read_text(encoding="utf-8")


def repro_packages() -> list[str]:
    """Every package under ``src/repro`` (directories with an ``__init__.py``)."""
    return sorted(
        path.name for path in SRC.iterdir() if path.is_dir() and (path / "__init__.py").exists()
    )


def test_every_package_is_listed():
    """Sanity: package discovery sees the expected layout (codecs included)."""
    packages = repro_packages()
    assert "core" in packages and "service" in packages and "stream" in packages
    assert "codecs" in packages
    assert len(packages) >= 14


@pytest.mark.parametrize("document", ["docs/ARCHITECTURE.md", "README.md"])
def test_every_package_is_documented(document):
    text = _read(document)
    missing = [name for name in repro_packages() if f"repro.{name}" not in text]
    assert not missing, f"{document} does not mention: {missing}"


def test_architecture_covers_top_level_modules():
    text = _read("docs/ARCHITECTURE.md")
    for module in ("repro.cli", "repro.exceptions", "repro.loadgen"):
        assert module in text, f"docs/ARCHITECTURE.md does not mention {module}"


def test_architecture_links_formats():
    assert "FORMATS.md" in _read("docs/ARCHITECTURE.md")


class TestFormatsMatchCode:
    def test_stream_container_magics(self):
        from repro.stream import format as stream_format

        text = _read("docs/FORMATS.md")
        assert stream_format.MAGIC.decode("ascii") in text
        assert stream_format.END_MAGIC.decode("ascii") in text

    def test_sstable_magic(self):
        from repro.lsm import sstable

        text = _read("docs/FORMATS.md")
        assert f"0x{sstable._MAGIC:08X}" in text
        assert sstable._MAGIC.to_bytes(4, "big").decode("ascii") in text

    def test_every_registered_codec_id_is_documented(self):
        """FORMATS.md is pinned to the registry, not a hand-maintained list:
        registering a codec without documenting it fails here."""
        from repro.codecs import codec_specs

        text = _read("docs/FORMATS.md")
        specs = codec_specs()
        assert specs, "codec registry is empty"
        for spec in specs:
            assert f"{spec.codec_id} `{spec.name}`" in text, (
                f"FORMATS.md codec table is stale for {spec.name!r} (id {spec.codec_id})"
            )

    def test_versioned_payload_header_documented(self):
        text = _read("docs/FORMATS.md")
        assert "Versioned value payload" in text
        assert "uvarint(epoch)" in text
        assert "ModelEpochError" in text
        assert "uvarint(model_epoch)" in text  # SSTable record-policy block header

    def test_wal_and_outlier_constants(self):
        from repro.core.pattern import OUTLIER_PATTERN_ID
        from repro.lsm.wal import OP_DELETE, OP_PUT

        text = _read("docs/FORMATS.md")
        assert f"{OP_PUT} = PUT" in text
        assert f"{OP_DELETE} = DELETE" in text
        assert OUTLIER_PATTERN_ID == 0 and "pattern_id == 0" in text

    def test_wal_sync_modes_documented(self):
        """FORMATS.md §4 documents every WAL sync_mode the code accepts."""
        from repro.lsm.wal import SYNC_MODES

        text = _read("docs/FORMATS.md")
        assert "`sync_mode`" in text and "fsync_interval_bytes" in text
        for mode in SYNC_MODES:
            assert f"| `{mode}`" in text, f"FORMATS.md sync_mode table misses {mode!r}"

    def test_tierbase_snapshot_magic(self):
        from repro.tierbase.snapshot import SNAPSHOT_MAGIC

        from repro.tierbase.snapshot import LEGACY_SNAPSHOT_MAGIC

        text = _read("docs/FORMATS.md")
        assert SNAPSHOT_MAGIC == b"TBS2"
        assert LEGACY_SNAPSHOT_MAGIC == b"TBS1"
        assert f'magic "{SNAPSHOT_MAGIC.decode("ascii")}"' in text
        assert f'magic `"{LEGACY_SNAPSHOT_MAGIC.decode("ascii")}"`' in text
        assert "TierBase snapshot" in text

    def test_sstable_quarantine_documented(self):
        from repro.lsm.engine import QUARANTINE_DIR

        text = _read("docs/FORMATS.md")
        assert f"`{QUARANTINE_DIR}/`" in text
        assert "Atomic publication" in text

    def test_pbc_file_magic(self):
        from repro.cli import _FILE_MAGIC

        assert f'"{_FILE_MAGIC.decode("ascii")}"' in _read("docs/FORMATS.md")

    def test_wire_frame_magic(self):
        from repro.net.protocol import MAGIC

        text = _read("docs/FORMATS.md")
        assert f'magic "{MAGIC.decode("ascii")}"' in text

    def test_every_wire_opcode_is_documented(self):
        """FORMATS.md §7 is pinned to ``repro.net.protocol``: registering a
        frame type without documenting its opcode row fails here."""
        from repro.net.protocol import FRAME_TYPES

        text = _read("docs/FORMATS.md")
        assert FRAME_TYPES, "wire frame registry is empty"
        for frame_type in FRAME_TYPES:
            row = f"0x{frame_type.opcode:02X} `{frame_type.wire_name}`"
            assert row in text, (
                f"FORMATS.md opcode table is stale for {frame_type.wire_name!r} "
                f"(opcode 0x{frame_type.opcode:02X})"
            )
            assert frame_type.__name__ in text, (
                f"FORMATS.md does not name the {frame_type.__name__} dataclass"
            )

    def test_documented_opcode_count_matches_registry(self):
        """No documented-but-unregistered ghosts: the table row count in
        FORMATS.md §7 equals the registry size."""
        import re

        from repro.net.protocol import FRAME_TYPES

        text = _read("docs/FORMATS.md")
        rows = re.findall(r"^\| 0x[0-9A-F]{2} `\w+` \|", text, flags=re.MULTILINE)
        assert len(rows) == len(FRAME_TYPES)


class TestObservabilityDocs:
    @staticmethod
    def _registry_families():
        """The families a default KVServer registers (no sockets opened)."""
        from repro.net.server import KVServer
        from repro.service import KVService, ServiceConfig

        service = KVService(ServiceConfig(shard_count=1, compressor="none"))
        try:
            return list(KVServer(service).registry.families())
        finally:
            service.close()

    def test_metric_inventory_matches_registry(self):
        """Anti-ghost in both directions: every registered metric family has
        a row in the ARCHITECTURE.md inventory table, and every
        ``repro_*`` metric name the docs mention is actually registered."""
        import re

        text = _read("docs/ARCHITECTURE.md")
        families = self._registry_families()
        assert len(families) >= 20
        registered = {family.name for family in families}
        for family in families:
            assert f"| `{family.name}` | {family.kind} |" in text, (
                f"ARCHITECTURE.md metric inventory misses {family.name!r}"
            )
        documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", text))
        documented |= set(re.findall(r"\b(repro_[a-z0-9_]+)\b", _read("docs/FORMATS.md")))
        documented |= set(re.findall(r"\b(repro_[a-z0-9_]+)\b", _read("README.md")))
        ghosts = documented - registered
        assert ghosts == set(), f"docs mention unregistered metrics: {sorted(ghosts)}"

    def test_rejection_reasons_documented(self):
        text = _read("docs/ARCHITECTURE.md")
        for reason in ("rate", "value_bytes", "batch_items"):
            assert f"`{reason}`" in text or f'"{reason}"' in text, (
                f"ARCHITECTURE.md does not document rejection reason {reason!r}"
            )

    def test_exposition_content_type_documented(self):
        from repro.obs import CONTENT_TYPE

        assert CONTENT_TYPE in _read("docs/FORMATS.md")

    def test_readme_metrics_quickstart(self):
        text = _read("README.md")
        assert "--metrics-port" in text
        assert "/healthz" in text
        assert "client --port 9100 metrics" in text

    def test_serve_metrics_and_limit_flags_parse(self):
        """Every observability flag the docs name actually parses."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--metrics-port", "9101", "--rate-limit", "100",
             "--rate-burst", "10", "--max-value-bytes", "1024",
             "--max-batch-items", "64", "--slow-ms", "50"]
        )
        assert args.metrics_port == 9101
        assert args.rate_limit == 100.0
        args = parser.parse_args(["client", "metrics", "--raw"])
        assert args.raw
        args = parser.parse_args(["client", "bench", "--rate", "500"])
        assert args.rate == 500.0

    def test_scan_and_scenarios_flags_parse(self):
        """The scan/scenario invocations the docs show actually parse."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["client", "scan", "a", "z", "--limit", "100"])
        assert (args.start, args.end, args.limit) == ("a", "z", 100)
        args = parser.parse_args(["client", "scan"])  # fully-open range
        assert args.start is None and args.end is None and args.limit == 0
        args = parser.parse_args(
            ["scenarios", "--mixes", "ycsb_e", "paper_trades", "--raw",
             "--backends", "lsm", "--output", "rows.json", "--ops", "512",
             "--rate", "2000"]
        )
        assert args.mixes == ["ycsb_e", "paper_trades"]
        assert args.backends == ["lsm"]
        assert args.raw and args.output == "rows.json"


def test_documented_cli_commands_exist():
    """Every CLI command named in the README/ARCHITECTURE actually parses."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    commands = set(subparsers.choices)
    for expected in ("train", "compress", "decompress", "inspect", "stream", "serve-bench",
                     "serve", "client", "scenarios", "experiments", "experiment",
                     "datasets", "codecs", "oplog"):
        assert expected in commands, f"CLI command {expected!r} documented but not implemented"


def test_serve_bench_compressor_choices_come_from_registry():
    """The compressor menu is the registry's trainable codecs plus "none",
    and the CLI (which derives it separately to stay import-light) agrees."""
    from repro.cli import build_parser
    from repro.codecs import trainable_codec_names
    from repro.service.backends import COMPRESSOR_CHOICES

    assert COMPRESSOR_CHOICES == ("none", *trainable_codec_names())
    parser = build_parser()
    serve_bench = next(
        action.choices["serve-bench"]
        for action in parser._actions
        if hasattr(action, "choices") and action.choices and "serve-bench" in action.choices
    )
    compressor = next(
        action for action in serve_bench._actions if "--compressor" in action.option_strings
    )
    assert tuple(compressor.choices) == COMPRESSOR_CHOICES


def test_readme_mentions_service_quickstart():
    text = _read("README.md")
    assert "KVService" in text and "ServiceConfig" in text
    assert "serve-bench" in text
    assert "Which compressor when" in text


def test_durability_contract_documented():
    """The restart/durability story is discoverable from both entry docs."""
    readme = _read("README.md")
    assert "--data-dir" in readme and "--sync-mode" in readme
    assert "TBS1" in readme
    architecture = _read("docs/ARCHITECTURE.md")
    assert "## Durability" in architecture
    for mode in ("none", "flush", "fsync"):
        assert f"`{mode}`" in architecture
    assert "test_durability.py" in architecture


def test_serve_has_data_dir_and_sync_mode_flags():
    """The flags the README quickstart uses actually parse."""
    from repro.cli import build_parser
    from repro.lsm.wal import SYNC_MODES

    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--data-dir", "/tmp/x", "--sync-mode", "fsync", "--backend", "lsm"]
    )
    assert args.directory == "/tmp/x"
    assert args.sync_mode == "fsync"
    serve = next(
        action.choices["serve"]
        for action in parser._actions
        if hasattr(action, "choices") and action.choices and "serve" in action.choices
    )
    sync_mode = next(
        action for action in serve._actions if "--sync-mode" in action.option_strings
    )
    assert tuple(sync_mode.choices) == SYNC_MODES


class TestBenchmarkDocs:
    """The entry docs point at the one benchmark system that gates merges."""

    @pytest.mark.parametrize("document", ["docs/BENCHMARKS.md", "README.md"])
    def test_docs_point_at_the_merge_gate(self, document):
        text = _read(document)
        assert "BENCHMARK.json" in text and "benchmarks/e2e/README.md" in text
        assert (REPO_ROOT / "BENCHMARK.json").exists()
        assert (REPO_ROOT / "benchmarks" / "e2e" / "README.md").exists()

    def test_readme_links_benchmarks_doc(self):
        text = _read("README.md")
        assert "docs/BENCHMARKS.md" in text

    @pytest.mark.parametrize(
        ("pair", "area", "commit", "metric", "before", "after"),
        [
            ("frame_decode_zero_copy", "wire", "1e28de0", "frames/s", "258 610", "321 464"),
            ("mvalue_batch_decode", "wire", "1e28de0", "frames/s", "14 522", "22 348"),
            ("matcher_candidate_index", "service", "2496554", "records/s", "157 934", "10 043 118"),
            ("service_inline_dispatch", "service", "2496554", "ops/s", "25 318", "112 550"),
            ("background_compaction", "service", "2496554", "puts/s", "1 558", "2 000"),
            ("wal_record_encode", "sustained", "2496554", "records/s", "124 841", "150 788"),
        ],
    )
    def test_frozen_history_records_each_pair(self, pair, area, commit, metric, before, after):
        """Each retired before/after pair keeps its numbers and the commit
        whose ``BENCH_<area>.json`` holds the full run table."""
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in _read("docs/BENCHMARKS.md").splitlines()
            if line.startswith(f"| `{pair}` |")
        ]
        assert len(rows) == 1, f"docs/BENCHMARKS.md has no single frozen-history row for {pair}"
        row = rows[0]
        assert row[1] == f"`{area}` @ `{commit}`"
        assert row[2] == metric
        assert row[3].startswith(before) and row[4].startswith(after)

    def test_frozen_history_names_the_flatness_mechanism_test(self):
        """The test the doc cites for the background_compaction mechanism exists."""
        text = _read("docs/BENCHMARKS.md")
        node = "tests/test_lsm_compaction.py::TestBackgroundScheduler::test_writer_never_merges_while_scheduler_lives"
        assert node in text
        path, cls, name = node.split("::")
        source = _read(path)
        assert f"class {cls}" in source and f"def {name}(" in source
