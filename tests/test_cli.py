"""Tests for the ``pbc`` command-line interface."""

import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.pattern import PatternDictionary

from tests.conftest import make_template_records


@pytest.fixture
def records_file(tmp_path):
    """A training/input file with one machine-generated record per line."""
    path = tmp_path / "records.txt"
    path.write_text("\n".join(make_template_records(120, seed=21)) + "\n", encoding="utf-8")
    return path


def train_dictionary_file(tmp_path, records_file):
    """Run ``pbc train`` and return the dictionary path."""
    dictionary_path = tmp_path / "dict.json"
    exit_code = main(
        [
            "train",
            "--input",
            str(records_file),
            "--output",
            str(dictionary_path),
            "--max-patterns",
            "6",
            "--sample-size",
            "64",
        ]
    )
    assert exit_code == 0
    return dictionary_path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "pbc" in capsys.readouterr().out

    def test_train_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--output", "dict.json"])

    def test_train_rejects_both_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--input", "a.txt", "--dataset", "kv1", "--output", "dict.json"]
            )

    def test_there_is_no_bench_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "list"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_serve_always_compacts_in_the_background(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--backend", "lsm", "--no-background-compaction"])
        assert excinfo.value.code == 2
        assert "--no-background-compaction" in capsys.readouterr().err


class TestListingCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "kv1" in output
        assert "unece" in output

    def test_codecs_listing(self, capsys):
        assert main(["codecs"]) == 0
        output = capsys.readouterr().out
        for name in ("zstd", "lz4", "fsst", "repair", "sequitur"):
            assert name in output

    def test_codecs_list_prints_the_registry(self, capsys):
        from repro.codecs import codec_specs

        assert main(["codecs", "list"]) == 0
        output = capsys.readouterr().out
        for spec in codec_specs():
            assert spec.name in output
            assert f"0x{spec.magic.hex().upper()}" in output
        assert "trainable" in output

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "table3" in output
        assert "fig5" in output


class TestTrainAndInspect:
    def test_train_from_file_writes_dictionary(self, tmp_path, records_file, capsys):
        dictionary_path = train_dictionary_file(tmp_path, records_file)
        output = capsys.readouterr().out
        assert "trained" in output
        dictionary = PatternDictionary.from_bytes(dictionary_path.read_bytes())
        assert len(dictionary) >= 1

    def test_train_from_dataset(self, tmp_path, capsys):
        dictionary_path = tmp_path / "dict.json"
        exit_code = main(
            [
                "train",
                "--dataset",
                "apache",
                "--count",
                "120",
                "--output",
                str(dictionary_path),
                "--max-patterns",
                "8",
                "--sample-size",
                "48",
            ]
        )
        assert exit_code == 0
        assert dictionary_path.exists()

    def test_train_verbose_prints_patterns(self, tmp_path, records_file, capsys):
        dictionary_path = tmp_path / "dict.json"
        main(
            [
                "train",
                "--input",
                str(records_file),
                "--output",
                str(dictionary_path),
                "--max-patterns",
                "6",
                "--sample-size",
                "64",
                "--verbose",
            ]
        )
        assert "[1]" in capsys.readouterr().out

    def test_train_on_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        exit_code = main(["train", "--input", str(empty), "--output", str(tmp_path / "d.json")])
        assert exit_code == 2
        assert "no training records" in capsys.readouterr().err

    def test_inspect_prints_patterns(self, tmp_path, records_file, capsys):
        dictionary_path = train_dictionary_file(tmp_path, records_file)
        capsys.readouterr()
        assert main(["inspect", "--dictionary", str(dictionary_path)]) == 0
        output = capsys.readouterr().out
        assert "patterns" in output

    def test_inspect_missing_file_fails_gracefully(self, tmp_path, capsys):
        exit_code = main(["inspect", "--dictionary", str(tmp_path / "absent.json")])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestCompressDecompress:
    def test_roundtrip_through_files(self, tmp_path, records_file, capsys):
        dictionary_path = train_dictionary_file(tmp_path, records_file)
        compressed_path = tmp_path / "records.pbc"
        restored_path = tmp_path / "restored.txt"

        assert (
            main(
                [
                    "compress",
                    "--dictionary",
                    str(dictionary_path),
                    "--input",
                    str(records_file),
                    "--output",
                    str(compressed_path),
                ]
            )
            == 0
        )
        assert "ratio" in capsys.readouterr().out
        assert compressed_path.stat().st_size < records_file.stat().st_size

        assert (
            main(
                [
                    "decompress",
                    "--dictionary",
                    str(dictionary_path),
                    "--input",
                    str(compressed_path),
                    "--output",
                    str(restored_path),
                ]
            )
            == 0
        )
        assert restored_path.read_text(encoding="utf-8") == records_file.read_text(encoding="utf-8")

    def test_decompress_rejects_non_pbc_file(self, tmp_path, records_file, capsys):
        dictionary_path = train_dictionary_file(tmp_path, records_file)
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a pbc file")
        exit_code = main(
            [
                "decompress",
                "--dictionary",
                str(dictionary_path),
                "--input",
                str(bogus),
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert exit_code == 2
        assert "not a pbc-compressed file" in capsys.readouterr().err

    def test_compress_with_missing_dictionary_fails_gracefully(self, tmp_path, records_file, capsys):
        exit_code = main(
            [
                "compress",
                "--dictionary",
                str(tmp_path / "absent.json"),
                "--input",
                str(records_file),
                "--output",
                str(tmp_path / "out.pbc"),
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestStreamCommands:
    def test_stream_roundtrip_through_files(self, tmp_path, records_file, capsys):
        container = tmp_path / "records.rps"
        restored = tmp_path / "restored.txt"
        assert (
            main(
                [
                    "stream",
                    "compress",
                    "--input",
                    str(records_file),
                    "--output",
                    str(container),
                    "--codec",
                    "adaptive",
                    "--frame-records",
                    "40",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "frames" in output
        assert (
            main(["stream", "decompress", "--input", str(container), "--output", str(restored)])
            == 0
        )
        assert restored.read_text(encoding="utf-8") == records_file.read_text(encoding="utf-8")

    def test_stream_inspect_lists_frames(self, tmp_path, records_file, capsys):
        container = tmp_path / "records.rps"
        main(
            [
                "stream", "compress", "--input", str(records_file),
                "--output", str(container), "--codec", "gzip", "--frame-records", "50",
            ]
        )
        capsys.readouterr()
        assert main(["stream", "inspect", "--input", str(container)]) == 0
        output = capsys.readouterr().out
        assert "stream container v1" in output
        assert "gzip" in output

    def test_stream_get_returns_exact_record(self, tmp_path, records_file, capsys):
        container = tmp_path / "records.rps"
        main(
            [
                "stream", "compress", "--input", str(records_file),
                "--output", str(container), "--codec", "pbc", "--frame-records", "32",
            ]
        )
        records = records_file.read_text(encoding="utf-8").splitlines()
        capsys.readouterr()
        assert main(["stream", "get", "--input", str(container), "--index", "77"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == records[77]

    def test_stream_get_out_of_range_fails_gracefully(self, tmp_path, records_file, capsys):
        container = tmp_path / "records.rps"
        main(
            [
                "stream", "compress", "--input", str(records_file),
                "--output", str(container), "--codec", "raw",
            ]
        )
        capsys.readouterr()
        assert main(["stream", "get", "--input", str(container), "--index", "99999"]) == 1
        assert "error" in capsys.readouterr().err

    def test_stream_inspect_rejects_non_stream_file(self, records_file, capsys):
        assert main(["stream", "inspect", "--input", str(records_file)]) == 1
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_unknown_experiment_id_fails_gracefully(self, capsys):
        exit_code = main(["experiment", "does-not-exist"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_table2_experiment_runs(self, capsys):
        assert main(["experiment", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "kv1" in output


class TestServeImports:
    #: What ``repro serve`` must never load: ``asyncio`` (which imports
    #: ``ssl``) and ``hashlib``'s ``_hashlib`` map OpenSSL, and the packages
    #: are offline tooling the server has no command for.
    FORBIDDEN = (
        "asyncio", "ssl", "_hashlib", "repro.stream", "repro.bench",
        "repro.columnar", "repro.jsonenc", "repro.logs",
    )

    #: Builds the serve path as ``repro serve`` does (lsm shards, so closing
    #: writes an SSTable and its Bloom filter), serves one SET/GET, and
    #: prints whatever forbidden module got loaded.
    SCRIPT = """
import sys
import threading
from repro.cli import _build_service, build_parser
from repro.net import KVClient, KVServer, ServerConfig

args = build_parser().parse_args([
    "serve", "--port", "0", "--shards", "2", "--backend", "lsm",
    "--data-dir", sys.argv[1], "--train-count", "64",
])
service, _, cleanup = _build_service(args)
with KVServer(service, ServerConfig(port=0)) as server:
    with KVClient(*server.address, pool_size=1) as client:
        client.set("k", "v")
        assert client.get("k") == "v"
service.close()
cleanup()
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""

    def test_serve_path_loads_no_asyncio_openssl_or_offline_packages(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "data"), *self.FORBIDDEN],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []
        assert list((tmp_path / "data").glob("shard-*/sstable-*.sst"))

    def test_stream_codec_choices_are_the_frame_codecs(self):
        from repro.stream import frame_codec_names

        for codec in ["adaptive", *frame_codec_names()]:
            args = build_parser().parse_args(
                ["stream", "compress", "--dataset", "kv1", "--output", "x", "--codec", codec]
            )
            assert args.codec == codec
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "compress", "--dataset", "kv1", "--output", "x", "--codec", "nope"]
            )


class TestServeSigterm:
    """``kill -TERM`` drains ``repro serve`` like Ctrl-C: the acknowledged
    write is flushed to the tierbase ``--data-dir`` and survives a restart."""

    ARGV = ["serve", "--port", "0", "--shards", "2", "--backend", "tierbase",
            "--compressor", "zstd", "--train-count", "64"]

    @staticmethod
    def start(data_dir: Path) -> tuple[subprocess.Popen, str, int, str]:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TestServeSigterm.ARGV,
             "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=lambda: lines.put(process.stdout.readline()), daemon=True).start()
        try:
            line = lines.get(timeout=120)
        except queue.Empty:
            process.kill()
            pytest.fail(f"no 'serving' line within 120 s: {process.communicate()[1]}")
        assert line.startswith("serving "), (line, process.stderr.read())
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        return process, host, int(port), line

    @staticmethod
    def terminate(process: subprocess.Popen) -> str:
        import signal

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        return stdout

    def test_sigterm_drains_and_restart_reads_the_write_back(self, tmp_path):
        from repro.net import KVClient

        process, host, port, line = self.start(tmp_path)
        try:
            assert "fresh" in line
            with KVClient(host, port, pool_size=1) as client:
                client.set("durable", "yes")
            assert "drained: " in self.terminate(process)
        finally:
            process.kill()
            process.wait()

        process, host, port, line = self.start(tmp_path)
        try:
            assert "reopened 1 key(s)" in line
            with KVClient(host, port, pool_size=1) as client:
                assert client.get("durable") == "yes"
            assert "drained: " in self.terminate(process)
        finally:
            process.kill()
            process.wait()
