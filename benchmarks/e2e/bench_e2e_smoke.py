"""Smoke run of the end-to-end benchmark (collected by ``pytest benchmarks``).

All four workloads at a small ``--seconds`` plus one traced run, in about half
a minute: checks the shape of ``BENCHMARK.json``, that every run prints
exactly the declared metrics with the declared units, that no value is zero
and that the correctness oracle saw no failure.  Timings at this scale mean
nothing and are not asserted.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.4"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable if part == "python3" else part for part in DECLARED["command"]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--trace", str(trace),
         "--seconds", SECONDS],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16 and 1 <= len(DECLARED["per_layer"]) <= 128
    names = []
    for entry in DECLARED["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        names.append(entry["name"])
    for entry in DECLARED["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in DECLARED["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names) and len(set(names)) == len(names)
    setup = [entry for entry in DECLARED["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", [entry["name"] for entry in DECLARED["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    completed = _run(workload, trace=0)
    result = _result(completed)
    declared = {entry["name"]: entry["unit"] for entry in DECLARED["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert entry["value"] > 0, name
    assert "failed_share" in completed.stdout and "affinity:" in completed.stdout


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("serve_tierbase_read", trace=1))
    declared = {entry["name"]: entry["unit"] for entry in DECLARED["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name], name
    spans = sorted((ROOT / ".bench_work" / "traces").glob("serve_tierbase_read-seed7.jsonl"))
    assert spans, "the traced run writes its spans as JSON lines"
    first = json.loads(spans[0].read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "op"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("codec_records", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
