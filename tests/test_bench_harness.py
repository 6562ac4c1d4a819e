"""Tests for the evidence-grade perf harness (``repro.bench.harness``).

Three pillars, per the PR's acceptance criteria:

* **document schema** — every ``BENCH_*.json`` carries the envelope keys,
  the env fingerprint and per-cell monotone repetition ids; the frozen
  before/after optimization pairs of the committed documents are accepted
  but no longer required; :func:`validate_document` rejects each violation
  with a typed error;
* **determinism of shape** — a grid run produces exactly
  ``cells × repetitions`` rows regardless of workload knobs;
* **compare semantics** — identical documents pass, a cell whose mean
  throughput drops past the threshold fails, a vanished cell fails, a new
  cell never fails, and the CLI maps these to exit codes 0/1 (plus 2 for
  ``--require-baseline`` on a missing file).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import harness
from repro.bench.harness import (
    AREAS,
    BenchHarnessError,
    ExperimentGrid,
    compare_documents,
    env_fingerprint,
    run_area,
    validate_document,
)
from repro.cli import main

#: tiny knobs so a full grid run stays in CI-smoke territory.
WIRE_OVERRIDES = {"operations": 48, "values": 32}
SERVICE_OVERRIDES = {"operations": 48, "values": 32, "records": 32, "rate": 4000.0}


@pytest.fixture(scope="module")
def wire_document():
    return run_area("wire", repetitions=2, warmup=0, overrides=WIRE_OVERRIDES)


# ----------------------------------------------------------------------- grid


class TestGrid:
    def test_cells_are_the_cartesian_product_in_declared_order(self):
        grid = ExperimentGrid(
            name="toy",
            description="",
            kind="closed_wire",
            dimensions={"a": (1, 2), "b": ("x", "y", "z")},
        )
        cells = grid.cells()
        assert len(cells) == 6
        assert cells[0] == {"a": 1, "b": "x"}
        assert cells[-1] == {"a": 2, "b": "z"}
        # first dimension varies slowest
        assert [cell["a"] for cell in cells] == [1, 1, 1, 2, 2, 2]

    def test_registered_areas(self):
        assert set(AREAS) == {"wire", "service", "sustained"}
        assert AREAS["wire"].kind == "closed_wire"
        assert AREAS["service"].kind == "open_scenario"
        assert AREAS["sustained"].kind == "sustained_write"
        assert len(AREAS["wire"].cells()) == 4
        assert len(AREAS["service"].cells()) == 8  # backend × mix × shards
        assert len(AREAS["sustained"].cells()) == 3

    def test_unknown_area_is_rejected(self):
        with pytest.raises(BenchHarnessError, match="unknown bench area"):
            harness.get_area("nope")

    def test_unknown_override_knob_is_rejected(self):
        with pytest.raises(BenchHarnessError, match="unknown base knob"):
            run_area("wire", overrides={"bogus": 1})

    def test_bad_repetition_counts_are_rejected(self):
        with pytest.raises(BenchHarnessError, match="at least one repetition"):
            run_area("wire", repetitions=0)
        with pytest.raises(BenchHarnessError, match="cannot be negative"):
            run_area("wire", warmup=-1)


# ------------------------------------------------------------------- document


class TestDocument:
    def test_envelope_and_fingerprint(self, wire_document):
        for key in harness.DOCUMENT_KEYS:
            assert key in wire_document
        assert wire_document["schema"] == harness.SCHEMA
        assert wire_document["area"] == "wire"
        for key in harness.ENV_KEYS:
            assert key in wire_document["env"]
        assert wire_document["env"]["cpu_count"] >= 1
        assert wire_document["config"]["base"]["operations"] == 48

    def test_row_count_is_cells_times_repetitions(self, wire_document):
        assert len(wire_document["rows"]) == 4 * 2

    def test_rows_carry_dimensions_and_metrics(self, wire_document):
        for row in wire_document["rows"]:
            for key in ("codec", "pipeline_depth", *harness.ROW_METRIC_KEYS):
                assert key in row
            assert row["ops_per_second"] > 0
            assert row["clock"] == "round-trip"
            assert row["lost"] == 0 and row["corrupt"] == 0

    def test_repetition_ids_are_monotone_per_cell(self, wire_document):
        seen: dict[tuple, int] = {}
        for row in wire_document["rows"]:
            cell = (row["codec"], row["pipeline_depth"])
            assert row["repetition"] == seen.get(cell, -1) + 1
            seen[cell] = row["repetition"]

    def test_service_area_uses_the_scheduled_release_clock(self):
        document = run_area(
            "service", repetitions=1, warmup=0, overrides=SERVICE_OVERRIDES
        )
        assert len(document["rows"]) == 8
        assert {row["clock"] for row in document["rows"]} == {"scheduled-release"}
        assert {row["backend"] for row in document["rows"]} == {"tierbase", "lsm"}
        assert {row["shards"] for row in document["rows"]} == {1, 4}

    def test_env_fingerprint_shape(self):
        fingerprint = env_fingerprint()
        assert set(fingerprint) == set(harness.ENV_KEYS)
        assert isinstance(fingerprint["cpu_count"], int)
        assert fingerprint["python"].count(".") == 2


class TestValidation:
    def test_missing_envelope_key(self, wire_document):
        broken = {key: value for key, value in wire_document.items() if key != "env"}
        with pytest.raises(BenchHarnessError, match="missing key 'env'"):
            validate_document(broken)

    def test_wrong_schema_marker(self, wire_document):
        broken = copy.deepcopy(wire_document)
        broken["schema"] = "repro-bench/0"
        with pytest.raises(BenchHarnessError, match="unsupported schema"):
            validate_document(broken)

    def test_missing_env_key(self, wire_document):
        broken = copy.deepcopy(wire_document)
        del broken["env"]["git_sha"]
        with pytest.raises(BenchHarnessError, match="missing key 'git_sha'"):
            validate_document(broken)

    def test_missing_row_metric(self, wire_document):
        broken = copy.deepcopy(wire_document)
        del broken["rows"][0]["p99_ms"]
        with pytest.raises(BenchHarnessError, match="missing key 'p99_ms'"):
            validate_document(broken)

    def test_missing_row_dimension(self, wire_document):
        broken = copy.deepcopy(wire_document)
        del broken["rows"][0]["codec"]
        with pytest.raises(BenchHarnessError, match="missing dimension 'codec'"):
            validate_document(broken)

    def test_non_monotone_repetitions(self, wire_document):
        broken = copy.deepcopy(wire_document)
        broken["rows"][1]["repetition"] = 5
        with pytest.raises(BenchHarnessError, match="not\\s+monotone"):
            validate_document(broken)

    def test_optimizations_are_optional_but_checked_when_present(self, wire_document):
        assert "optimizations" not in wire_document  # fresh runs measure no pairs
        frozen = copy.deepcopy(wire_document)
        frozen["optimizations"] = [
            {"name": "x", "metric": "ops", "before": 1.0, "after": 2.0, "improvement": 1.0}
        ]
        validate_document(frozen)

    def test_malformed_pair(self, wire_document):
        broken = copy.deepcopy(wire_document)
        broken["optimizations"] = [{"name": "x"}]
        with pytest.raises(BenchHarnessError, match="optimization pair"):
            validate_document(broken)

    def test_load_document_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchHarnessError, match="not valid JSON"):
            harness.load_document(path)


# ----------------------------------------------------------------- comparison


def _with_cell_scaled(document, codec, depth, factor):
    scaled = copy.deepcopy(document)
    for row in scaled["rows"]:
        if row["codec"] == codec and row["pipeline_depth"] == depth:
            row["ops_per_second"] = row["ops_per_second"] * factor
    return scaled


class TestCompare:
    def test_identical_documents_pass(self, wire_document):
        report, regressions = compare_documents(wire_document, wire_document, threshold=0.15)
        assert regressions == 0
        assert len(report) == 4
        assert {row["status"] for row in report} == {"ok"}

    def test_drop_past_threshold_regresses(self, wire_document):
        slowed = _with_cell_scaled(wire_document, "pbc_f", 8, 0.5)
        report, regressions = compare_documents(wire_document, slowed, threshold=0.15)
        assert regressions == 1
        (regressed,) = [row for row in report if row["status"] == "regressed"]
        assert regressed["cell"] == "codec=pbc_f, pipeline_depth=8"
        assert regressed["delta"] == pytest.approx(-0.5, abs=0.01)

    def test_drop_within_threshold_passes(self, wire_document):
        slowed = _with_cell_scaled(wire_document, "none", 0, 0.9)
        _, regressions = compare_documents(wire_document, slowed, threshold=0.15)
        assert regressions == 0

    def test_missing_cell_regresses(self, wire_document):
        shrunk = copy.deepcopy(wire_document)
        shrunk["rows"] = [row for row in shrunk["rows"] if row["codec"] != "none"]
        report, regressions = compare_documents(wire_document, shrunk, threshold=0.15)
        assert regressions == 2
        assert sum(row["status"] == "missing" for row in report) == 2

    def test_extra_new_cell_is_reported_but_never_fails(self, wire_document):
        grown = copy.deepcopy(wire_document)
        extra = copy.deepcopy(grown["rows"][0])
        extra["codec"] = "zstd3"
        grown["rows"].append(extra)
        report, regressions = compare_documents(wire_document, grown, threshold=0.15)
        assert regressions == 0
        assert sum(row["status"] == "new" for row in report) == 1

    def test_mismatched_areas_are_rejected(self, wire_document):
        other = copy.deepcopy(wire_document)
        other["area"] = "service"
        with pytest.raises(BenchHarnessError, match="cannot compare area"):
            compare_documents(wire_document, other)

    def test_threshold_bounds(self, wire_document):
        with pytest.raises(BenchHarnessError, match="threshold"):
            compare_documents(wire_document, wire_document, threshold=1.0)
        with pytest.raises(BenchHarnessError, match="threshold"):
            compare_documents(wire_document, wire_document, threshold=-0.1)

    def test_latency_regression_fails_only_when_gated(self, wire_document):
        lagged = copy.deepcopy(wire_document)
        for row in lagged["rows"]:
            if row["codec"] == "pbc_f" and row["pipeline_depth"] == 8:
                row["p99_ms"] = row["p99_ms"] * 10 + 5.0
        # Without the gate, a pure latency regression passes...
        _, regressions = compare_documents(wire_document, lagged, threshold=0.15)
        assert regressions == 0
        # ...with it, the lagged cell fails as "slower".
        report, regressions = compare_documents(
            wire_document, lagged, threshold=0.15, latency_threshold=0.5
        )
        assert regressions == 1
        (slower,) = [row for row in report if row["status"] == "slower"]
        assert slower["cell"] == "codec=pbc_f, pipeline_depth=8"
        assert slower["new_p99_ms"] > slower["old_p99_ms"]

    def test_latency_within_threshold_passes(self, wire_document):
        report, regressions = compare_documents(
            wire_document, wire_document, threshold=0.15, latency_threshold=0.5
        )
        assert regressions == 0
        assert {row["status"] for row in report} == {"ok"}

    def test_negative_latency_threshold_rejected(self, wire_document):
        with pytest.raises(BenchHarnessError, match="latency"):
            compare_documents(
                wire_document, wire_document, latency_threshold=-0.5
            )


# ------------------------------------------------------------------------ CLI


class TestCli:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        output = capsys.readouterr().out
        assert "wire" in output and "service" in output

    def test_bench_list_raw_is_json(self, capsys):
        assert main(["bench", "list", "--raw"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["area"] for row in rows] == ["wire", "service", "sustained"]

    def test_compare_identical_exits_zero(self, tmp_path, wire_document, capsys):
        path = self._write(tmp_path, "a.json", wire_document)
        assert main(["bench", "compare", path, path, "--threshold", "0.15"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_compare_injected_regression_exits_one(self, tmp_path, wire_document, capsys):
        slowed = _with_cell_scaled(wire_document, "pbc_f", 8, 0.5)
        old = self._write(tmp_path, "old.json", wire_document)
        new = self._write(tmp_path, "new.json", slowed)
        assert main(["bench", "compare", old, new, "--threshold", "0.15"]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_compare_missing_baseline_warns_and_exits_zero(self, tmp_path, wire_document, capsys):
        new = self._write(tmp_path, "new.json", wire_document)
        missing = str(tmp_path / "missing.json")
        assert main(["bench", "compare", missing, new]) == 0
        assert "warning" in capsys.readouterr().err

    def test_compare_require_baseline_exits_two(self, tmp_path, wire_document, capsys):
        new = self._write(tmp_path, "new.json", wire_document)
        missing = str(tmp_path / "missing.json")
        assert main(["bench", "compare", missing, new, "--require-baseline"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_compare_raw_report(self, tmp_path, wire_document, capsys):
        path = self._write(tmp_path, "a.json", wire_document)
        assert main(["bench", "compare", path, path, "--raw"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert len(payload["cells"]) == 4

    def test_bench_run_writes_valid_document(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                ["bench", "run", "wire", "--operations", "48", "--values", "32",
                 "--repetitions", "1", "--warmup", "0", "--quiet"]
            )
            == 0
        )
        document = harness.load_document(tmp_path / "BENCH_wire.json")
        assert len(document["rows"]) == 4
        assert "run table" in capsys.readouterr().out

    def test_bench_run_unknown_area_is_a_clean_error(self, capsys):
        assert main(["bench", "run", "nope", "--quiet"]) == 1
        assert "unknown bench area" in capsys.readouterr().err

    def test_bench_profile_prints_stats(self, capsys):
        assert main(["bench", "profile", "frame-decode", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "function calls" in output
        assert "cumulative" in output

    def test_bench_profile_unknown_target(self, capsys):
        assert main(["bench", "profile", "nope"]) == 1
        assert "unknown profile target" in capsys.readouterr().err
