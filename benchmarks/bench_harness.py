"""Perf-harness smoke — one tiny grid run plus a self-compare.

Executes the ``wire`` experiment area at smoke scale (same cells as the
committed ``BENCH_wire.json``, far fewer operations), validates the
resulting document, and self-compares it — exercising exactly the pipeline
the CI ``perf-gate`` job runs against the committed baseline.  On a shared
runner the absolute numbers are noise; what this pins is that the harness
produces schema-valid, comparable documents end to end.
"""

from repro.bench import render_table
from repro.bench.harness import compare_documents, run_area, validate_document

OVERRIDES = {"operations": 96, "values": 64}
REPETITIONS = 2


def run_harness_benchmark() -> dict:
    """One smoke-scale wire grid run; returns the benchmark document."""
    return run_area("wire", repetitions=REPETITIONS, warmup=0, overrides=OVERRIDES)


def test_harness_smoke(benchmark):
    document = benchmark.pedantic(run_harness_benchmark, iterations=1, rounds=1)
    validate_document(document)
    assert len(document["rows"]) == 4 * REPETITIONS
    assert all(row["lost"] == 0 and row["corrupt"] == 0 for row in document["rows"])
    report, regressions = compare_documents(document, document, threshold=0.15)
    assert regressions == 0
    print()
    print(render_table(report, title="bench harness smoke (self-compare)"))
