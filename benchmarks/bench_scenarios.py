"""Scenario mixes — the YCSB-style suite over the wire scan path.

Runs a small subset of the `repro.scenarios` registry (one point mix, one
scan-heavy mix, one paper-native mix) against in-process servers on both
backends, through the one load driver (`repro.loadgen`, open loop) with its
correctness oracle.  The assertions are the oracle's: zero lost records,
zero corrupt values, zero out-of-order scans — on a pure-Python substrate
the throughput numbers are not the point, the end-to-end consistency of
the scan path under a mixed workload is.
"""

from repro.bench import render_table
from repro.scenarios import run_suite

#: Deliberately small: two backends × three mixes inside the bench-smoke budget.
MIXES = ("ycsb_b", "ycsb_e", "paper_trades")
BACKENDS = ("tierbase", "lsm")
OPERATIONS = 160
RATE = 2500.0
RECORDS = 96
VALUE_COUNT = 96


def run_scenarios_benchmark() -> list:
    """Run the mix matrix once; returns the per-mix results."""
    return run_suite(
        MIXES,
        backends=BACKENDS,
        operations=OPERATIONS,
        rate=RATE,
        records=RECORDS,
        value_count=VALUE_COUNT,
        compressor="pbc_f",
    )


def test_scenario_suite(benchmark):
    results = benchmark.pedantic(run_scenarios_benchmark, iterations=1, rounds=1)
    rows = [result.row() for result in results]
    print()
    print(
        render_table(
            [
                {
                    "scenario": row["scenario"],
                    "backend": row["backend"],
                    "ops": row["operations"],
                    "errors": row["errors"],
                    "achieved/s": f"{row['achieved_rate']:,.0f}",
                    "p99 ms": f"{row['p99_ms']:.3f}",
                    "scans": row["scan_count"],
                    "lost": row["lost"],
                    "corrupt": row["corrupt"],
                }
                for row in rows
            ],
            title="Scenario suite (smoke)",
        )
    )
    assert len(results) == len(MIXES) * len(BACKENDS)
    for result in results:
        assert result.load.completed + result.load.errors == OPERATIONS
        assert result.clean, result.row()
    # The scan-heavy mix must actually scan on both backends.
    scan_heavy = [result for result in results if result.scenario == "ycsb_e"]
    assert len(scan_heavy) == len(BACKENDS)
    for result in scan_heavy:
        assert result.load.counts["SCAN"] > 0
        assert result.scan_items > 0
