"""The A/A tool: does the benchmark agree with itself on unchanged code?

    python benchmarks/e2e/repeat.py --sets 2 --runs 10 --output REPEATABILITY.json

Runs every workload ``--runs`` times per set, a new seed each run and the
same seeds in every set, with the sets interleaved (A1 B1 A2 B2 ...) so slow
drift of the machine lands on both: the sets do identical work, and what
differs between them is the machine's noise alone.  Per workload and
printed metric it reports each set's median and quartiles, the quartile
spread as a share of the median (over the seeds of a set, as the benchmark
contract takes it), the relative difference of the medians (either sign: the
labels A and B are arbitrary), and for an end-to-end metric the bound from
``BENCHMARK.json``.  Exit code 1 when an end-to-end metric's spread
(``setup_s`` excepted) or median difference exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import estimators

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FIRST_SEED = 1


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One benchmark run exactly as the contract's driver invokes it; returns
    every metric the run printed (end-to-end and ``diag.*`` alike) by name."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: {completed.stderr[-400:]}"
        )
    *printed, last = completed.stdout.strip().splitlines()
    if not json.loads(last)["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its oracle")
    return {name: float(value) for name, value, *_ in map(str.split, printed[1:])}


def summarise(values: list[float]) -> dict:
    first, _, third = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": first,
        "q3": third,
        "spread": estimators.quartile_spread(values),
        "values": values,
    }


def write_report(path: Path, report: dict) -> None:
    """JSON with one line per workload x metric row, so the file diffs."""
    head = {key: value for key, value in report.items() if key != "workloads"}
    lines = [json.dumps(head)[:-1] + ', "workloads": {']
    for workload, rows in report["workloads"].items():
        lines.append(f" {json.dumps(workload)}: {{")
        lines += [f"  {json.dumps(name)}: {json.dumps(row)}," for name, row in rows.items()]
        lines[-1] = lines[-1][:-1]
        lines.append(" },")
    lines[-1] = " }"
    path.write_text("\n".join([*lines, "}}"]) + "\n")


def main(arguments: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--output", default=None, help="write the full report as JSON")
    options = parser.parse_args(arguments)
    if options.sets < 2 or options.runs < 4:
        parser.error("need at least 2 sets of at least 4 runs")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in declared["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}
    samples: dict = {workload: [{} for _ in range(options.sets)] for workload in workloads}
    for run in range(options.runs):
        for index in range(options.sets):
            seed = FIRST_SEED + run
            for workload in workloads:
                values = run_once(declared["command"], workload, seed, declared["run_seconds"])
                for name, value in values.items():
                    samples[workload][index].setdefault(name, []).append(value)
                print(f"run {run + 1}/{options.runs} set {index} {workload} seed {seed}",
                      file=sys.stderr, flush=True)

    report = {"runs_per_set": options.runs, "sets": options.sets,
              "seeds": list(range(FIRST_SEED, FIRST_SEED + options.runs)), "breaches": 0,
              "workloads": {}}
    print(f"{'workload':22s} {'metric':28s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'differ':>9s} {'bound':>6s}")
    for workload in workloads:
        rows = {}
        for name in samples[workload][0]:
            sets = [summarise(series[name]) for series in samples[workload]]
            first = sets[0]["median"]
            differ = max(abs(later["median"] - first) / (abs(first) or 1.0) for later in sets[1:])
            spread = max(summary["spread"] for summary in sets)
            # Only an end-to-end metric has a bound to breach; the rest are
            # recorded so that a demotion to diag.* shows its evidence.
            bound = bounds.get(name)
            breach = bound is not None and (
                differ > bound or (name != "setup_s" and spread > bound)
            )
            report["breaches"] += breach
            rows[name] = {"sets": sets, "differ_by": differ, "bound": bound, "breach": breach}
            print(f"{workload:22s} {name:28s} {sets[0]['median']:12.4f} "
                  f"{sets[0]['spread']:9.4f} {sets[1]['median']:12.4f} "
                  f"{sets[1]['spread']:9.4f} {differ:9.4f} "
                  f"{'-' if bound is None else format(bound, '.2f'):>6s}"
                  f"{'  BREACH' if breach else ''}")
        report["workloads"][workload] = rows
    if options.output:
        write_report(Path(options.output), report)
    print(f"{report['breaches']} breach(es)")
    return 1 if report["breaches"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
