"""Run one end-to-end workload and print every metric by name, with its unit.

    python3 benchmarks/e2e/run.py --workload serve_tierbase_read --seed 1
    python3 benchmarks/e2e/run.py --workload codec_records --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload codec_records --seed 1 --seconds 2   # a tenth of the work

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` for an untraced run, its per-layer metrics for
a traced one.  The exit code is non-zero when the correctness oracle failed.
See ``README.md`` next to this file for the protocol and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import proc


def parse(arguments: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the measured phases on the sizing box; every op and record "
             "count is multiplied by the one factor SECONDS / 20 (default: 20)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also replay the op stream down the layer ladder and report per-layer metrics",
    )
    return parser.parse_args(arguments)


def main(arguments: list[str]) -> int:
    options = parse(arguments)
    if not (proc.SOURCE / "repro" / "__init__.py").is_file():
        print(f"no sources under {proc.SOURCE}: nothing to measure", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes decide dict layout: a per-process random seed is a
        # run-to-run noise source the measurement does not need.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *arguments])
    sys.path.insert(0, str(proc.SOURCE))

    import estimators
    import ladder
    import protocol
    import workloads

    if options.workload not in workloads.PLANS:
        print(f"unknown workload {options.workload!r}; choose from {list(workloads.PLANS)}",
              file=sys.stderr)
        return 2
    seconds = workloads.NOMINAL_SECONDS if options.seconds is None else options.seconds
    scale = seconds / workloads.NOMINAL_SECONDS
    plan = workloads.scaled(workloads.PLANS[options.workload], scale)
    declared = json.loads((proc.ROOT / "BENCHMARK.json").read_text())

    cpus = proc.cpu_plan()
    proc.pin_driver(cpus)
    inputs = workloads.generate(plan, options.seed)
    flushes = {
        name: workloads.slice_flushes(inputs, slices)
        for name, slices in (("depth1", inputs.depth1), ("depth16", inputs.depth16))
    }
    if plan.backend == "lsm" and scale >= 1 and flushes["depth16"] < workloads.MIN_SLICE_FLUSHES:
        print(f"a depth-16 slice of {plan.workload} spans {flushes['depth16']:.2f} memtable "
              f"flushes, fewer than {workloads.MIN_SLICE_FLUSHES:g}: the plan is too small",
              file=sys.stderr)
        return 2
    work = proc.make_work_dir(plan.workload)
    try:
        outcome = protocol.run(plan, inputs, work, cpus)
        if options.trace:
            ladder.run(plan, scale, work, cpus, outcome, options.seed)
    finally:
        proc.remove_tree(work)
    for name, value in flushes.items():
        outcome.put(f"diag.{name}_slice_flushes", value, "count", estimators.SLICES)

    print(f"workload {plan.workload}  seed {options.seed}  scale {scale:g}  "
          f"trace {options.trace}  affinity: {cpus.note}")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"{name:38s} {value:16.6f} {unit:8s} n={samples}")
    failed_share = outcome.failed / outcome.attempted
    print(f"{'failed_share':38s} {failed_share:16.6f} {'share':8s} n={outcome.attempted}")

    group = "per_layer" if options.trace else "end_to_end"
    missing = [entry["name"] for entry in declared[group] if entry["name"] not in outcome.metrics]
    if missing:
        print(f"no sample for {missing} at --seconds {seconds:g}: no result", file=sys.stderr)
        return 2
    metrics = {}
    for entry in declared[group]:
        value, unit, _ = outcome.metrics[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
