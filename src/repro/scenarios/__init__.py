"""``repro.scenarios`` — YCSB-style workload mixes with a built-in oracle.

Proves the scan path (and everything under it) under realistic traffic
shapes, modelled on the YCSB core workloads the paper's production store
was evaluated against:

* :mod:`repro.scenarios.keydist` — key-distribution choosers: uniform,
  scrambled zipfian (Gray et al., theta=0.99, incrementally extended zeta
  cache), and "latest" (newest records hot — YCSB workload D);
* :mod:`repro.scenarios.mixes` — the :class:`ScenarioSpec` registry:
  ``ycsb_a`` … ``ycsb_f`` plus three paper-native mixes (``paper_logs``
  HDFS ingest, ``paper_json`` GitHub documents, ``paper_trades``
  financial ticks) that drive the same machinery with the paper's own
  record families;
* :mod:`repro.scenarios.runner` — :func:`run_scenario` plugs a mix into
  the one load driver (:func:`repro.loadgen.run_load`, open loop) as an
  operation callback whose reads and scans go through the driver's oracle
  (value-universe checks, scan ordering/completeness against an
  acknowledged record counter);
  :func:`run_suite` runs the mix matrix against in-process servers on
  both backends and returns machine-readable per-mix rows.

Quick start::

    from repro.scenarios import run_suite

    rows = [result.row() for result in run_suite(["ycsb_a", "ycsb_e"],
                                                 backends=("tierbase",),
                                                 operations=256, rate=2000)]
    assert all(row["lost"] == 0 and row["corrupt"] == 0 for row in rows)

Or from the command line: ``repro scenarios --ops 512 --rate 2000``.
"""

from repro.scenarios.keydist import (
    DISTRIBUTIONS,
    KeyChooser,
    LatestKeyChooser,
    UniformKeyChooser,
    ZipfianKeyChooser,
    make_chooser,
)
from repro.scenarios.mixes import SCENARIOS, ScenarioSpec, get_scenario, scenario_names
from repro.scenarios.runner import ScenarioResult, key_for, run_scenario, run_suite

__all__ = [
    "DISTRIBUTIONS",
    "KeyChooser",
    "LatestKeyChooser",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "UniformKeyChooser",
    "ZipfianKeyChooser",
    "get_scenario",
    "key_for",
    "make_chooser",
    "run_scenario",
    "run_suite",
    "scenario_names",
]
