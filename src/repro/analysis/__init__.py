"""Measurement, canonical scenarios, and reporting.

* :mod:`repro.analysis.metrics`   — path stretch, overhead, delivery
  ratio, distribution summaries.
* :mod:`repro.analysis.scenarios` — the standard stage every figure
  plays out on.
* :mod:`repro.analysis.reporting` — plain-text tables for benchmarks.
"""

from .chaos import CHAOS_PORT, ChaosReport, demo_plan, run_chaos
from .collector import ScenarioSnapshot, diff, snapshot
from .movement import RandomWaypoint, Tour
from .metrics import Summary, delivery_ratio, overhead_fraction, path_stretch, summarize
from .reporting import TextTable, ascii_series, render_kv
from .scenarios import MH_HOME_ADDRESS, Scenario, build_scenario

__all__ = [
    "CHAOS_PORT",
    "ChaosReport",
    "demo_plan",
    "run_chaos",
    "ScenarioSnapshot",
    "diff",
    "snapshot",
    "RandomWaypoint",
    "Tour",
    "Summary",
    "delivery_ratio",
    "overhead_fraction",
    "path_stretch",
    "summarize",
    "TextTable",
    "ascii_series",
    "render_kv",
    "MH_HOME_ADDRESS",
    "Scenario",
    "build_scenario",
]
