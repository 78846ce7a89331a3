"""Measurement, canonical scenarios, and reporting.

* :mod:`repro.analysis.metrics`   — path stretch.
* :mod:`repro.analysis.scenarios` — the standard stage every figure
  plays out on.
* :mod:`repro.analysis.reporting` — plain-text tables for benchmarks.
"""

from .chaos import CHAOS_PORT, ChaosReport, demo_plan, run_chaos
from .collector import ScenarioSnapshot, snapshot
from .metrics import path_stretch
from .reporting import TextTable, ascii_series
from .scenarios import MH_HOME_ADDRESS, Scenario, build_scenario

__all__ = [
    "CHAOS_PORT",
    "ChaosReport",
    "demo_plan",
    "run_chaos",
    "ScenarioSnapshot",
    "snapshot",
    "path_stretch",
    "TextTable",
    "ascii_series",
    "MH_HOME_ADDRESS",
    "Scenario",
    "build_scenario",
]
