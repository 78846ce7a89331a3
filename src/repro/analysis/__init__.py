"""Measurement, canonical scenarios, and reporting.

* :mod:`repro.analysis.metrics`   — path stretch.
* :mod:`repro.analysis.scenarios` — the standard stage every figure
  plays out on.
* :mod:`repro.analysis.reporting` — plain-text tables for benchmarks.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "chaos": ("CHAOS_PORT", "ChaosReport", "demo_plan", "run_chaos"),
    "collector": ("ScenarioSnapshot", "snapshot"),
    "metrics": ("path_stretch",),
    "reporting": ("TextTable", "ascii_series"),
    "scenarios": ("MH_HOME_ADDRESS", "Scenario", "build_scenario"),
})
