"""Compare two result files (``-o`` output) of the same benchmark: parent vs change.

For each (workload, end-to-end metric) the verdict is one of:

* ``worse``        -- the change's median exceeds the parent's by more
  than the metric's bound (any increase, for ``error_rate``);
* ``better``       -- lower by more than the spread between runs;
* ``within bound`` -- neither;
* ``unresolved``   -- the spread between runs (interquartile range
  across processes, as a share of the median) exceeds the bound, unless
  the change's upper quartile is below the parent's lower quartile.

Exact counters are diffed by name (a difference is a behaviour
change), and a per-layer ``self_s`` table names the layer a slowdown
came from.  The exit status is 1 when any metric is worse.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .run import COUNTERS, END_TO_END, Metric
from .tracer import LAYERS

#: A layer is named as a slowdown's source when its median self time
#: grew by more than this share, its quartiles no longer overlap the
#: parent's, and the growth is at least LAYER_FLAG_FLOOR of the
#: parent's traced invocation time.
LAYER_FLAG_GROWTH = 0.25
LAYER_FLAG_FLOOR = 0.02


def _spread(entry: Dict[str, Any]) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["value"]


def verdict(metric: Metric, parent: Dict[str, Any], change: Dict[str, Any]) -> str:
    before, after = parent["value"], change["value"]
    if metric.bound == 0:
        if after > before:
            return "worse"
        return "better" if after < before else "within bound"
    if "q1" in parent and "q1" in change and change["q3"] < parent["q1"]:
        return "better"
    spread = max(_spread(parent), _spread(change))
    if spread > metric.bound:
        return "unresolved"
    if before:
        growth = (after - before) / before
    else:
        growth = float("inf") if after > 0 else 0.0
    if growth > metric.bound:
        return "worse"
    if growth < 0 and -growth > spread:
        return "better"
    return "within bound"


def flagged_layers(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """Layers whose self time grew enough to name them as the cause."""
    base = parent["traced_command_s"]["value"]
    flagged = []
    for layer in LAYERS:
        before = parent[f"{layer}.self_s"]
        after = change[f"{layer}.self_s"]
        growth = after["value"] - before["value"]
        if (after["value"] > before["value"] * (1 + LAYER_FLAG_GROWTH)
                and after["q1"] > before["q3"]
                and growth > LAYER_FLAG_FLOOR * base):
            flagged.append(layer)
    return flagged


def _cell(entry: Dict[str, Any]) -> str:
    if "q1" in entry:
        return f"{entry['value']:.5g} [{entry['q1']:.4g}-{entry['q3']:.4g}]"
    return f"{entry['value']:.5g}"


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Render the comparison; returns (lines, whether any metric is worse)."""
    lines: List[str] = []
    worse = False
    workloads = parent["workloads"]
    for name in sorted(workloads.keys() | change["workloads"].keys()):
        if name not in workloads or name not in change["workloads"]:
            lines.append(f"== {name}: only in {'parent' if name in workloads else 'change'}")
            continue
        before, after = workloads[name], change["workloads"][name]
        lines.append(f"== {name}")
        lines.append(f"   {'metric':<16} {'unit':<6} {'parent':>30} {'change':>30}  verdict")
        for metric in END_TO_END:
            p = before.get("end_to_end", {}).get(metric.name)
            c = after.get("end_to_end", {}).get(metric.name)
            if p is None or c is None:
                continue
            outcome = verdict(metric, p, c)
            worse |= outcome == "worse"
            lines.append(f"   {metric.name:<16} {metric.unit:<6} {_cell(p):>30} "
                         f"{_cell(c):>30}  {outcome}")
        p_layers, c_layers = before.get("per_layer"), after.get("per_layer")
        if not (p_layers and c_layers):
            continue
        for counter, _ in COUNTERS:
            if p_layers[counter]["value"] != c_layers[counter]["value"]:
                lines.append(f"   behaviour change: {counter} "
                             f"{p_layers[counter]['value']} -> {c_layers[counter]['value']}")
        flagged = flagged_layers(p_layers, c_layers)
        lines.append(f"   {'layer':<20} {'parent self_s':>28} {'change self_s':>28}")
        for layer in LAYERS:
            key = f"{layer}.self_s"
            mark = "  <- slower" if layer in flagged else ""
            lines.append(f"   {layer:<20} {_cell(p_layers[key]):>28} "
                         f"{_cell(c_layers[key]):>28}{mark}")
    return lines, worse


def compare_files(parent_path: str, change_path: str) -> int:
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    lines, worse = compare(parent, change)
    print("\n".join(lines))
    return 1 if worse else 0
