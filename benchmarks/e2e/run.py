"""Orchestrates one workload run: workload children, cold starts, metrics.

The orchestrator never imports ``repro``.  Each workload child is a
fresh interpreter (see :mod:`benchmarks.e2e.child`), started one at a
time; every file any of them writes lands in a temp directory under
``.bench_build/`` in the repo root, removed when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import hostspeed
from .tracer import CLI_LAYER, FF_COUNTERS, LAYERS, PHASES, WRAP_TABLE
from .workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    Inputs,
    argv,
    check_report,
    grid_for_seed,
    pinned_digests,
)

SCHEMA = "repro-e2e-bench/1"
WORK_ROOT = ROOT / ".bench_build"
#: Every child and cold start of one workload run ends by then.
RUN_DEADLINE_S = 170.0

CHILDREN = 3
COLD_STARTS = 10
#: Share of a ``--seconds`` budget the trace child spends untraced
#: (for ``trace_overhead``); the rest goes to traced invocations.
TRACE_UNTRACED_SHARE = 0.3
TRACE_UNTRACED_ITERATIONS = 10
TRACE_ITERATIONS = 5


class BenchError(RuntimeError):
    """The benchmark itself could not run (no source, a child died)."""


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: Share of the parent's median by which it may worsen; 0 means any
    #: increase is a regression.
    bound: float


#: Definitions are in README.md.  The time bounds are set from the
#: run-to-run spread measured on a shared 2-vCPU host (README.md).
END_TO_END: Tuple[Metric, ...] = (
    Metric("command_s", "s", 0.15),
    Metric("command_s_p75", "s", 0.15),
    Metric("setup_s", "s", 0.25),
    Metric("cold_start_s", "s", 0.25),
    Metric("peak_rss_mb", "MiB", 0.10),
    Metric("error_rate", "ratio", 0.0),
)
#: The end-to-end metrics the one-line result carries (BENCHMARK.json).
#: error_rate is 0 on a healthy run, so it travels as ``attempted`` and
#: ``failed``.  command_s_p75 stays out: mega's invocation times are
#: bimodal with about a quarter in the slow mode, so its p75 flips
#: between the modes from run to run.
DRIVER_END_TO_END = ("command_s", "setup_s", "cold_start_s", "peak_rss_mb")

_CALL = {
    "schedule": "repro.netsim.events:EventQueue.schedule",
    "frames": "repro.netsim.link:Segment.transmit",
    "ip_send": "repro.netsim.node:Node.ip_send",
    "hop": "repro.netsim.router:Router.forward",
    "encap": "repro.netsim.encap:encapsulate",
    "select": "repro.core.decision:MobilityEngine.select_source",
    "out_mode": "repro.core.decision:MobilityEngine.out_mode_for",
    "udp": "repro.transport.sockets:TransportStack.udp_output",
    "tcp": "repro.transport.sockets:TransportStack.tcp_output",
    "note": "repro.netsim.trace:TraceLog.note",
}

#: Exact per-invocation work counters: compared for equality, never
#: within a bound.  Per-send ratios divide by ``Node.ip_send`` calls.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("netsim.events.dispatched", "count"),
    ("netsim.events.scheduled", "count"),
    ("netsim.link.frames", "count"),
    ("netsim.node.hops_per_send", "ratio"),
    ("netsim.encap.encaps_per_send", "ratio"),
    ("core.decisions", "count"),
    ("transport.sends", "count"),
    ("netsim.trace.notes", "count"),
    *((f"netsim.fastforward.{key}", "count") for key in FF_COUNTERS),
    ("experiment.cache.hits", "count"),
    ("experiment.cache.misses", "count"),
)

#: The per-layer metrics the one-line result carries with ``--trace 1``.
#: Shares (not self seconds) for layers that sit idle on some workload,
#: so that no reported time is a constant 0.
DRIVER_PER_LAYER: Tuple[str, ...] = (
    *(f"{layer}.share" for layer in LAYERS),
    *(f"{layer}.calls" for layer in LAYERS),
    "experiment.self_s",
    "cli.self_s",
    *(name for name, _ in COUNTERS),
    "traced_command_s",
    "trace_overhead",
)

_LAYER_OF = {target: layer for layer, target in WRAP_TABLE}


def _layer_of(key: str) -> str:
    return _LAYER_OF[key.partition("#")[0]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _entry(value: float, unit: str, spread: Optional[Sequence[float]] = None,
           n: Optional[int] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": value, "unit": unit}
    if spread is not None:
        q1, _, q3 = quartiles(spread)
        entry.update(q1=q1, q3=q3, n=n if n is not None else len(spread))
    return entry


def require_source() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program source: {SRC / 'repro' / 'cli.py'} "
                         "does not exist")


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _env(run_dir: Path, *paths: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(str(p) for p in paths),
        # Fixed str hashing: set iteration order is one less source of
        # run-to-run timing noise (digests do not depend on it).
        PYTHONHASHSEED="0",
        XDG_CACHE_HOME=str(run_dir / "xdg"),
    )
    return env


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("the workload run exceeded its deadline")
    return left


def _spawn_child(run_dir: Path, index: int, config: Dict[str, Any],
                 deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Run one workload child; returns (set-up seconds, its summary)."""
    workdir = run_dir / f"child-{index}"
    workdir.mkdir()
    command = [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(config)]
    timeout = _remaining(deadline)
    start = perf_counter()
    with subprocess.Popen(command, cwd=workdir, env=_env(run_dir, SRC, ROOT),
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter()
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"workload child {index} ({config['workload']}) "
                         f"exited with status {proc.returncode}")
    return ready - start, json.loads(rest.strip().splitlines()[-1])


def _cold_starts(workload, inputs: Inputs, cold: Path, indices: range,
                 expected: Optional[List[str]], deadline: float):
    """Fresh ``python -m repro.cli`` runs, one per index, each paired
    with a reference burst just before it; returns (nominal seconds per
    run, failed count, error messages)."""
    env = _env(cold.parent, SRC)
    host = hostspeed.Reference()
    times: List[float] = []
    failed = 0
    errors: List[str] = []
    for index in indices:
        out = cold / f"inv-{index}"
        out.mkdir()
        command = [sys.executable, "-m", "repro.cli", *argv(workload, inputs, out)]
        timeout = _remaining(deadline)
        reference = host.burst()
        start = perf_counter()
        try:
            proc = subprocess.run(command, cwd=cold, env=env, text=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a cold start exceeded the run's deadline") from None
        times.append(hostspeed.nominal(perf_counter() - start, reference))
        if proc.returncode != 0:
            problem = f"exit status {proc.returncode}: {proc.stderr[-400:]}"
        else:
            _, problem = check_report(workload, out, None, expected)
        if problem is not None:
            failed += 1
            errors.append(f"cold start {' '.join(command[3:])}: {problem}")
        shutil.rmtree(out, ignore_errors=True)
    return times, failed, errors


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def counters_of(record: Dict[str, Any]) -> Dict[str, float]:
    """The exact work counters of one traced invocation."""
    calls = record["calls"]

    def count(*keys: str) -> int:
        return sum(calls.get(_CALL[key], 0) for key in keys)

    sends = count("ip_send")
    values: Dict[str, float] = {
        "netsim.events.dispatched": record["dispatched"],
        "netsim.events.scheduled": count("schedule"),
        "netsim.link.frames": count("frames"),
        "netsim.node.hops_per_send": count("hop") / sends if sends else 0.0,
        "netsim.encap.encaps_per_send": count("encap") / sends if sends else 0.0,
        "core.decisions": count("select", "out_mode"),
        "transport.sends": count("udp", "tcp"),
        "netsim.trace.notes": count("note"),
        "experiment.cache.hits": record["hits"],
        "experiment.cache.misses": record["misses"],
    }
    for key in FF_COUNTERS:
        values[f"netsim.fastforward.{key}"] = record["fast_forward"][key]
    return values


def _layer_calls(record: Dict[str, Any]) -> Dict[str, int]:
    calls = dict.fromkeys(LAYERS, 0)
    calls[CLI_LAYER] = 1
    for key, value in record["calls"].items():
        calls[_layer_of(key)] += value
    return calls


def _exact(name: str, values: List[Any], errors: List[str]) -> Any:
    if any(value != values[0] for value in values):
        errors.append(f"{name} differs between invocations of the same "
                      f"code: {sorted(set(map(str, values)))[:4]}")
    return values[0]


def _nominal(record: Dict[str, Any], seconds: float) -> float:
    return hostspeed.nominal(seconds, record["reference"])


def per_layer_metrics(summary: Dict[str, Any]) -> Tuple[Dict[str, Any], List[str]]:
    """Per-layer metrics from a trace child's summary, plus any errors.
    Times are in nominal seconds (hostspeed.py)."""
    errors: List[str] = []
    traced = summary["traced"]
    untraced = summary["untraced"]
    times = [_nominal(r, r["seconds"]) for r in traced]
    traced_median = statistics.median(times)
    metrics: Dict[str, Any] = {}
    calls = [_layer_calls(record) for record in traced]
    for layer in LAYERS:
        if layer == CLI_LAYER:
            selfs = [_nominal(r, r["seconds"] - sum(r["self_s"].values()))
                     for r in traced]
        else:
            selfs = [_nominal(r, r["self_s"][layer]) for r in traced]
        self_s = statistics.median(selfs)
        metrics[f"{layer}.calls"] = _entry(
            _exact(f"{layer}.calls", [c[layer] for c in calls], errors), "count")
        metrics[f"{layer}.self_s"] = _entry(self_s, "s", selfs)
        metrics[f"{layer}.share"] = _entry(self_s / traced_median, "ratio")
    counters = [counters_of(record) for record in traced]
    for name, unit in COUNTERS:
        metrics[name] = _entry(
            _exact(name, [c[name] for c in counters], errors), unit)
    # The untraced loop must have done the same work as the traced one.
    for key in ("dispatched", "fast_forward", "runs"):
        _exact(f"untraced vs traced {key}",
               [r[key] for r in untraced + traced], errors)
    for phase in PHASES:
        metrics[f"experiment.{phase}_s"] = _entry(statistics.median(
            _nominal(r, r["phases"][phase]) for r in untraced), "s")
    untraced_median = statistics.median(_nominal(r, r["seconds"]) for r in untraced)
    metrics["traced_command_s"] = _entry(traced_median, "s", times)
    metrics["trace_overhead"] = _entry(traced_median / untraced_median, "ratio")
    return metrics, errors


def end_to_end_metrics(children: List[Tuple[float, Dict[str, Any]]],
                       cold: List[float], attempted: int,
                       failed: int) -> Dict[str, Any]:
    """End-to-end metrics of the untraced run, in nominal seconds.
    Quartiles are taken across processes (children, cold starts): the
    spread between runs."""
    per_child = [[_nominal(r, r["seconds"]) for r in summary["untraced"]]
                 for _, summary in children]
    pooled = [seconds for samples in per_child for seconds in samples]
    setups = [hostspeed.nominal(seconds, summary["setup_reference"])
              for seconds, summary in children]
    return {
        "command_s": _entry(statistics.median(pooled), "s",
                            [statistics.median(s) for s in per_child],
                            len(pooled)),
        "command_s_p75": _entry(quartiles(pooled)[2], "s",
                                [quartiles(s)[2] for s in per_child],
                                len(pooled)),
        "setup_s": _entry(statistics.median(setups), "s", setups),
        "cold_start_s": _entry(statistics.median(cold), "s", cold),
        "peak_rss_mb": _entry(
            statistics.median(summary["rss_mb"] for _, summary in children),
            "MiB", [summary["rss_mb"] for _, summary in children]),
        "error_rate": _entry(failed / attempted, "ratio"),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: Optional[float] = None,
                 trace: Optional[bool] = None, children: int = CHILDREN,
                 cold_starts: int = COLD_STARTS,
                 iterations: Optional[int] = None,
                 traced_iterations: int = TRACE_ITERATIONS) -> Dict[str, Any]:
    """Measure one workload.

    ``trace`` False runs only the untraced measurement (end-to-end
    metrics), True only the trace child (per-layer metrics), None both.
    ``seconds`` bounds each loop by time; without it the loops run the
    workload's fixed iteration count (``iterations`` overrides it).
    """
    require_source()
    workload = WORKLOADS[name]
    expected = pinned_digests(name, seed)
    deadline = perf_counter() + RUN_DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="e2e-", dir=WORK_ROOT))
    base = {"workload": name, "seed": seed, "expected": expected}
    timed: List[Tuple[float, Dict[str, Any]]] = []
    cold: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    result: Dict[str, Any] = {"workload": name, "seed": seed}
    try:
        if trace is not True:
            if seconds is not None:
                budget = {"seconds": seconds / children}
            else:
                total = iterations or workload.iterations
                budget = {"iterations": math.ceil(total / children)}
            cold_dir = run_dir / "cold"
            cold_dir.mkdir()
            inputs = Inputs(seed, grid_for_seed(seed, cold_dir),
                            run_dir / "child-0" / "warm-cache")
            for index in range(children):
                timed.append(_spawn_child(
                    run_dir, index, dict(base, untraced=budget), deadline))
                # Cold starts go between the children, so that a burst
                # of host load cannot land on all of them at once.
                share = range(len(cold), cold_starts * (index + 1) // children)
                times, cold_failed, cold_errors = _cold_starts(
                    workload, inputs, cold_dir, share,
                    expected or timed[0][1]["digests"], deadline)
                cold += times
                attempted += len(times)
                failed += cold_failed
                errors += cold_errors
        traced = None
        if trace is not False:
            if seconds is not None:
                untraced_budget = {"seconds": seconds * TRACE_UNTRACED_SHARE}
                traced_budget = {"seconds": seconds * (1 - TRACE_UNTRACED_SHARE)}
            else:
                untraced_budget = {"iterations": iterations or TRACE_UNTRACED_ITERATIONS}
                traced_budget = {"iterations": traced_iterations}
            traced = _spawn_child(run_dir, len(timed), dict(
                base, untraced=untraced_budget, traced=traced_budget), deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    summaries = [summary for _, summary in timed]
    if traced is not None:
        summaries.append(traced[1])
    for summary in summaries:
        attempted += summary["attempted"]
        failed += summary["failed"]
        errors += summary["errors"]
        if summary["digests"] != summaries[0]["digests"]:
            errors.append("workload children disagree on the trace digests")
        if summary["leftovers"]:
            errors.append(f"wrappers left installed: {summary['leftovers']}")
    result["reference_s"] = statistics.median(
        r["reference"] for summary in summaries
        for r in summary["untraced"] + summary["traced"])
    if timed:
        result["end_to_end"] = end_to_end_metrics(timed, cold, attempted, failed)
    if traced is not None:
        result["per_layer"], layer_errors = per_layer_metrics(traced[1])
        result["missing_targets"] = traced[1]["missing_targets"]
        errors += layer_errors
    result.update(attempted=attempted, failed=failed, errors=errors,
                  correct=failed == 0 and not errors)
    return result


def document(results: Dict[str, Dict[str, Any]], seed: int) -> Dict[str, Any]:
    """The ``-o`` file: every workload's full result plus the host."""
    return {
        "schema": SCHEMA,
        "seed": seed,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": results,
    }


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line result: end-to-end metrics, or per-layer with trace."""
    section = result["per_layer" if trace else "end_to_end"]
    names = DRIVER_PER_LAYER if trace else DRIVER_END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": section[name]["value"],
                           "unit": section[name]["unit"]} for name in names},
    }


def render(result: Dict[str, Any]) -> List[str]:
    """A workload's result as text."""
    lines = [f"== {result['workload']} (seed {result['seed']}): "
             f"{'correct' if result['correct'] else 'INCORRECT'}, "
             f"{result['failed']}/{result['attempted']} invocations failed"]
    lines += [f"   error: {error}" for error in result["errors"]]
    lines.append(f"   times in nominal seconds: reference loop "
                 f"{result['reference_s'] * 1e3:.3f} ms here, "
                 f"{hostspeed.NOMINAL_S * 1e3:.3f} ms nominal")
    for metric in END_TO_END:
        entry = result.get("end_to_end", {}).get(metric.name)
        if entry is None:
            continue
        spread = (f"  [q1 {entry['q1']:.5g}, q3 {entry['q3']:.5g}, n {entry['n']}]"
                  if "q1" in entry else "")
        lines.append(f"   {metric.name:<16} {entry['value']:>12.6g} "
                     f"{metric.unit:<6}{spread}")
    layers = result.get("per_layer")
    if layers:
        lines.append(f"   {'layer':<20} {'calls':>10} {'self_s':>10} {'share':>7}")
        for layer in LAYERS:
            lines.append(
                f"   {layer:<20} {layers[layer + '.calls']['value']:>10} "
                f"{layers[layer + '.self_s']['value']:>10.5f} "
                f"{layers[layer + '.share']['value']:>7.1%}")
        for name, _ in COUNTERS:
            lines.append(f"   {name:<34} {layers[name]['value']:.6g}")
        for phase in PHASES:
            name = f"experiment.{phase}_s"
            lines.append(f"   {name:<34} {layers[name]['value']:.6g} s")
        lines.append(f"   trace_overhead {layers['trace_overhead']['value']:.2f}x; "
                     f"missing_targets {result['missing_targets']}")
    return lines
