"""Micro-benchmark harness for the simulation substrate.

Every paper figure and ablation in this repository executes as a
discrete-event scenario, so the throughput of the :mod:`repro.netsim`
substrate bounds the wall time of the entire reproduction.  This
package isolates the hot layers — event engine, addressing, packet
sizing, tracing — into repeatable workloads and reports a machine
readable perf trajectory (``BENCH_*.json``) that future changes can be
regressed against.

Run it as::

    PYTHONPATH=src python -m repro.bench                # full suite
    PYTHONPATH=src python -m repro.bench --quick        # CI smoke run
    PYTHONPATH=src python -m repro.bench --baseline old.json -o new.json

Workloads are deterministic (fixed seeds, no wall-clock dependence in
the measured code) so run-to-run variance comes only from the host.
Each workload is timed ``repeat`` times and the best run is reported,
which is the standard way to suppress scheduler noise in
micro-benchmarks.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "WORKLOADS",
    "run_event_churn",
    "run_event_cancel_churn",
    "run_scenario_build",
    "run_scenario_traffic",
    "run_obs_overhead",
    "run_chaos_recovery",
    "run_congestion",
    "run_sweep_throughput",
    "run_sweep_throughput_parallel",
    "run_packet_sizing",
    "run_address_churn",
    "run_mega_world",
    "run_suite",
    "compare",
    "write_report",
    "render_report",
]


# ----------------------------------------------------------------------
# Workloads.  Each returns (units_of_work, unit_name); the runner times
# the call and derives ops/sec + ns/op from the unit count.
# ----------------------------------------------------------------------

def run_event_churn(n: int = 50_000, fanout: int = 10) -> Tuple[int, str]:
    """A tight self-rescheduling event loop — pure engine throughput.

    Mirrors ``benchmarks/test_perf_simulator.py::run_event_churn`` so
    the pytest-benchmark numbers and this harness measure the same
    workload shape.
    """
    from repro.netsim import EventQueue

    queue = EventQueue()
    remaining = {"n": n}

    def tick() -> None:
        if remaining["n"] > 0:
            remaining["n"] -= 1
            queue.schedule(0.001, tick)

    for _ in range(fanout):
        queue.schedule(0.0, tick)
    queue.run(max_events=4 * n)
    return queue.processed, "events"


def run_event_cancel_churn(n: int = 20_000) -> Tuple[int, str]:
    """Timer-heavy workload: schedule, cancel half, poll ``pending``.

    This is the shape of transport retransmission timers (armed per
    segment, cancelled by the ACK) and registration lifetimes — and the
    workload that exposes an O(n) ``pending`` scan or a heap full of
    cancelled corpses.
    """
    from repro.netsim import EventQueue

    queue = EventQueue()
    live = 0
    for index in range(n):
        event = queue.schedule(1.0 + index * 1e-6, lambda: None)
        if index % 2 == 0:
            event.cancel()
        else:
            live += 1
        if index % 64 == 0:
            # Poll, like a soak test or an adaptive transport would.
            assert queue.pending <= index + 1
    assert queue.pending == live
    queue.run(max_events=2 * n)
    return n, "timers"


def run_scenario_build(seed: int = 1401) -> Tuple[int, str]:
    """Construct the canonical figure stage once (topology + actors)."""
    from repro.analysis import build_scenario
    from repro.mobileip import Awareness

    build_scenario(seed=seed, ch_awareness=Awareness.CONVENTIONAL)
    return 1, "scenarios"


def run_scenario_traffic(datagrams: int = 200, seed: int = 1401) -> Tuple[int, str]:
    """Push UDP datagrams through the standard triangle-routing stage.

    The workload shape most figure benchmarks use: correspondent sends
    to the mobile host's home address, the home agent tunnels to the
    care-of address, packets traverse backbone routers and links.
    Executed through the experiment runner, so its numbers also price
    the canonical lifecycle every sweep cell pays.
    """
    from repro.experiment import Runner, canonical_traffic_spec

    runner = Runner()
    runner.run(canonical_traffic_spec(seed=seed, datagrams=datagrams))
    assert runner.scenario is not None
    assert runner.scenario.ha.packets_tunneled == datagrams
    return datagrams, "packets"


def run_obs_overhead(datagrams: int = 200, seed: int = 1401) -> Tuple[int, str]:
    """The scenario-traffic workload with full observability enabled.

    Same traffic shape as ``scenario_traffic``, plus span recording, the
    engine sampler, and a full report build at the end.  Compare the two
    workloads' numbers to read off the cost of observability when *on*;
    the acceptance bar for the layer is that ``scenario_traffic`` itself
    (observability off) stays flat, which the baseline diff shows.
    """
    from repro.experiment import Runner, canonical_traffic_spec

    result = Runner().run(canonical_traffic_spec(
        seed=seed, datagrams=datagrams, observe=True, obs_cadence=0.1))
    assert result.obs is not None
    assert result.obs["spans"]["count"] >= datagrams
    return datagrams, "packets"


def run_ledger_overhead(datagrams: int = 200, seed: int = 1401) -> Tuple[int, str]:
    """The canonical workload with full telemetry armed.

    Same traffic shape as ``scenario_traffic``, plus a run-ledger append
    and the flight recorder on the trace stream; the delta against
    ``scenario_traffic`` is the price of the ledger append plus the
    ring.
    """
    import os
    import tempfile

    from repro.experiment import Runner, canonical_traffic_spec
    from repro.obs.ledger import RunLedger

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        ledger = RunLedger(os.path.join(root, "ledger.jsonl"))
        with ledger:
            runner = Runner(
                ledger=ledger,
                flightrec_path=os.path.join(root, "flightrec.json"),
            )
            result = runner.run(canonical_traffic_spec(
                seed=seed, datagrams=datagrams))
        assert ledger.appended == 1
        info = result.extras["flightrec"]
        assert info["armed"] and not info["dumped"]
    return datagrams, "packets"


def run_chaos_recovery(duration: float = 260.0, seed: int = 4242) -> Tuple[int, str]:
    """The default chaos scenario: faults injected, recovery measured.

    Exercises the fault-injection subsystem plus every recovery path it
    pokes (registration backoff, failed-mode aging, binding flush) in
    one deterministic run.  The unit is processed engine events, since
    a chaos run's cost is dominated by the event machinery under churn.
    """
    from repro.analysis.chaos import run_chaos

    report = run_chaos(seed=seed, duration=duration)
    assert report.faults, "fault plan applied no events"
    assert report.registered, "mobile host failed to recover registration"
    return report.trace_entries, "trace entries"


def run_congestion(datagrams: int = 400, seed: int = 1402) -> Tuple[int, str]:
    """The In-* modes contending for a throttled, bounded home uplink.

    Three cells (In-IE, In-DE, In-DH) push the same paced CH→MH train
    through the busy-line link model with the home uplink throttled to
    T1 speed and an 8-frame transmit queue, invariants armed.  The
    asserts pin the physics this workload exists to measure: the
    bottleneck actually overflows, every overflow loss is a classified
    terminal fate (no invariant violations), and the triangle route
    (In-IE) pays more latency than the LAN-direct route (In-DH).  The
    unit is datagrams offered across all cells.
    """
    from repro.analysis.congestion import run_congestion as run_cells

    report = run_cells(seed=seed, datagrams=datagrams)
    assert report.total_queue_dropped > 0, "bottleneck never overflowed"
    assert report.violation_count == 0, (
        "queue-overflow losses escaped invariant classification")
    in_ie = report.cell("In-IE")
    in_dh = report.cell("In-DH")
    assert in_ie.latency_mean is not None and in_dh.latency_mean is not None
    assert in_ie.latency_mean > in_dh.latency_mean, (
        "triangle route did not pay more latency than the direct route")
    assert in_ie.goodput < in_dh.goodput, (
        "triangle route did not lose more goodput than the direct route")
    return datagrams * len(report.cells), "datagrams"


def run_sweep_throughput(
    jobs: int = 1, specs: int = 8, datagrams: int = 40
) -> Tuple[int, str]:
    """Execute a fixed slice of the demo grid through the sweep executor.

    The unit is completed runs, so ``ops/sec`` is sweep throughput in
    runs per second.  Compare ``sweep_throughput`` (``jobs=1``, inline)
    against ``sweep_throughput_j4`` (``jobs=4``, spawn pool) to read
    off parallel scaling on the host; the report's ``meta.cpu_count``
    says how many cores the ratio could possibly reach.
    """
    from repro.experiment import SweepExecutor, demo_grid

    grid = demo_grid(seeds=[1996], datagrams=datagrams)
    expanded = grid.expand()[:specs]
    result = SweepExecutor(jobs=jobs).run(expanded)
    assert result.ok, "demo-grid sweep hit invariant violations"
    return result.runs, "runs"


def run_sweep_throughput_parallel(
    specs: int = 8, datagrams: int = 40
) -> Tuple[int, str]:
    """``sweep_throughput`` across a 4-worker spawn pool (same specs)."""
    return run_sweep_throughput(jobs=4, specs=specs, datagrams=datagrams)


def run_packet_sizing(n: int = 30_000) -> Tuple[int, str]:
    """Repeated ``wire_size`` over a 2-deep encapsulation stack.

    The §3.3 size benchmarks, link serialization, fragmentation checks
    and the trace layer all ask for the wire size of the same packet
    many times between mutations.
    """
    from repro.netsim.addressing import IPAddress
    from repro.netsim.encap import EncapScheme, encapsulate
    from repro.netsim.packet import IPProto, Packet

    inner = Packet(
        src=IPAddress("10.3.0.10"),
        dst=IPAddress("10.1.0.10"),
        proto=IPProto.UDP,
        payload_size=512,
    )
    mid = encapsulate(inner, IPAddress("10.1.0.1"), IPAddress("10.2.0.9"),
                      EncapScheme.IPIP)
    outer = encapsulate(mid, IPAddress("10.2.0.9"), IPAddress("10.2.0.1"),
                        EncapScheme.GRE)
    total = 0
    for _ in range(n):
        total += outer.wire_size
    assert total == n * outer.wire_size
    return n, "sizings"


def run_address_churn(n: int = 20_000) -> Tuple[int, str]:
    """Construct addresses from strings/ints the way routing code does.

    Routing tables, binding caches and header rewrites re-build
    ``IPAddress`` values from a small working set of dotted quads; the
    parse cost of that working set is what this measures.
    """
    from repro.netsim.addressing import IPAddress

    quads = [f"10.{i % 4}.{i % 8}.{i % 16}" for i in range(32)]
    total = 0
    for index in range(n):
        address = IPAddress(quads[index % 32])
        total += int(IPAddress(address.value))
    assert total > 0
    return n, "addresses"


def run_mega_world(hosts: int = 1_000_000, domains: Optional[int] = None):
    """Build a flyweight million-host world and spin its timer wheel.

    The population layer's acceptance workload (see
    :mod:`repro.netsim.population`): construct ``hosts`` registered
    mobile hosts as struct-of-arrays pool state, then run one full
    wheel rotation so every live slot gets its registration re-stamped.
    The asserts pin the layer's contract — flyweight state stays under
    200 bytes/host (tracemalloc-measured, so hidden per-host objects
    would fail the bar, not just inflate a number) and the wheel
    actually refreshes every host.  Extras carry the headline numbers
    (build seconds, bytes/host, refresh throughput) into the report.
    """
    import tracemalloc

    from repro.analysis import build_scenario

    population: Dict[str, Any] = {"hosts": hosts}
    if domains is not None:
        population["domains"] = domains
    tracemalloc.start()
    base_current, _ = tracemalloc.get_traced_memory()
    t0 = time.perf_counter()
    scenario = build_scenario(population=population)
    build_seconds = time.perf_counter() - t0
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Whole-world allocation per host: pool arrays plus every object the
    # build allocated (topology, HA, wheel) amortized over the hosts.
    bytes_per_host = (current - base_current) / hosts
    pop = scenario.population
    assert pop is not None
    pool_bytes_per_host = pop.state_bytes() / hosts
    assert pool_bytes_per_host < 200, (
        f"pool state is {pool_bytes_per_host:.0f} bytes/host (>= 200)")
    before = pop.pool.refreshes
    t1 = time.perf_counter()
    scenario.sim.run(until=scenario.sim.now + pop.wheel.period + 1.0)
    wheel_seconds = time.perf_counter() - t1
    refreshed = pop.pool.refreshes - before
    assert refreshed >= hosts, (
        f"wheel refreshed {refreshed} of {hosts} hosts in one rotation")
    return hosts, "hosts", {
        "build_seconds": build_seconds,
        "bytes_per_host": bytes_per_host,
        "pool_bytes_per_host": pool_bytes_per_host,
        "refreshes": refreshed,
        "refreshes_per_sec": refreshed / wheel_seconds
        if wheel_seconds > 0 else float("inf"),
    }


WORKLOADS: Dict[str, Callable[..., Tuple[int, str]]] = {
    "event_churn": run_event_churn,
    "event_cancel_churn": run_event_cancel_churn,
    "scenario_build": run_scenario_build,
    "scenario_traffic": run_scenario_traffic,
    "obs_overhead": run_obs_overhead,
    "ledger_overhead": run_ledger_overhead,
    "chaos_recovery": run_chaos_recovery,
    "congestion": run_congestion,
    "sweep_throughput": run_sweep_throughput,
    "sweep_throughput_j4": run_sweep_throughput_parallel,
    "packet_sizing": run_packet_sizing,
    "address_churn": run_address_churn,
    "mega_world": run_mega_world,
}

# Reduced iteration counts for CI smoke runs (--quick).
_QUICK_ARGS: Dict[str, Dict[str, int]] = {
    "event_churn": {"n": 5_000},
    "event_cancel_churn": {"n": 4_000},
    "scenario_traffic": {"datagrams": 50},
    "obs_overhead": {"datagrams": 50},
    "ledger_overhead": {"datagrams": 50},
    "chaos_recovery": {"duration": 130.0},
    "congestion": {"datagrams": 200},
    "sweep_throughput": {"specs": 4, "datagrams": 20},
    "sweep_throughput_j4": {"specs": 4, "datagrams": 20},
    "packet_sizing": {"n": 4_000},
    "address_churn": {"n": 4_000},
    "mega_world": {"hosts": 20_000},
}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def _time_workload(
    func: Callable[..., Tuple[int, str]],
    kwargs: Dict[str, int],
    repeat: int,
) -> Dict[str, Any]:
    best = float("inf")
    units, unit_name = 0, "ops"
    extras: Dict[str, Any] = {}
    for _ in range(repeat):
        start = time.perf_counter()
        outcome = func(**kwargs)
        elapsed = time.perf_counter() - start
        # Workloads return (units, unit) or (units, unit, extras) — the
        # extras dict carries workload-specific headline numbers (e.g.
        # mega_world's bytes/host) into the report alongside the timing.
        if len(outcome) == 3:
            units, unit_name, run_extras = outcome
        else:
            units, unit_name = outcome
            run_extras = {}
        if elapsed < best:
            best = elapsed
            extras = dict(run_extras)
    result = {
        "units": units,
        "unit": unit_name,
        "seconds": best,
        "ops_per_sec": units / best if best > 0 else float("inf"),
        "ns_per_op": best / units * 1e9 if units else 0.0,
    }
    if extras:
        result["extras"] = extras
    return result


def run_suite(quick: bool = False, repeat: int = 3) -> Dict[str, Any]:
    """Run every workload and return the structured results."""
    results: Dict[str, Any] = {}
    for name, func in WORKLOADS.items():
        kwargs = _QUICK_ARGS.get(name, {}) if quick else {}
        results[name] = _time_workload(func, kwargs, repeat=repeat)
    return {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "quick": quick,
            "repeat": repeat,
        },
        "results": results,
    }


def compare(baseline: Dict[str, Any], current: Dict[str, Any]) -> Dict[str, float]:
    """Per-workload speedup factors (current ops/sec over baseline's)."""
    speedups: Dict[str, float] = {}
    base_results = baseline.get("results", {})
    for name, result in current.get("results", {}).items():
        base = base_results.get(name)
        if base and base.get("ops_per_sec"):
            speedups[name] = result["ops_per_sec"] / base["ops_per_sec"]
    return speedups


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of one suite run (plus speedups if merged)."""
    lines = ["workload                 units        sec       ops/sec     ns/op"]
    results = report.get("results") or report.get("optimized", {}).get("results", {})
    speedups = report.get("speedup", {})
    for name, result in results.items():
        line = (
            f"{name:<22} {result['units']:>8} {result['seconds']:>10.4f} "
            f"{result['ops_per_sec']:>13,.0f} {result['ns_per_op']:>9,.0f}"
        )
        if name in speedups:
            line += f"   x{speedups[name]:.2f}"
        lines.append(line)
    return "\n".join(lines)
