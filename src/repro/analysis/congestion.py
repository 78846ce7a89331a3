"""Congestion cells: the In-* delivery modes under real link contention.

The 4x4 grid's incoming modes differ in *where* a correspondent's
datagram travels: In-IE bends every packet through the home domain and
back out (crossing the home uplink twice per datagram), In-DE tunnels
straight to the care-of address once the correspondent learns the
binding, and In-DH short-circuits to a link-layer send on the shared
LAN.  With bounded-queue transmission lines those paths *cost*
differently: throttle ``uplink-home`` and the triangle route queues,
overflows, and pays serialization delay that the direct routes avoid.

:func:`run_congestion` runs one cell per incoming mode over the same
seeded contention stage.  Each cell is a plain :class:`ExperimentSpec`
(:func:`congestion_spec`): the home uplink throttled via
``link_bandwidths`` and bounded via ``queue_capacities``, a CH→MH
datagram train as its ``TrafficProgram``, and invariants armed (every
queue-overflow loss must be a classified terminal fate).  Per-datagram
latency is read from the trace, from the datagram's first ``send`` at
the correspondent to its ``deliver`` at the mobile host, and the
bottleneck's exact queue high-water mark from the segment, so the
report ranks the modes by goodput and delay the way Figure 10 ranks
them by reachability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..experiment.runner import Runner, gc_paused
from ..experiment.spec import ExperimentSpec, TrafficProgram
from ..mobileip.correspondent import Awareness
from .scenarios import Scenario

__all__ = [
    "CONGESTION_PORT",
    "BOTTLENECK_SEGMENT",
    "CongestionCell",
    "CongestionReport",
    "congestion_spec",
    "run_congestion",
]

CONGESTION_PORT = 6200

# The contention point: every In-IE datagram crosses the home domain's
# uplink twice (inbound to the home agent, outbound inside the tunnel),
# while the direct modes stop using it as soon as the binding is known.
BOTTLENECK_SEGMENT = "uplink-home"
DEFAULT_BANDWIDTH = 1.5e6   # bits/s: a T1-class home uplink
DEFAULT_QUEUE = 8           # frames of buffer before tail drop

# (mode label, spec-field overrides).  All three cells share the same
# stage and traffic; only the correspondent's smarts differ.  The
# mobile-aware cells learn the binding from the home agent's care-of
# advisory raised while the first datagrams are still being tunneled.
_CELLS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("In-IE", {"awareness": Awareness.CONVENTIONAL.value}),
    ("In-DE", {"awareness": Awareness.MOBILE_AWARE.value,
               "notify_correspondents": True}),
    ("In-DH", {"awareness": Awareness.MOBILE_AWARE.value,
               "notify_correspondents": True,
               "ch_in_visited_lan": True}),
)


def congestion_spec(
    mode: str = "In-IE",
    seed: int = 1402,
    datagrams: int = 400,
    spacing: float = 0.002,
    size: int = 1000,
    bandwidth: float = DEFAULT_BANDWIDTH,
    queue: int = DEFAULT_QUEUE,
    duration: float = 20.0,
    observe: bool = False,
) -> ExperimentSpec:
    """One congestion cell as an :class:`ExperimentSpec`.

    The world is the throttled, bounded home uplink and the
    correspondent posture for ``mode``; the traffic is a paced CH→MH
    train of ``datagrams`` sends of ``size`` bytes every ``spacing``
    seconds, deliberately more than the throttled uplink can carry.
    """
    overrides = dict(_CELLS)[mode]  # KeyError on an unknown mode
    return ExperimentSpec(
        seed=seed,
        duration=duration,
        label=f"congestion-{mode}",
        link_bandwidths={BOTTLENECK_SEGMENT: bandwidth},
        queue_capacities={BOTTLENECK_SEGMENT: queue},
        traffic=TrafficProgram(port=CONGESTION_PORT, uniform={
            "datagrams": datagrams,
            "spacing": spacing,
            "size": size,
            "direction": "ch->mh",
        }),
        arm_invariants=True,
        observe=observe,
        **overrides,
    )


@dataclass
class CongestionCell:
    """One In-* mode's fate under the shared contention stage."""

    mode: str
    sent: int
    received: int
    latency_mean: Optional[float]
    latency_p50: Optional[float]
    latency_p99: Optional[float]
    queue_dropped: int
    peak_queue_depth: int
    bottleneck_busy: float       # busy-line seconds at the bottleneck
    losses_by_reason: Dict[str, int]
    invariant_violations: int
    digest: str

    @property
    def goodput(self) -> float:
        return self.received / self.sent if self.sent else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "goodput": self.goodput}


@dataclass
class CongestionReport:
    """All cells, ranked: highest goodput first, then lowest latency."""

    seed: int
    bandwidth: float
    queue: int
    datagrams: int
    cells: List[CongestionCell] = field(default_factory=list)
    # One observability report per observed cell; not in to_dict().
    obs: List[Dict[str, Any]] = field(default_factory=list)

    def ranked(self) -> List[CongestionCell]:
        return sorted(
            self.cells,
            key=lambda c: (-c.goodput, c.latency_mean
                           if c.latency_mean is not None else float("inf")),
        )

    def cell(self, mode: str) -> CongestionCell:
        for cell in self.cells:
            if cell.mode == mode:
                return cell
        raise KeyError(mode)

    @property
    def violation_count(self) -> int:
        return sum(cell.invariant_violations for cell in self.cells)

    @property
    def total_queue_dropped(self) -> int:
        return sum(cell.queue_dropped for cell in self.cells)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "bandwidth": self.bandwidth,
            "queue": self.queue,
            "datagrams": self.datagrams,
            "cells": [cell.to_dict() for cell in self.cells],
            "ranking": [cell.mode for cell in self.ranked()],
        }

    def render(self) -> str:
        lines = [
            f"congestion stage: seed={self.seed} "
            f"bottleneck={BOTTLENECK_SEGMENT} "
            f"@ {self.bandwidth / 1e6:g} Mbit/s, queue={self.queue} frames, "
            f"{self.datagrams} datagrams per cell",
            f"{'mode':<7} {'goodput':>8} {'recv/sent':>11} "
            f"{'mean':>9} {'p50':>9} {'p99':>9} "
            f"{'qdrop':>6} {'qpeak':>6}",
        ]
        for cell in self.ranked():
            def ms(value: Optional[float]) -> str:
                return f"{value * 1e3:.2f}ms" if value is not None else "-"
            lines.append(
                f"{cell.mode:<7} {cell.goodput:>7.1%} "
                f"{cell.received:>5}/{cell.sent:<5} "
                f"{ms(cell.latency_mean):>9} {ms(cell.latency_p50):>9} "
                f"{ms(cell.latency_p99):>9} "
                f"{cell.queue_dropped:>6} {cell.peak_queue_depth:>6}")
        ranked = self.ranked()
        lines.append(
            "ranking: " + " > ".join(cell.mode for cell in ranked))
        if self.violation_count:
            lines.append(
                f"INVARIANT VIOLATIONS: {self.violation_count}")
        return "\n".join(lines)


def _percentile(ordered: List[float], fraction: float) -> float:
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _latencies(scenario: Scenario) -> Tuple[int, List[float]]:
    """(sent, sorted latencies) of the CH→MH train, from the trace: each
    UDP datagram's first ``send`` at the correspondent to its
    ``deliver`` at the mobile host, by trace id.  The UDP filter skips
    the outer ``send`` of a tunnel packet."""
    assert scenario.ch is not None
    ch, mh = scenario.ch.name, scenario.mh.name
    first_send: Dict[int, float] = {}
    latencies: List[float] = []
    for entry in scenario.sim.trace.entries:
        if entry.proto != "UDP":
            continue
        if entry.action == "send" and entry.node == ch:
            # A datagram resent link-direct keeps its first send.
            first_send.setdefault(entry.trace_id, entry.time)
        elif (entry.action == "deliver" and entry.node == mh
              and entry.trace_id in first_send):
            latencies.append(entry.time - first_send[entry.trace_id])
    return len(first_send), sorted(latencies)


def _run_cell(
    mode: str, spec: ExperimentSpec
) -> Tuple[CongestionCell, Optional[Dict[str, Any]]]:
    """Run one cell; return its measurements and its obs report.

    Call it inside :func:`~repro.experiment.runner.gc_paused`: the
    runner, scenario and bottleneck die with this frame, inside the
    pause, so the first collection after the cell frees its world
    before the next cell builds one.
    """
    runner = Runner()
    result = runner.run(spec)
    scenario = runner.scenario
    assert scenario is not None
    bottleneck = scenario.sim.segments[BOTTLENECK_SEGMENT]
    sent, ordered = _latencies(scenario)
    cell = CongestionCell(
        mode=mode,
        sent=sent,
        received=len(ordered),
        latency_mean=(sum(ordered) / len(ordered)) if ordered else None,
        latency_p50=_percentile(ordered, 0.50) if ordered else None,
        latency_p99=_percentile(ordered, 0.99) if ordered else None,
        queue_dropped=bottleneck.queue_dropped,
        peak_queue_depth=bottleneck.queue_peak,
        bottleneck_busy=bottleneck.busy_seconds,
        losses_by_reason=dict(
            result.deliverability.get("losses_by_reason", {})),
        invariant_violations=result.invariants.get("violation_count", 0),
        digest=result.digest,
    )
    return cell, result.obs


def run_congestion(
    seed: int = 1402,
    datagrams: int = 400,
    spacing: float = 0.002,
    size: int = 1000,
    bandwidth: float = DEFAULT_BANDWIDTH,
    queue: int = DEFAULT_QUEUE,
    duration: float = 20.0,
    observe: bool = False,
) -> CongestionReport:
    """Run every In-* congestion cell and rank the modes.

    Each cell runs :func:`congestion_spec` for its mode with the same
    train.  Every run arms the invariant monitor, so a queue-overflow
    loss that escaped terminal-fate classification fails loudly here.
    ``observe`` arms the observability layer on each cell and collects
    the reports on :attr:`CongestionReport.obs`.
    """
    report = CongestionReport(
        seed=seed, bandwidth=bandwidth, queue=queue, datagrams=datagrams)
    for mode, _overrides in _CELLS:
        spec = congestion_spec(
            mode=mode, seed=seed, datagrams=datagrams, spacing=spacing,
            size=size, bandwidth=bandwidth, queue=queue, duration=duration,
            observe=observe)
        with gc_paused():
            cell, obs = _run_cell(mode, spec)
        report.cells.append(cell)
        if obs is not None:
            report.obs.append(obs)
    return report
