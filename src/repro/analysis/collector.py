"""Scenario-wide statistics collection, backed by the metrics registry.

Aggregates the per-component counters of a running scenario — per-node
send/receive totals, tunnel usage, home-agent work, per-link bytes,
drop reasons, engine decisions — into one structured snapshot that
benchmarks and examples can diff across phases of an experiment
("before the move" vs "after", "Mobile IP on" vs "off").

Components register their counters into
:class:`repro.obs.metrics.MetricsRegistry` at construction (see
``Simulator.metrics``), so :func:`snapshot` queries the registry by
metric name and label instead of reaching into object attributes.  Any
new registered metric is automatically visible to registry consumers
without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .scenarios import Scenario

__all__ = ["ScenarioSnapshot", "snapshot", "diff"]


@dataclass(frozen=True)
class ScenarioSnapshot:
    """One moment's aggregate counters for a scenario."""

    time: float
    packets_sent: Dict[str, int]
    packets_received: Dict[str, int]
    tunneled_by_mh: int
    decapsulated_by_mh: int
    tunneled_by_ha: int
    reverse_forwarded_by_ha: int
    advisories_sent: int
    wide_area_bytes: int
    lan_bytes: int
    drops: Dict[str, int]
    engine_decisions: int
    mode_changes: int

    @property
    def total_sent(self) -> int:
        return sum(self.packets_sent.values())

    @property
    def mobile_ip_packets(self) -> int:
        """Packets that needed the Mobile IP machinery at all."""
        return (self.tunneled_by_mh + self.tunneled_by_ha
                + self.reverse_forwarded_by_ha)


def snapshot(scenario: Scenario) -> ScenarioSnapshot:
    """Capture the current counters of a scenario from the registry."""
    sim = scenario.sim
    metrics = sim.metrics
    bytes_by_link = metrics.read_family("trace.bytes_by_link")
    wide = sum(count for link, count in bytes_by_link.items()
               if link.startswith(("p2p", "uplink")))
    lan = sum(bytes_by_link.values()) - wide
    mh_name, ha_name = scenario.mh.name, scenario.ha.name
    return ScenarioSnapshot(
        time=sim.now,
        packets_sent={labels["node"]: int(value) for labels, value
                      in metrics.series("node.packets_sent")},
        packets_received={labels["node"]: int(value) for labels, value
                          in metrics.series("node.packets_received")},
        tunneled_by_mh=int(metrics.value("tunnel.encapsulated", node=mh_name)),
        decapsulated_by_mh=int(metrics.value("tunnel.decapsulated", node=mh_name)),
        tunneled_by_ha=int(metrics.value("ha.packets_tunneled", node=ha_name)),
        reverse_forwarded_by_ha=int(
            metrics.value("ha.reverse_forwarded", node=ha_name)),
        advisories_sent=int(metrics.value("ha.advisories_sent", node=ha_name)),
        wide_area_bytes=int(wide),
        lan_bytes=int(lan),
        drops={reason: int(count) for reason, count
               in metrics.read_family("trace.drops_by_reason").items()},
        engine_decisions=int(metrics.value("mh.engine_decisions", node=mh_name)),
        mode_changes=int(metrics.value("mh.mode_changes", node=mh_name)),
    )


def diff(before: ScenarioSnapshot, after: ScenarioSnapshot) -> ScenarioSnapshot:
    """Counter deltas between two snapshots of the same scenario."""
    if after.time < before.time:
        raise ValueError("snapshots out of order")
    return ScenarioSnapshot(
        time=after.time - before.time,
        packets_sent={
            name: after.packets_sent.get(name, 0) - count
            for name, count in before.packets_sent.items()
        } | {name: count for name, count in after.packets_sent.items()
             if name not in before.packets_sent},
        packets_received={
            name: after.packets_received.get(name, 0) - count
            for name, count in before.packets_received.items()
        } | {name: count for name, count in after.packets_received.items()
             if name not in before.packets_received},
        tunneled_by_mh=after.tunneled_by_mh - before.tunneled_by_mh,
        decapsulated_by_mh=after.decapsulated_by_mh - before.decapsulated_by_mh,
        tunneled_by_ha=after.tunneled_by_ha - before.tunneled_by_ha,
        reverse_forwarded_by_ha=(after.reverse_forwarded_by_ha
                                 - before.reverse_forwarded_by_ha),
        advisories_sent=after.advisories_sent - before.advisories_sent,
        wide_area_bytes=after.wide_area_bytes - before.wide_area_bytes,
        lan_bytes=after.lan_bytes - before.lan_bytes,
        drops={
            reason: after.drops.get(reason, 0) - count
            for reason, count in before.drops.items()
        } | {reason: count for reason, count in after.drops.items()
             if reason not in before.drops},
        engine_decisions=after.engine_decisions - before.engine_decisions,
        mode_changes=after.mode_changes - before.mode_changes,
    )
