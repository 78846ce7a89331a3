"""Million-host worlds: build one, talk to it, prove it honest.

The population layer (:mod:`repro.netsim.population`) claims three
things: a pooled world *builds fast* (flyweight arrays, one timer-wheel
event), *stays small* (10 bytes per host), and is *behaviorally
invisible* (a conversation with a promoted host is byte-identical to
the same conversation in a world where every host was a full node).
This module is the driver that measures all three on demand — the
``repro-mobility mega`` subcommand is a thin shell around it.

``run_mega`` builds a pooled world via the ordinary
:class:`~repro.experiment.runner.Runner` lifecycle, aims the canonical
UDP conversation at one pooled host (``TrafficProgram.target`` promotes
it at arm time), and reports build time, bytes/host, wheel throughput,
and the trace digest.  ``verify=True`` runs the same spec twice —
``mode="pooled"`` and ``mode="materialized"`` — and insists the digests
match, which is the paper-grade honesty check: aggregation must never
change what happens on the wire.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set

from ..experiment.runner import Runner, RunResult
from ..experiment.spec import ExperimentSpec, TrafficProgram
from ..netsim.trace import TraceEntry

__all__ = ["MegaReport", "mega_spec", "run_mega", "DEFAULT_TARGET_INDEX"]

# The pooled host the canonical conversation promotes and talks to.
# Any index works (promotion is position-independent); a fixed default
# keeps digests comparable across invocations.
DEFAULT_TARGET_INDEX = 123


def mega_spec(
    hosts: int,
    domains: Optional[int] = None,
    mode: str = "pooled",
    seed: int = 1996,
    duration: float = 30.0,
    datagrams: int = 40,
    target_index: int = DEFAULT_TARGET_INDEX,
    observe: bool = False,
) -> ExperimentSpec:
    """The mega-world spec: a flyweight population plus the canonical
    conversation aimed at one pooled host."""
    if not 0 <= target_index < hosts:
        raise ValueError(
            f"target_index must be in [0, {hosts}), got {target_index}")
    population: Dict[str, Any] = {"hosts": hosts, "mode": mode}
    if domains is not None:
        population["domains"] = domains
    traffic = None
    if datagrams > 0:
        traffic = TrafficProgram(
            port=7000,
            target=f"mega-h{target_index}",
            uniform={
                "datagrams": datagrams,
                "spacing": 0.25,
                "size": 100,
                "direction": "both",
            },
        )
    return ExperimentSpec(
        seed=seed,
        label=f"mega-{mode}-{hosts}",
        duration=duration,
        population=population,
        traffic=traffic,
        observe=observe,
    )


def _conversation(
    entries: Iterable[TraceEntry], ch: str, mh: str
) -> Dict[str, Dict[str, int]]:
    """Datagrams sent and delivered in each direction, by trace id.

    A datagram belongs to the conversation when its first UDP ``send``
    is at one endpoint; it counts as delivered when a UDP ``deliver``
    follows at the other.  The UDP filter skips ICMP and a tunnel
    packet's outer ``send``; the endpoint filter skips the agents'
    tunnel sends and registrations.  The run's ``deliverability``
    counts all of those.
    """
    peer = {ch: mh, mh: ch}
    origin: Dict[int, str] = {}
    delivered: Set[int] = set()
    for entry in entries:
        if entry.proto != "UDP":
            continue
        if entry.action == "send" and entry.node in peer:
            origin.setdefault(entry.trace_id, entry.node)
        elif (entry.action == "deliver"
              and peer.get(origin.get(entry.trace_id)) == entry.node):
            delivered.add(entry.trace_id)
    sent_by = Counter(origin.values())
    delivered_by = Counter(origin[trace_id] for trace_id in delivered)
    return {
        "ch->mh": {"sent": sent_by[ch], "delivered": delivered_by[ch]},
        "mh->ch": {"sent": sent_by[mh], "delivered": delivered_by[mh]},
    }


@dataclass
class MegaReport:
    """One mega run, measured."""

    hosts: int
    mode: str
    digest: str
    trace_entries: int
    sim_time: float
    build_seconds: float
    total_seconds: float
    bytes_per_host: float
    population: Dict[str, Any]
    deliverability: Dict[str, Any]
    target: Optional[str]
    # Per direction ("ch->mh", "mh->ch"): the conversation's datagrams
    # sent and delivered (:func:`_conversation`); empty without
    # traffic.
    conversation: Dict[str, Dict[str, int]]
    result: RunResult = field(repr=False)
    # Set when verify ran: the materialized twin's digest and the verdict.
    verify_digest: Optional[str] = None
    verified: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "hosts": self.hosts,
            "mode": self.mode,
            "digest": self.digest,
            "trace_entries": self.trace_entries,
            "sim_time": self.sim_time,
            "build_seconds": self.build_seconds,
            "total_seconds": self.total_seconds,
            "bytes_per_host": self.bytes_per_host,
            "population": self.population,
            "deliverability": {
                key: value for key, value in self.deliverability.items()
                if key in ("sent", "delivered", "dropped", "lost")
            },
            "target": self.target,
            "conversation": self.conversation,
        }
        if self.verify_digest is not None:
            out["verify_digest"] = self.verify_digest
            out["verified"] = self.verified
        return out

    def render(self) -> str:
        population = self.population
        wheel = population.get("wheel", {})
        lines = [
            f"mega world: {self.hosts:,} hosts across "
            f"{population.get('domains', '?')} visited domains "
            f"(mode: {self.mode})",
            f"  build {self.build_seconds:.2f}s, total {self.total_seconds:.2f}s "
            f"wall for {self.sim_time:.1f}s simulated",
            f"  pool state {self.bytes_per_host:.1f} bytes/host "
            f"({population.get('state_bytes', 0):,} bytes, "
            f"{population.get('live', 0):,} live bindings)",
            f"  timer wheel: {wheel.get('buckets')} buckets, "
            f"{wheel.get('ticks', 0)} ticks, "
            f"{population.get('refreshes', 0):,} registration refreshes",
            f"  promotions: {population.get('promotions', 0)} "
            f"(target {self.target or '-'})",
        ]
        if self.conversation:
            lines.append("  conversation: " + ", ".join(
                f"{direction.upper()} {counts['delivered']}/{counts['sent']}"
                for direction, counts in self.conversation.items()
            ) + " datagrams delivered")
        lines.append(f"  trace digest {self.digest[:16]}… "
                     f"({self.trace_entries} entries)")
        if self.verify_digest is not None:
            verdict = ("IDENTICAL — aggregation is invisible"
                       if self.verified else "MISMATCH")
            lines.append(f"  materialized twin {self.verify_digest[:16]}…: "
                         f"{verdict}")
        return "\n".join(lines)


def run_mega(
    hosts: int = 1_000_000,
    domains: Optional[int] = None,
    mode: str = "pooled",
    seed: int = 1996,
    duration: float = 30.0,
    datagrams: int = 40,
    target_index: int = DEFAULT_TARGET_INDEX,
    verify: bool = False,
    observe: bool = False,
    runner: Optional[Runner] = None,
) -> MegaReport:
    """Build and drive one mega world; optionally verify digest parity.

    ``verify=True`` additionally runs the materialized twin (every host
    a full node — expensive; keep ``hosts`` modest) and records whether
    the two digests match.  The runner's scenario stays live on the
    (possibly caller-supplied) ``runner`` for inspection.
    """
    runner = runner or Runner()
    spec = mega_spec(
        hosts=hosts, domains=domains, mode=mode, seed=seed,
        duration=duration, datagrams=datagrams,
        target_index=target_index, observe=observe,
    )
    result = runner.run(spec)
    scenario = runner.scenario
    assert scenario is not None and scenario.population is not None
    population_stats = scenario.population.stats()
    state_bytes = scenario.population.state_bytes()
    target = spec.traffic.target if spec.traffic is not None else None
    conversation: Dict[str, Dict[str, int]] = {}
    if target is not None:
        assert scenario.ch is not None
        conversation = _conversation(
            scenario.sim.trace.entries, scenario.ch.name, target)
    report = MegaReport(
        hosts=hosts,
        mode=mode,
        digest=result.digest,
        trace_entries=result.trace_entries,
        sim_time=result.sim_time,
        build_seconds=result.timings.get("build", 0.0),
        total_seconds=result.timings.get("total", 0.0),
        bytes_per_host=state_bytes / max(hosts, 1),
        population=population_stats,
        deliverability=result.deliverability,
        target=target,
        conversation=conversation,
        result=result,
    )
    if verify:
        twin_mode = "materialized" if mode == "pooled" else "pooled"
        twin_spec = mega_spec(
            hosts=hosts, domains=domains, mode=twin_mode, seed=seed,
            duration=duration, datagrams=datagrams,
            target_index=target_index,
        )
        twin = Runner().run(twin_spec)
        report.verify_digest = twin.digest
        report.verified = (twin.digest == result.digest
                           and twin.trace_entries == result.trace_entries)
    return report
